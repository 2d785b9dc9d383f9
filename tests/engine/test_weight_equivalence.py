"""Case weights under the engine's determinism contract.

Two acceptance properties:

- unit weights are invisible: a weighted run with all-ones weights is
  bit-identical to the unweighted run, on the synthetic and mammals
  datasets, across the serial and process backends;
- genuinely weighted runs are backend-independent: serial, process-pool
  and shared-memory executors mine bit-identical patterns, the weights
  riding with everything else in the session context, one protocol-5
  pickle whose arrays live in shared memory.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset, make_synthetic
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.engine.jobs import run_job
from repro.errors import EngineError, ReproError
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.spec import MiningSpec

from tests.engine.test_equivalence import assert_search_results_identical

CONFIG = SearchConfig(beam_width=6, max_depth=2, top_k=15)


def _example_weights(n_rows: int, seed: int = 0) -> np.ndarray:
    """Deterministic, genuinely non-uniform positive weights."""
    rng = np.random.default_rng(seed)
    return 0.25 + rng.random(n_rows) * 2.0


class TestUnitWeightsInvisible:
    @pytest.mark.parametrize("dataset_name", ["synthetic", "mammals"])
    def test_serial_bit_identical(self, dataset_name):
        dataset = load_dataset(dataset_name, seed=0)
        plain = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        ).search_locations()
        weighted = SubgroupDiscovery(
            dataset.with_weights(np.ones(dataset.n_rows)),
            config=CONFIG,
            seed=0,
            executor=SerialExecutor(),
        ).search_locations()
        assert_search_results_identical(plain, weighted)

    @pytest.mark.parametrize("dataset_name", ["synthetic", "mammals"])
    def test_process_bit_identical(self, dataset_name):
        dataset = load_dataset(dataset_name, seed=0)
        plain = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        ).search_locations()
        with ProcessExecutor(2) as executor:
            weighted = SubgroupDiscovery(
                dataset.with_weights(np.ones(dataset.n_rows)),
                config=CONFIG,
                seed=0,
                executor=executor,
            ).search_locations()
        assert_search_results_identical(plain, weighted)

    def test_full_location_spread_loop_bit_identical(self):
        dataset = make_synthetic(0)
        plain = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        )
        weighted = SubgroupDiscovery(
            dataset.with_weights(np.ones(dataset.n_rows)),
            config=CONFIG,
            seed=0,
            executor=SerialExecutor(),
        )
        for _ in range(2):
            a = plain.step(kind="spread")
            b = weighted.step(kind="spread")
            assert a.location.description == b.location.description
            assert a.location.score.ic == b.location.score.ic
            assert a.location.score.si == b.location.score.si
            assert np.array_equal(a.spread.direction, b.spread.direction)
            assert a.spread.score.ic == b.spread.score.ic
            assert a.spread.variance == b.spread.variance


class TestWeightedBackendEquivalence:
    def test_serial_process_shm_bit_identical(self):
        dataset = make_synthetic(0)
        dataset = dataset.with_weights(_example_weights(dataset.n_rows))
        reference = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        ).search_locations()
        # The process backend ships the weighted scorer through shared
        # memory onto its warm pool.
        with ProcessExecutor(2) as executor:
            process = SubgroupDiscovery(
                dataset, config=CONFIG, seed=0, executor=executor
            ).search_locations()
        assert_search_results_identical(reference, process)

    def test_weighted_iterative_loop_shm_bit_identical(self):
        dataset = make_synthetic(0)
        dataset = dataset.with_weights(_example_weights(dataset.n_rows))
        serial = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        )
        with ProcessExecutor(2) as executor:
            shared = SubgroupDiscovery(
                dataset, config=CONFIG, seed=0, executor=executor
            )
            for _ in range(2):
                a = serial.step(kind="spread")
                b = shared.step(kind="spread")
                assert a.location.description == b.location.description
                assert a.location.score.ic == b.location.score.ic
                assert np.array_equal(a.spread.direction, b.spread.direction)
                assert a.spread.score.ic == b.spread.score.ic

    def test_weights_change_what_gets_mined(self):
        """Sanity: non-uniform weights are not a no-op on the scores."""
        dataset = make_synthetic(0)
        plain = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        ).search_locations()
        weighted = SubgroupDiscovery(
            dataset.with_weights(_example_weights(dataset.n_rows)),
            config=CONFIG,
            seed=0,
            executor=SerialExecutor(),
        ).search_locations()
        assert plain.best.score.ic != weighted.best.score.ic


class TestJobWeights:
    def _job(self, weights=None):
        return MiningSpec.build(
            "synthetic", weights=weights, beam_width=6, max_depth=2, top_k=15
        )

    def test_run_job_applies_weights(self):
        n_rows = make_synthetic(0).n_rows
        plain = run_job(self._job())
        weighted = run_job(self._job(weights=tuple(_example_weights(n_rows))))
        assert (
            plain.iterations[0].location.score.ic
            != weighted.iterations[0].location.score.ic
        )

    def test_run_job_unit_weights_bit_identical(self):
        n_rows = make_synthetic(0).n_rows
        plain = run_job(self._job())
        weighted = run_job(self._job(weights=tuple(np.ones(n_rows))))
        a = plain.iterations[0].location
        b = weighted.iterations[0].location
        assert a.description == b.description
        assert a.score.ic == b.score.ic
        assert a.score.si == b.score.si

    def test_run_job_rejects_wrong_length(self):
        with pytest.raises(EngineError, match="weights"):
            run_job(self._job(weights=(1.0, 2.0)))

    def test_job_rejects_non_positive_weights(self):
        with pytest.raises(ReproError, match="weights"):
            self._job(weights=(1.0, -2.0))

    def test_job_spec_round_trips_weights(self):
        from repro.persist import job_from_dict

        job = self._job(weights=(1.0, 2.0, 0.5))
        document = job.work_document()
        assert document["weights"] == [1.0, 2.0, 0.5]
        assert job_from_dict(document).dataset.weights == (1.0, 2.0, 0.5)

    def test_job_spec_omits_weights_when_unset(self):
        """Pre-weights specs (and their fingerprints) must be unchanged."""
        assert "weights" not in self._job().work_document()

    def test_weights_change_the_fingerprint(self):
        plain = self._job()
        unit = self._job(weights=(1.0,) * make_synthetic(0).n_rows)
        assert plain.fingerprint() != unit.fingerprint()
