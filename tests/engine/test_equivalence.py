"""Serial-vs-parallel equivalence: the engine's determinism contract.

Property: for any dataset seed, a ``ProcessExecutor`` run returns
*bit-identical* results to a ``SerialExecutor`` run — same subgroups in
the same order with byte-equal scores. Sharding is by attribute (never
by worker count) and merges are stable, so this holds at any
parallelism.
"""

import numpy as np
import pytest

from repro.datasets import make_synthetic
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.search.spread import find_spread_direction

#: Small but non-trivial search: multiple levels, dozens of candidates.
CONFIG = SearchConfig(beam_width=8, max_depth=2, top_k=25)


def assert_search_results_identical(serial, parallel):
    """Byte-level equality of two SearchResults."""
    assert serial.n_evaluated == parallel.n_evaluated
    assert serial.depth_reached == parallel.depth_reached
    assert serial.expired == parallel.expired
    assert len(serial.log) == len(parallel.log)
    for a, b in zip(serial.log, parallel.log):
        assert a.description == b.description
        assert np.array_equal(a.indices, b.indices)
        assert a.score.ic == b.score.ic  # exact float equality, not approx
        assert a.score.dl == b.score.dl
        assert np.array_equal(a.observed_mean, b.observed_mean)
    assert (serial.best is None) == (parallel.best is None)
    if serial.best is not None:
        assert serial.best.description == parallel.best.description


class TestBeamSearchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top_k_bit_identical_across_seeds(self, seed):
        """Acceptance: ProcessExecutor top-k == SerialExecutor top-k."""
        dataset = make_synthetic(seed)
        serial = SubgroupDiscovery(
            dataset, config=CONFIG, seed=seed, executor=SerialExecutor()
        ).search_locations()
        parallel = SubgroupDiscovery(
            dataset, config=CONFIG, seed=seed, executor=ProcessExecutor(2)
        ).search_locations()
        assert_search_results_identical(serial, parallel)

    def test_worker_count_does_not_matter(self):
        dataset = make_synthetic(0)
        results = [
            SubgroupDiscovery(
                dataset, config=CONFIG, seed=0, executor=executor
            ).search_locations()
            for executor in (SerialExecutor(), ProcessExecutor(2), ProcessExecutor(4))
        ]
        assert_search_results_identical(results[0], results[1])
        assert_search_results_identical(results[0], results[2])


class TestSpreadSearchEquivalence:
    def test_restart_fanout_bit_identical(self, synthetic_model, synthetic_dataset):
        indices = np.arange(40)
        serial = find_spread_direction(
            synthetic_model,
            indices,
            synthetic_dataset.targets,
            seed=7,
            executor=SerialExecutor(),
        )
        parallel = find_spread_direction(
            synthetic_model,
            indices,
            synthetic_dataset.targets,
            seed=7,
            executor=ProcessExecutor(2),
        )
        assert np.array_equal(serial.direction, parallel.direction)
        assert serial.ic == parallel.ic
        assert serial.variance == parallel.variance
        assert serial.n_starts == parallel.n_starts
        assert serial.n_iterations == parallel.n_iterations


class TestFullLoopEquivalence:
    def test_iterative_mining_identical(self):
        """Two full location+spread iterations, serial vs process pool."""
        dataset = make_synthetic(0)
        serial = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        )
        parallel = SubgroupDiscovery(
            dataset, config=CONFIG, seed=0, executor=ProcessExecutor(2)
        )
        for _ in range(2):
            a = serial.step(kind="spread")
            b = parallel.step(kind="spread")
            assert a.location.description == b.location.description
            assert a.location.score.ic == b.location.score.ic
            assert np.array_equal(a.spread.direction, b.spread.direction)
            assert a.spread.score.ic == b.spread.score.ic


class TestSharedMemoryEquivalence:
    """The warm pool's zero-copy transport must be invisible in the results."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_beam_bit_identical(self, seed):
        dataset = make_synthetic(seed)
        serial = SubgroupDiscovery(
            dataset, config=CONFIG, seed=seed, executor=SerialExecutor()
        ).search_locations()
        with ProcessExecutor(2) as executor:
            shared = SubgroupDiscovery(
                dataset, config=CONFIG, seed=seed, executor=executor
            ).search_locations()
        assert_search_results_identical(serial, shared)

    def test_spread_bit_identical(self, synthetic_model, synthetic_dataset):
        indices = np.arange(40)
        serial = find_spread_direction(
            synthetic_model,
            indices,
            synthetic_dataset.targets,
            seed=7,
            executor=SerialExecutor(),
        )
        with ProcessExecutor(2) as executor:
            shared = find_spread_direction(
                synthetic_model,
                indices,
                synthetic_dataset.targets,
                seed=7,
                executor=executor,
            )
        assert np.array_equal(serial.direction, shared.direction)
        assert serial.ic == shared.ic
        assert serial.variance == shared.variance
        assert serial.n_iterations == shared.n_iterations

    def test_full_loop_reuses_warm_pool_bit_identically(self):
        """Two location+spread iterations over one persistent pool."""
        dataset = make_synthetic(0)
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


#: Every start method the warm shared-memory pool is checked under.
PARALLEL_BACKENDS = {
    "fork": dict(start_method="fork"),
    "spawn": dict(start_method="spawn"),
}

#: Small-but-real searches on both acceptance datasets.
_DATASET_CONFIGS = {
    "synthetic": SearchConfig(beam_width=6, max_depth=2, top_k=15),
    "mammals": SearchConfig(beam_width=4, max_depth=1, top_k=10),
}


def _load_equivalence_dataset(name):
    if name == "synthetic":
        return make_synthetic(0)
    from repro.datasets import load_dataset

    return load_dataset("mammals", seed=0)


_SERIAL_REFERENCES: dict = {}


def _serial_reference(name):
    """Serial beam + spread results, mined once per dataset."""
    if name not in _SERIAL_REFERENCES:
        dataset = _load_equivalence_dataset(name)
        beam = SubgroupDiscovery(
            dataset,
            config=_DATASET_CONFIGS[name],
            seed=0,
            executor=SerialExecutor(),
        ).search_locations()
        from repro.model.background import BackgroundModel

        model = BackgroundModel.from_targets(dataset.targets)
        spread = find_spread_direction(
            model,
            np.arange(60),
            dataset.targets,
            seed=3,
            n_random_starts=2,
            max_iterations=40,
            executor=SerialExecutor(),
        )
        _SERIAL_REFERENCES[name] = (dataset, model, beam, spread)
    return _SERIAL_REFERENCES[name]


class TestCrossStartMethodDeterminism:
    """Serial and the warm shared-memory pool under fork and spawn all
    mine bit-identical beam and spread results on the synthetic and
    mammals datasets."""

    @pytest.mark.parametrize("dataset_name", sorted(_DATASET_CONFIGS))
    @pytest.mark.parametrize("backend", sorted(PARALLEL_BACKENDS))
    def test_beam_and_spread_bit_identical(self, dataset_name, backend):
        dataset, model, reference_beam, reference_spread = _serial_reference(
            dataset_name
        )
        with ProcessExecutor(2, **PARALLEL_BACKENDS[backend]) as executor:
            beam = SubgroupDiscovery(
                dataset,
                config=_DATASET_CONFIGS[dataset_name],
                seed=0,
                executor=executor,
            ).search_locations()
            spread = find_spread_direction(
                model,
                np.arange(60),
                dataset.targets,
                seed=3,
                n_random_starts=2,
                max_iterations=40,
                executor=executor,
            )
        assert_search_results_identical(reference_beam, beam)
        assert np.array_equal(reference_spread.direction, spread.direction)
        assert reference_spread.ic == spread.ic
        assert reference_spread.variance == spread.variance
        assert reference_spread.n_iterations == spread.n_iterations
