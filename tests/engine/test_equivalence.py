"""Serial-vs-parallel equivalence: the engine's determinism contract.

Property: for any dataset seed, a ``ProcessExecutor`` run returns
*bit-identical* results to a ``SerialExecutor`` run — same subgroups in
the same order with byte-equal scores. A beam level is scored in
contiguous blocks of rows whose size is set by the sums' width (never by
the worker count), and block results are joined in row order, so this
holds at any parallelism.
"""

import numpy as np
import pytest

from repro.datasets import make_socio, make_synthetic
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.model.background import BackgroundModel
from repro.obs.instruments import IC_KERNEL_LOWRANK, IC_KERNEL_UNIFORM
from repro.search import beam
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


class TestBlockedScoringEquivalence:
    """A level scored in several blocks, the last one ragged, gives the
    bits of a serial run on the process pool too."""

    @pytest.fixture()
    def blocks(self, monkeypatch):
        """The block count and last block's rows of every level scored."""
        seen = []
        score_blocks = beam._score_blocks

        def recording(session, sums):
            rows = max(1, beam.BLOCK_VALUES // sums.shape[1])
            seen.append((-(-len(sums) // rows), len(sums) % rows))
            return score_blocks(session, sums)

        monkeypatch.setattr(beam, "_score_blocks", recording)
        return seen

    @pytest.mark.parametrize("path", ["uniform", "lowrank"])
    def test_small_blocks_bit_identical(self, monkeypatch, blocks, path):
        """Synthetic's levels (10 and about 37 rows of 5 or 6 values) in
        blocks of 30 values; the low-rank search runs after a spread step."""
        # Blocks are cut in the coordinator, so the pool sees the patch.
        monkeypatch.setattr(beam, "BLOCK_VALUES", 30)
        dataset = make_synthetic(0)
        serial = SubgroupDiscovery(dataset, config=CONFIG, seed=0, executor=SerialExecutor())
        with ProcessExecutor(2) as executor:
            parallel = SubgroupDiscovery(dataset, config=CONFIG, seed=0, executor=executor)
            if path == "lowrank":
                serial.step(kind="spread")
                parallel.step(kind="spread")
            del blocks[:]
            counter = IC_KERNEL_UNIFORM if path == "uniform" else IC_KERNEL_LOWRANK
            before = counter.value
            reference = serial.search_locations()
            assert counter.value > before
            result = parallel.search_locations()
        assert_search_results_identical(reference, result)
        # Every level splits, and one ends in a ragged block.
        assert min(count for count, _ in blocks) >= 2
        assert any(ragged for _, ragged in blocks)

    def test_a_level_past_the_real_block_bound(self, blocks, mammals_dataset):
        """Mammals' depth-2 level (3,442 rows of 127 values) spans several
        blocks at the module's bound."""
        serial = SubgroupDiscovery(
            mammals_dataset, config=CONFIG, seed=0, executor=SerialExecutor()
        ).search_locations()
        with ProcessExecutor(2) as executor:
            parallel = SubgroupDiscovery(
                mammals_dataset, config=CONFIG, seed=0, executor=executor
            ).search_locations()
        assert_search_results_identical(serial, parallel)
        assert max(count for count, _ in blocks) > 1


class TestSpreadSearchEquivalence:
    @pytest.mark.parametrize("name", ["synthetic", "socio"])
    def test_restart_fanout_bit_identical(self, synthetic_dataset, socio_dataset, name):
        """Synthetic (d = 2) takes the circle route, in the caller; socio
        (d = 5) ascends its starts in two chunks, every ascent stalling."""
        dataset = synthetic_dataset if name == "synthetic" else socio_dataset
        model = BackgroundModel.from_targets(dataset.targets)
        indices = np.arange(40)
        serial = find_spread_direction(
            model,
            indices,
            dataset.targets,
            seed=7,
            executor=SerialExecutor(),
        )
        parallel = find_spread_direction(
            model,
            indices,
            dataset.targets,
            seed=7,
            executor=ProcessExecutor(2),
        )
        assert serial.route == parallel.route == ("circle" if name == "synthetic" else "ascent")
        assert np.array_equal(serial.direction, parallel.direction)
        assert serial.ic == parallel.ic
        assert serial.variance == parallel.variance
        assert serial.n_starts == parallel.n_starts
        assert serial.n_iterations == parallel.n_iterations


    @pytest.mark.parametrize("name", ["synthetic", "socio", "mammals"])
    def test_uneven_chunks_bit_identical(
        self, synthetic_dataset, socio_dataset, mammals_dataset, name
    ):
        """Three workers ascend the ten starts in chunks of 4, 3 and 3: on
        socio (d = 5) every ascent stalls, and on mammals' first location
        subgroup every ascent hits its cap. Synthetic (d = 2) takes the
        circle route, in the caller, whatever the executor."""
        if name == "synthetic":
            dataset, rows, seed = synthetic_dataset, np.arange(40), 7
        elif name == "socio":
            dataset, rows, seed = socio_dataset, np.arange(40), 7
        else:
            dataset, seed = mammals_dataset, 0
            rows = np.flatnonzero(dataset.column("tmp_mar").values <= -1.73595)
        model = BackgroundModel.from_targets(dataset.targets)
        serial = find_spread_direction(model, rows, dataset.targets, seed=seed)
        with ProcessExecutor(3) as executor:
            parallel = find_spread_direction(
                model, rows, dataset.targets, seed=seed, executor=executor
            )
        assert parallel.direction.tobytes() == serial.direction.tobytes()
        assert parallel.ic == serial.ic
        assert (parallel.n_starts, parallel.n_iterations, parallel.n_capped) == (
            serial.n_starts,
            serial.n_iterations,
            serial.n_capped,
        )
        assert serial.route == ("circle" if name == "synthetic" else "ascent")
        if name == "socio":
            assert serial.n_iterations > 0 and serial.n_capped == 0
        if name == "mammals":
            assert serial.n_capped == 10


class TestFullLoopEquivalence:
    @pytest.mark.parametrize("make", [make_synthetic, make_socio], ids=["synthetic", "socio"])
    def test_iterative_mining_identical(self, make):
        """Two full location+spread iterations, serial vs process pool:
        synthetic's spread steps take the circle route, socio's ascend."""
        dataset = make(0)
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

    @pytest.mark.parametrize("name", ["synthetic", "socio"])
    def test_spread_bit_identical(self, synthetic_dataset, socio_dataset, name):
        """Synthetic (d = 2) takes the circle route, in the caller; socio
        (d = 5) ascends its starts in two chunks on the warm pool."""
        dataset = synthetic_dataset if name == "synthetic" else socio_dataset
        model = BackgroundModel.from_targets(dataset.targets)
        indices = np.arange(40)
        serial = find_spread_direction(
            model,
            indices,
            dataset.targets,
            seed=7,
            executor=SerialExecutor(),
        )
        with ProcessExecutor(2) as executor:
            shared = find_spread_direction(
                model,
                indices,
                dataset.targets,
                seed=7,
                executor=executor,
            )
        assert serial.route == shared.route == ("circle" if name == "synthetic" else "ascent")
        assert serial.direction.tobytes() == shared.direction.tobytes()
        assert serial.ic == shared.ic
        assert serial.variance == shared.variance
        assert serial.n_iterations == shared.n_iterations

    @pytest.mark.parametrize("make", [make_synthetic, make_socio], ids=["synthetic", "socio"])
    def test_full_loop_reuses_warm_pool_bit_identically(self, make):
        """Two location+spread iterations over one persistent pool:
        synthetic's spread steps take the circle route, socio's ascend."""
        dataset = make(0)
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

#: Small-but-real searches on both acceptance datasets, and on socio,
#: whose spread search ascends (synthetic's d = 2 takes the circle route).
_DATASET_CONFIGS = {
    "synthetic": SearchConfig(beam_width=6, max_depth=2, top_k=15),
    "socio": SearchConfig(beam_width=4, max_depth=1, top_k=10),
    "mammals": SearchConfig(beam_width=4, max_depth=1, top_k=10),
}


def _load_equivalence_dataset(name):
    from repro.datasets import load_dataset

    return load_dataset(name, seed=0)


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
    mine bit-identical beam and spread results on the synthetic, socio
    and mammals datasets; the spread search ascends on socio and
    mammals."""

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
