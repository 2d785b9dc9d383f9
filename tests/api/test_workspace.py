"""The front-door contract: one spec, three execution modes, one answer.

Acceptance for the API redesign: a single ``MiningSpec`` JSON drives
``Workspace.mine``, ``Workspace.session``, and ``Workspace.submit``
(via ``MiningService``) to equivalent patterns, and the substrate
``SubgroupDiscovery`` and flat-job-document entry points produce
byte-identical results to the spec-driven path.
"""

import json

import numpy as np
import pytest

from repro.api import Workspace, build_miner
from repro.datasets import load_dataset
from repro.engine.jobs import run_job
from repro.errors import ReproError, SearchError
from repro.events import CallbackObserver, EventLog, broadcast
from repro.interest.dl import DLParams
from repro.persist import job_from_dict, job_to_dict, load_spec, save_spec
from repro.search.branch_bound import find_optimal_location
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.spec import MiningSpec

#: Small but non-trivial spec: two two-step iterations.
SPEC = MiningSpec.build(
    "synthetic",
    kind="spread",
    n_iterations=2,
    beam_width=8,
    max_depth=2,
    top_k=10,
    name="acceptance",
)


def assert_iterations_identical(ours, theirs):
    """Byte-level equality of two iteration sequences."""
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.index == b.index
        assert a.location.description == b.location.description
        assert np.array_equal(a.location.indices, b.location.indices)
        assert a.location.score.ic == b.location.score.ic  # exact, not approx
        assert a.location.score.dl == b.location.score.dl
        assert np.array_equal(a.location.mean, b.location.mean)
        assert (a.spread is None) == (b.spread is None)
        if a.spread is not None:
            assert np.array_equal(a.spread.direction, b.spread.direction)
            assert a.spread.variance == b.spread.variance
            assert a.spread.score.ic == b.spread.score.ic


class TestOneSpecThreeModes:
    @pytest.fixture(scope="class")
    def mined(self):
        return Workspace().mine(SPEC)

    def test_stream_equals_mine(self, mined):
        streamed = list(Workspace().stream(SPEC))
        assert_iterations_identical(streamed, mined.iterations)

    def test_session_equals_mine(self, mined):
        # A bare step() inherits the spec's kind/sparsity as defaults.
        session = Workspace().session(SPEC)
        stepped = [session.step() for _ in range(SPEC.search.n_iterations)]
        assert_iterations_identical(stepped, mined.iterations)

    def test_submit_equals_mine(self, mined):
        with Workspace(service_backend="serial") as ws:
            job_id = ws.submit(SPEC)
            result = ws.result(job_id)
        assert_iterations_identical(result.iterations, mined.iterations)

    def test_spec_json_file_drives_everything(self, mined, tmp_path):
        path = save_spec(SPEC, tmp_path / "spec.json")
        loaded = load_spec(path)
        assert loaded == SPEC
        result = Workspace().mine(loaded)
        assert_iterations_identical(result.iterations, mined.iterations)

    def test_plain_dict_accepted(self, mined, tmp_path):
        document = json.loads(json.dumps(SPEC.to_dict()))
        result = Workspace().mine(document)
        assert_iterations_identical(result.iterations, mined.iterations)


#: The acceptance spec with case weights: every row weighted differently.
WEIGHTED = SPEC.with_changes(
    weights=np.linspace(0.5, 2.0, load_dataset("synthetic", seed=0).n_rows).tolist()
)


class TestWeightedSpecEveryEntryPoint:
    """One weighted spec, one fingerprint, one result through every entry point."""

    @pytest.fixture(scope="class")
    def mined(self):
        return Workspace().mine(WEIGHTED).iterations

    def test_weights_change_the_patterns(self, mined):
        unweighted = Workspace().mine(SPEC).iterations
        assert [it.location.score.ic for it in mined] != [
            it.location.score.ic for it in unweighted
        ]

    def test_stream(self, mined):
        assert_iterations_identical(list(Workspace().stream(WEIGHTED)), mined)

    def test_session(self, mined):
        with Workspace().session(WEIGHTED) as session:
            stepped = [session.step() for _ in range(WEIGHTED.search.n_iterations)]
        assert_iterations_identical(stepped, mined)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_submit(self, mined, backend):
        # No belief cache: each backend mines, none replays another's steps.
        with Workspace(service_backend=backend, belief_cache=False) as ws:
            result = ws.result(ws.submit(WEIGHTED), timeout=120)
        assert_iterations_identical(result.iterations, mined)

    def test_wrong_length_weights_raise_on_every_path(self):
        from repro.errors import EngineError

        bad = SPEC.with_changes(weights=[1.0, 2.0, 3.0])
        with pytest.raises(EngineError, match="3 weights"):
            Workspace().mine(bad)
        with pytest.raises(EngineError, match="3 weights"):
            list(Workspace().stream(bad))
        with pytest.raises(EngineError, match="3 weights"):
            Workspace().session(bad)


class TestExecutorLifecycle:
    def test_abandoned_stream_releases_its_worker_pool(self):
        import multiprocessing

        from repro.engine import shm

        before = set(multiprocessing.active_children())
        stream = Workspace().stream(SPEC.with_changes(workers=2))
        assert next(stream).index == 1
        assert set(multiprocessing.active_children()) - before  # pool is warm
        stream.close()
        assert shm.live_segments() == frozenset()
        assert set(multiprocessing.active_children()) <= before


class TestDeprecatedPathsByteIdentical:
    @pytest.fixture(scope="class")
    def mined(self):
        return Workspace().mine(SPEC)

    def test_subgroup_discovery_path(self, mined):
        miner = SubgroupDiscovery(
            load_dataset("synthetic", seed=0),
            config=SearchConfig(beam_width=8, max_depth=2, top_k=10),
            dl_params=DLParams(),
            seed=0,
        )
        iterations = miner.run(2, kind="spread")
        assert_iterations_identical(iterations, mined.iterations)

    def test_mining_job_path(self, mined):
        job = job_from_dict(
            {
                "dataset": "synthetic",
                "kind": "spread",
                "n_iterations": 2,
                "config": {"beam_width": 8, "max_depth": 2, "top_k": 10},
            }
        )
        assert_iterations_identical(run_job(job).iterations, mined.iterations)

    def test_spec_to_job_round_trip_same_work(self):
        assert job_from_dict(job_to_dict(SPEC)).fingerprint() == SPEC.fingerprint()


class TestSingleShotStrategies:
    def test_branch_bound_spec_equals_direct_call(self):
        spec = MiningSpec.build(
            "crime",
            strategy="branch_bound",
            max_depth=2,
            attributes=["pct_illeg", "pct_poverty"],
        )
        result = Workspace().mine(spec)
        direct = find_optimal_location(
            load_dataset("crime", seed=0),
            config=SearchConfig(
                max_depth=2, attributes=["pct_illeg", "pct_poverty"]
            ),
        )
        (iteration,) = result.iterations
        assert iteration.location.description == direct.best.description
        assert iteration.location.score.ic == direct.best.score.ic

    def test_quality_beam_spec_mines_with_classical_measure(self):
        spec = MiningSpec.build(
            "crime",
            strategy="quality_beam",
            measure="mean_shift",
            beam_width=6,
            max_depth=2,
            attributes=["pct_illeg", "pct_poverty"],
        )
        result = Workspace().mine(spec)
        (iteration,) = result.iterations
        assert len(iteration.location.description) >= 1
        assert iteration.location.si != 0.0

    def test_session_rejects_single_shot_strategy(self):
        spec = MiningSpec.build(
            "crime", strategy="branch_bound", max_depth=2,
            attributes=["pct_illeg"],
        )
        with pytest.raises(SearchError, match="beam"):
            Workspace().session(spec)
        with pytest.raises(SearchError, match="beam"):
            build_miner(spec)

    def test_stream_yields_single_shot_iteration(self):
        spec = MiningSpec.build(
            "crime", strategy="branch_bound", max_depth=2,
            attributes=["pct_illeg"],
        )
        iterations = list(Workspace().stream(spec))
        assert len(iterations) == 1

    def test_stream_never_fires_on_job_for_any_strategy(self):
        from repro.errors import EngineError

        log = EventLog()
        list(Workspace(observer=log).stream(SPEC))
        bb = MiningSpec.build(
            "crime", strategy="branch_bound", max_depth=2,
            attributes=["pct_illeg"],
        )
        list(Workspace(observer=log).stream(bb))
        assert log.jobs == []  # on_job belongs to mine(), uniformly
        assert len(log.iterations) == 3

    def test_branch_bound_multi_target_error_names_the_spec_field(self):
        from repro.errors import EngineError

        # synthetic has two targets; the spec constructs (target count is
        # a dataset property) but execution must say how to fix the spec.
        spec = MiningSpec.build("synthetic", strategy="branch_bound", max_depth=1)
        with pytest.raises(EngineError, match="targets="):
            Workspace().mine(spec)

    def test_branch_bound_with_selected_target_runs(self):
        names = load_dataset("synthetic", seed=0).target_names
        spec = MiningSpec.build(
            "synthetic", strategy="branch_bound", max_depth=1,
            targets=[names[0]],
        )
        (iteration,) = Workspace().mine(spec).iterations
        assert len(iteration.location.description) == 1


class TestEvents:
    def test_mine_fires_candidates_iterations_and_job(self):
        log = EventLog()
        result = Workspace(observer=log).mine(SPEC)
        assert len(log.iterations) == 2
        assert log.iterations[0].index == 1
        assert len(log.candidates) > 0
        assert log.jobs == [result]

    def test_stream_fires_live_per_iteration(self):
        seen = []
        observer = CallbackObserver(on_iteration=lambda it: seen.append(it.index))
        stream = Workspace().stream(SPEC, observer=observer)
        first = next(stream)
        # The event for iteration 1 fired before iteration 2 was mined.
        assert seen == [first.index] == [1]
        list(stream)
        assert seen == [1, 2]

    def test_per_call_observer_composes_with_workspace_observer(self):
        ws_log, call_log = EventLog(), EventLog()
        Workspace(observer=ws_log).mine(SPEC, observer=call_log)
        assert len(ws_log.iterations) == len(call_log.iterations) == 2

    def test_service_replays_iterations_on_completion(self):
        log = EventLog()
        with Workspace(observer=log, service_backend="thread") as ws:
            job_id = ws.submit(SPEC)
            result = ws.result(job_id)
        assert len(log.iterations) == 2
        assert log.jobs == [result]

    def test_service_replays_on_cache_hit(self):
        log = EventLog()
        with Workspace(observer=log, service_backend="serial") as ws:
            result = ws.result(ws.submit(SPEC))
            ws.result(ws.submit(SPEC))  # cache hit
        assert len(log.jobs) == 2
        # Live during the run, replayed for the hit: once per job each.
        assert len(log.iterations) == 2 * len(result.iterations)

    def test_broadcast_drops_nones(self):
        log = EventLog()
        assert broadcast(None, None) is None
        assert broadcast(None, log) is log

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_failed_job_fires_on_job_failed(self, backend):
        # min_coverage above the dataset size: the beam finds nothing
        # admissible, so the job raises and the observer must hear it.
        bad = SPEC.with_changes(min_coverage=10**6)
        log = EventLog()
        with Workspace(observer=log, service_backend=backend) as ws:
            job_id = ws.submit(bad)
            with pytest.raises(Exception):
                ws.result(job_id)
        assert len(log.failures) == 1
        job, error = log.failures[0]
        assert job.dataset.name == "synthetic"
        assert isinstance(error, Exception)
        assert log.jobs == []


class TestWorkspaceLifecycle:
    def test_service_created_lazily_and_closed(self):
        ws = Workspace(service_backend="serial")
        assert ws._service is None
        ws.submit(SPEC)
        assert ws._service is not None
        ws.close()
        assert ws._service is None

    def test_lazy_service_honors_spec_executor_backend(self):
        spec = SPEC.with_changes(backend="serial")
        with Workspace() as ws:
            ws.result(ws.submit(spec))
            assert ws.service.backend == "serial"

    def test_explicit_service_backend_wins_over_spec(self):
        spec = SPEC.with_changes(backend="process")
        with Workspace(service_backend="serial") as ws:
            ws.submit(spec)
            assert ws.service.backend == "serial"

    def test_raising_observer_does_not_break_the_service(self):
        def explode(event):
            raise RuntimeError("broken dashboard")

        # A raising observer must neither crash submit nor FAIL the job,
        # on any hook, live or replayed.
        observer = CallbackObserver(on_job=explode, on_iteration=explode)
        with Workspace(observer=observer, service_backend="serial") as ws:
            job_id = ws.submit(SPEC)  # must not raise InvalidStateError
            result = ws.result(job_id)
            assert ws.status(job_id).value == "done"
        assert len(result.iterations) == 2

    def test_observer_swallowing_is_per_event_in_replay(self):
        seen = []

        def flaky(iteration):
            seen.append(iteration.index)
            if iteration.index == 1:
                raise RuntimeError("first event dies")

        jobs = []
        observer = CallbackObserver(on_iteration=flaky, on_job=jobs.append)
        with Workspace(observer=observer, service_backend="thread") as ws:
            ws.result(ws.submit(SPEC))
            ws.result(ws.submit(SPEC))  # cache hit -> replayed delivery
        # One raising event must not starve the later ones or on_job.
        assert seen == [1, 2, 1, 2]
        assert len(jobs) == 2

    def test_submit_honors_spec_workers(self):
        # executor.workers threads through submit; determinism keeps the
        # result byte-identical to the serial path.
        spec = SPEC.with_changes(workers=2, backend="serial")
        with Workspace() as ws:
            result = ws.result(ws.submit(spec))
        baseline = Workspace().mine(SPEC)
        assert_iterations_identical(result.iterations, baseline.iterations)

    def test_status_before_any_submit_raises(self):
        from repro.errors import EngineError

        ws = Workspace()
        with pytest.raises(EngineError, match="submit"):
            ws.status("job-0001")
        with pytest.raises(EngineError, match="submit"):
            ws.result("job-0001")
        assert ws._service is None  # the query did not spawn a pool

    def test_external_service_not_closed(self):
        from repro.engine.service import MiningService

        service = MiningService(backend="serial")
        ws = Workspace(service=service)
        ws.submit(SPEC)
        ws.close()
        assert ws._service is service  # still attached, not shut down
        service.shutdown()

    def test_workspace_observer_attaches_to_external_service(self):
        from repro.engine.service import MiningService

        log = EventLog()
        with MiningService(backend="serial") as service:
            ws = Workspace(observer=log, service=service)
            result = ws.result(ws.submit(SPEC))
        assert log.jobs == [result]
        assert len(log.iterations) == 2

    def test_closing_workspace_detaches_observer_from_shared_service(self):
        from repro.engine.service import MiningService

        first_log, second_log = EventLog(), EventLog()
        with MiningService(backend="serial") as service:
            with Workspace(observer=first_log, service=service) as first:
                first.result(first.submit(SPEC))
            with Workspace(observer=second_log, service=service) as second:
                second.result(second.submit(SPEC))
        # The closed workspace's observer heard only its own job.
        assert len(first_log.jobs) == 1
        assert len(second_log.jobs) == 1

    def test_submit_forwards_start_method(self):
        # The spec's start_method reaches the in-job executor resolution
        # (an invalid one would raise there); serial workers keep it inert
        # but the parameter must thread through without error.
        spec = SPEC.with_changes(backend="serial", start_method="spawn")
        with Workspace() as ws:
            result = ws.result(ws.submit(spec))
        assert len(result.iterations) == 2

    def test_invalid_spec_dict_rejected(self):
        with pytest.raises(ReproError):
            Workspace().mine({"dataset": "synthetic", "bogus": {}})

    def test_stream_validates_eagerly(self):
        # The error fires at the call, not at the first next().
        with pytest.raises(ReproError):
            Workspace().stream({"dataset": "nope"})
