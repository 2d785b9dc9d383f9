"""The service's mining turn: thread-backend jobs mine one step at a time.

A :class:`~repro.engine.jobs.MiningTurn` admits one holder at a time, in
arrival order. On the thread backend a job on a serial executor takes
it before it builds its miner, keeps it through each step and queues
behind any waiting job between steps; a job that mines in worker
processes skips it. Pinned here: exclusivity under a tiny switch
interval, step-level fairness, the bypass, release on an error and on
close, arrival order, and what a wait leaves in metrics and traces.
"""

import sys
import threading
import time

import pytest

from repro.api import Workspace
from repro.engine.jobs import MiningTurn, iterate_job
from repro.engine.service import JobStatus, MiningService
from repro.events import MiningObserver
from repro.obs.instruments import MINING_TURN_WAIT
from repro.obs.trace import TRACER, activate
from repro.persist import job_result_to_dict
from repro.search.miner import SubgroupDiscovery
from repro.spec import MiningSpec

FAST = dict(beam_width=6, max_depth=2, top_k=10)


def _job(seed=0, **kwargs):
    return MiningSpec.build("synthetic", seed=seed, **FAST, **kwargs)


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


class TestExclusivity:
    def test_one_thread_at_a_time_inside_a_step(self, monkeypatch):
        """Eight slots, sixteen jobs, a 10 µs switch interval: never two
        threads inside ``SubgroupDiscovery.step`` at once, and every
        result equals a local mine of its spec."""
        lock = threading.Lock()
        inside = [0]
        peak = [0]
        step = SubgroupDiscovery.step

        def counted(self, **kwargs):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                return step(self, **kwargs)
            finally:
                with lock:
                    inside[0] -= 1

        monkeypatch.setattr(SubgroupDiscovery, "step", counted)
        specs = [
            _job(
                seed=seed,
                n_iterations=1 + seed % 3,
                kind=("location", "spread")[seed % 2],
            )
            for seed in range(16)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MiningService(
                max_workers=8, backend="thread", belief_cache=None
            ) as service:
                ids = [service.submit(spec) for spec in specs]
                statuses = service.wait_all(timeout=300)
                results = [service.result(job_id) for job_id in ids]
        finally:
            sys.setswitchinterval(previous)
        assert [statuses[job_id] for job_id in ids] == [JobStatus.DONE] * 16
        assert peak[0] == 1
        for spec, result in zip(specs, results):
            local = Workspace().mine(spec)
            assert (
                job_result_to_dict(result)["iterations"]
                == job_result_to_dict(local)["iterations"]
            )


class TestStepFairness:
    @pytest.mark.parametrize(
        "slots, expected",
        [
            (2, ["long 1", "short 1", "long 2", "long 3"]),
            (1, ["long 1", "long 2", "long 3", "short 1"]),
        ],
        ids=["two-slots-take-turns", "one-slot"],
    )
    def test_a_short_job_waits_one_step_of_a_long_one(self, slots, expected):
        """A one-step job submitted during a three-step job's first step
        mines right after that step; with one slot, after the whole job."""
        order = []
        started = threading.Event()
        proceed = threading.Event()

        class Recorder(MiningObserver):
            def __init__(self, name):
                self.name = name

            def on_candidate(self, candidate):
                if self.name == "long" and not started.is_set():
                    started.set()
                    proceed.wait(30)

            def on_iteration(self, iteration):
                order.append(f"{self.name} {iteration.index}")

        with MiningService(
            max_workers=slots, backend="thread", belief_cache=None
        ) as service:
            service.submit(_job(seed=1, n_iterations=3), observer=Recorder("long"))
            assert started.wait(30)
            service.submit(_job(seed=2, n_iterations=1), observer=Recorder("short"))
            if slots > 1:
                _wait_until(lambda: len(service._turn._waiters) == 1)
            proceed.set()
            service.wait_all(timeout=120)
        assert order == expected


class TestBypass:
    def test_only_serial_executor_jobs_wait_for_a_held_turn(self):
        """While the test holds the service's turn, a job on two worker
        processes mines to the end; a serial one waits, running, until
        the turn is released."""
        with MiningService(
            max_workers=2, backend="thread", belief_cache=None
        ) as service:
            with service._turn:
                parallel = service.submit(_job(seed=3, workers=2))
                assert service.result(parallel, timeout=120).iterations
                serial = service.submit(_job(seed=4))
                _wait_until(lambda: len(service._turn._waiters) == 1)
                time.sleep(0.1)
                assert service.status(serial) == JobStatus.RUNNING
            assert service.result(serial, timeout=120).iterations
        assert not service._turn._held


class TestRelease:
    def test_a_raising_step_releases_the_turn(self, monkeypatch):
        def fail(self, **kwargs):
            raise RuntimeError("step failed")

        monkeypatch.setattr(SubgroupDiscovery, "step", fail)
        turn = MiningTurn()
        with pytest.raises(RuntimeError, match="step failed"):
            list(iterate_job(_job(n_iterations=2), turn=turn))
        assert not turn._held

    def test_closing_the_generator_between_steps_releases_the_turn(self):
        turn = MiningTurn()
        steps = iterate_job(_job(n_iterations=3), turn=turn)
        assert next(steps).index == 1
        steps.close()
        assert not turn._held and not turn._waiters

    def test_a_failed_job_leaves_the_turn_to_the_next(self):
        """A job that raises under the turn (its targets do not exist)
        fails, and the job behind it still mines."""
        with MiningService(
            max_workers=2, backend="thread", belief_cache=None
        ) as service:
            bad = service.submit(_job(seed=5, targets=("not-a-target",)))
            good = service.submit(_job(seed=6))
            assert service.result(good, timeout=120).iterations
            service.wait_all(timeout=120)
            assert service.status(bad) == JobStatus.FAILED
        assert not service._turn._held


class TestOrder:
    def test_waiters_take_the_turn_in_arrival_order(self):
        turn = MiningTurn()
        taken = []

        def take(name):
            with turn:
                taken.append(name)

        threads = []
        with turn:
            for arrived, name in enumerate(("first", "second", "third"), 1):
                thread = threading.Thread(target=take, args=(name,))
                thread.start()
                threads.append(thread)
                _wait_until(lambda: len(turn._waiters) == arrived)
        for thread in threads:
            thread.join(10)
        assert taken == ["first", "second", "third"]
        assert not turn._held


class TestObservability:
    def test_a_wait_is_a_span_and_every_turn_an_observation(self):
        """Each turn taken is one histogram observation; only a turn that
        was waited for leaves a ``turn.wait`` span on the trace."""
        turn = MiningTurn()
        before = MINING_TURN_WAIT.count
        root = TRACER.start("test")
        waited = threading.Thread(target=_take_traced, args=(turn, root.context))
        with activate(root.context):
            with turn:  # free: no span
                waited.start()
                _wait_until(lambda: len(turn._waiters) == 1)
                time.sleep(0.01)
        waited.join(10)
        TRACER.finish(root)
        assert MINING_TURN_WAIT.count - before == 2
        spans = [s for s in TRACER.finished(root.trace_id) if s.name == "turn.wait"]
        assert len(spans) == 1
        assert spans[0].parent_id == root.span_id
        assert spans[0].duration >= 0.01


def _take_traced(turn, context):
    with activate(context):
        with turn:
            pass
