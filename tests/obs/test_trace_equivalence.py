"""Observability must be invisible in the results, visible in the trace.

Two acceptance bars from the observability PR:

- **Bit-identical with tracing on.** Activating a trace context around a
  run changes zero bytes of the mined result, on every backend —
  serial, the shared-memory process pool (fork and spawn), and
  distributed.
- **One job, one tree.** A service submission routed through a live
  remote worker produces a single trace whose span tree covers
  submit → schedule → engine phases → shard → worker.shard.
"""

import numpy as np
import pytest

from repro.engine.cache import BeliefCache
from repro.engine.jobs import run_job, run_job_with_workers
from repro.engine.service import MiningService
from repro.obs.trace import TRACER, activate
from repro.spec import MiningSpec


def _job(**overrides) -> MiningSpec:
    # Small but non-trivial: beam phases and both step kinds fire.
    settings = dict(
        beam_width=6, max_depth=2, top_k=10, kind="spread", n_iterations=1
    )
    settings.update(overrides)
    return MiningSpec.build("synthetic", **settings)


def assert_results_identical(ours, theirs):
    """Byte-level equality of two JobResults (exact float equality)."""
    assert len(ours.iterations) == len(theirs.iterations)
    for a, b in zip(ours.iterations, theirs.iterations):
        assert a.index == b.index
        assert a.location.description == b.location.description
        assert np.array_equal(a.location.indices, b.location.indices)
        assert a.location.score.ic == b.location.score.ic
        assert a.location.score.dl == b.location.score.dl
        assert (a.spread is None) == (b.spread is None)
        if a.spread is not None:
            assert np.array_equal(a.spread.direction, b.spread.direction)
            assert a.spread.score.ic == b.spread.score.ic


@pytest.fixture(scope="module")
def untraced_reference():
    """The job mined once with no trace context active."""
    assert TRACER is not None
    return run_job(_job())


class TestTracingOnBitIdentical:
    def test_serial(self, untraced_reference):
        with TRACER.span("test-root") as root:
            traced = run_job(_job())
        assert_results_identical(untraced_reference, traced)
        # ...and the trace actually captured the engine's phase spans.
        names = {span.name for span in TRACER.finished(root.trace_id)}
        assert {"candidate_gen", "score", "merge", "prune"} <= names

    def test_process_pool(self, untraced_reference):
        root = TRACER.start("test-root")
        traced = run_job_with_workers(_job(workers=2), trace=root.context)
        TRACER.finish(root)
        assert_results_identical(untraced_reference, traced)

    def test_shared_memory(self, untraced_reference):
        # The warm pool under spawn: fresh interpreters reattach the
        # published context from shared memory.
        root = TRACER.start("test-root")
        traced = run_job_with_workers(
            _job(workers=2, start_method="spawn"), trace=root.context
        )
        TRACER.finish(root)
        assert_results_identical(untraced_reference, traced)

    def test_dist(self, untraced_reference, worker_url):
        root = TRACER.start("test-root")
        traced = run_job_with_workers(
            _job(), trace=root.context, dist_workers=[worker_url]
        )
        TRACER.finish(root)
        assert_results_identical(untraced_reference, traced)
        # The in-thread daemon records into the same process-wide
        # tracer, so the remote side of every shard is visible here.
        names = {span.name for span in TRACER.finished(root.trace_id)}
        assert "shard" in names
        assert "worker.shard" in names

    def test_fingerprint_ignores_the_active_trace(self):
        bare = _job().fingerprint()
        with TRACER.span("test-root"):
            assert _job().fingerprint() == bare


class TestOneJobOneTrace:
    def test_service_submission_spans_submit_to_remote_worker(
        self, untraced_reference, worker_url
    ):
        # The unique name keeps this test's root span distinguishable
        # from every other service submission in the pytest process
        # (the tracer is process-wide; job ids restart per service).
        job = _job(name="obs-trace-coherence")
        # Its own belief cache: a step replayed from the process-wide one,
        # warmed by earlier tests, would record no engine spans.
        with MiningService(
            backend="thread", max_workers=1, belief_cache=BeliefCache()
        ) as service:
            job_id = service.submit(job, dist_workers=[worker_url])
            result = service.result(job_id, timeout=120)
        assert_results_identical(untraced_reference, result)

        roots = [
            span
            for span in TRACER.finished()
            if span.name == "submit"
            and span.tags.get("job") == job.label
            and span.tags.get("job_id") == job_id
        ]
        assert len(roots) == 1, "exactly one root span per submission"
        root = roots[0]
        spans = TRACER.finished(root.trace_id)
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        # The tree covers every tier the job crossed.
        for name in (
            "submit",
            "schedule",
            "candidate_gen",
            "score",
            "merge",
            "prune",
            "step.location",
            "step.spread",
            "shard",
            "worker.shard",
        ):
            assert name in by_name, f"missing span {name!r} in the trace"

        # Everything shares the root's trace id by construction of
        # finished(trace_id); now check the parent edges.
        assert root.parent_id is None
        (schedule,) = by_name["schedule"]
        assert schedule.parent_id == root.span_id
        shard_ids = {span.span_id for span in by_name["shard"]}
        for span in by_name["shard"]:
            assert span.parent_id == root.span_id
        for span in by_name["worker.shard"]:
            assert span.parent_id in shard_ids

    def test_untraced_jobs_stay_untraced(self):
        """Running outside any context records no orphan phase spans."""
        before = len(TRACER.finished())
        run_job(_job(seed=3))
        new = TRACER.finished()[before:]
        assert [span.name for span in new] == []
