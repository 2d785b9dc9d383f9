"""Server: HTTP/SSE round-trip overhead over the mining engine.

Measures what the network layer adds on top of the engine:

- **submit→result latency** for a batch of small jobs over HTTP,
  versus running the same jobs through a local ``Workspace`` (the
  difference is pure wire + scheduling overhead);
- **cached round-trip**: the same spec re-submitted, so the service
  answers from its result cache and the timing is almost entirely
  serialization + HTTP;
- **SSE delivery**: how many stream events arrive while a job mines,
  and the latency from submit to the first live event;
- **candidate stream**: one paper-settings spread job streamed with
  its candidate summaries on, beside a local ``Workspace.mine`` of the
  same spec; the difference, divided by the events the client's
  observer received, is the wire's cost per event. That count is of
  observer calls — one per candidate summary, iteration, scheduling
  decision and job — not of wire events: the server sends a step's
  summaries as a few ``candidates`` events of up to 1,024 each, and
  ``events_published`` counts those.

Results go to ``BENCH_server.json`` at the repo root (the perf
trajectory file, like the engine benchmark's). Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_server.py
"""

import json
import os
import threading
import time
from pathlib import Path

from bench_schema import envelope
from repro.api import Workspace
from repro.client import RemoteWorkspace
from repro.events import CallbackObserver
from repro.report.tables import format_table
from repro.server import MiningServer
from repro.spec import MiningSpec

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: Small jobs: the benchmark prices the wire, not the mining.
N_JOBS = 4

#: The candidate-stream job: the paper's search settings (beam 40, depth
#: 4, top 150), three spread steps, several hundred candidate summaries.
STREAM_SPEC = MiningSpec.build(
    "synthetic",
    kind="spread",
    seed=7,
    n_iterations=3,
    beam_width=40,
    max_depth=4,
    top_k=150,
)


def _spec(seed: int) -> MiningSpec:
    return MiningSpec.build(
        "synthetic", seed=seed, n_iterations=2, beam_width=8, max_depth=2, top_k=12
    )


def _stream_candidates(remote: RemoteWorkspace) -> tuple[float, float, int]:
    """(local seconds, remote seconds, observer calls) for STREAM_SPEC."""
    local_started = time.perf_counter()
    with Workspace() as workspace:
        local = workspace.mine(STREAM_SPEC)
    local_seconds = time.perf_counter() - local_started

    received = 0

    def count(*_) -> None:
        nonlocal received
        received += 1

    observer = CallbackObserver(
        on_candidate=count, on_iteration=count, on_job=count, on_schedule=count
    )
    remote_started = time.perf_counter()
    streamed = list(remote.stream(STREAM_SPEC, observer=observer))
    remote_seconds = time.perf_counter() - remote_started
    assert len(streamed) == len(local.iterations)
    for a, b in zip(local.iterations, streamed):
        assert str(a.location) == str(b.location)
        assert a.spread.score.ic == b.spread.score.ic
    return local_seconds, remote_seconds, received


def measure(seed: int = 0) -> list:
    specs = [_spec(seed + i) for i in range(N_JOBS)]

    local_started = time.perf_counter()
    with Workspace() as workspace:
        local_results = [workspace.mine(spec) for spec in specs]
    local_seconds = time.perf_counter() - local_started

    server = MiningServer(port=0, backend="thread", max_workers=2)
    handle = server.run_in_thread()
    try:
        remote = RemoteWorkspace(handle.url, timeout=60.0)

        # SSE: time-to-first-event while the first job mines.
        events_seen = 0
        first_event_at: list = []
        stream_done = threading.Event()

        def consume() -> None:
            nonlocal events_seen
            for event in remote.events():
                if not first_event_at:
                    first_event_at.append(time.perf_counter())
                events_seen += 1
                if event.type in ("job", "job_failed"):
                    stream_done.set()
                    return

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        time.sleep(0.1)  # subscriber online before the first submit

        remote_started = time.perf_counter()
        remote_results = [remote.mine(spec) for spec in specs]
        remote_seconds = time.perf_counter() - remote_started
        stream_done.wait(30)
        first_event_ms = (
            (first_event_at[0] - remote_started) * 1000 if first_event_at else None
        )

        # Determinism across the wire: same patterns, exact scores.
        for local_result, remote_result in zip(local_results, remote_results):
            for a, b in zip(local_result.iterations, remote_result.iterations):
                assert str(a.location) == str(b.location)
                assert a.location.score.ic == b.location.score.ic

        cached_started = time.perf_counter()
        remote.mine(specs[0])  # service result cache: pure wire cost
        cached_seconds = time.perf_counter() - cached_started

        stream_local, stream_remote, stream_events = _stream_candidates(remote)

        health = remote.health()
    finally:
        handle.stop()

    per_job_overhead = (remote_seconds - local_seconds) / N_JOBS
    per_event = (stream_remote - stream_local) / stream_events
    rows = [
        (f"local Workspace.mine x{N_JOBS}", local_seconds, ""),
        (f"remote mine x{N_JOBS} (HTTP)", remote_seconds,
         f"{per_job_overhead * 1000:+.1f} ms/job vs local"),
        ("remote mine, cached", cached_seconds, "wire + cache hit only"),
        ("first SSE event", (first_event_ms or 0) / 1000,
         f"{events_seen} events streamed"),
        ("candidate stream x1 (HTTP)", stream_remote,
         f"{stream_events} events, {per_event * 1e6:+.1f} us/event vs local "
         f"{stream_local:.4f} s"),
    ]
    JSON_PATH.write_text(
        json.dumps(
            envelope({
                "benchmark": "server",
                "n_jobs": N_JOBS,
                "cpu_count": os.cpu_count(),
                "local_seconds": round(local_seconds, 4),
                "remote_seconds": round(remote_seconds, 4),
                "per_job_wire_overhead_seconds": round(per_job_overhead, 4),
                "cached_roundtrip_seconds": round(cached_seconds, 4),
                "first_sse_event_ms": (
                    round(first_event_ms, 2) if first_event_ms is not None else None
                ),
                "events_streamed": events_seen,
                "stream_local_seconds": round(stream_local, 4),
                "stream_remote_seconds": round(stream_remote, 4),
                "stream_events_received": stream_events,
                "stream_wire_seconds_per_event": round(per_event, 7),
                "events_published": health["events"]["published"],
                "events_dropped": health["events"]["dropped"],
            }),
            indent=2,
        )
        + "\n"
    )
    return rows


def bench_server(benchmark, save_result):
    rows = benchmark.pedantic(measure, args=(0,), rounds=1, iterations=1)
    table = format_table(
        ["path", "seconds", "note"],
        rows,
        floatfmt=".4f",
        title=f"Server: HTTP/SSE overhead ({os.cpu_count()} core(s) available)",
    )
    save_result("server", table)
    assert len(rows) == 5
    assert JSON_PATH.exists()


if __name__ == "__main__":  # pragma: no cover - manual/CI entry point
    for row in measure(0):
        print(row)
    print(f"wrote {JSON_PATH}")
