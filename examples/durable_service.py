"""Durable mining service: submit, "crash", restart, resume from disk.

The demo runs the full durability loop in one process:

1. start a :class:`MiningServer` on a durable store directory and mine
   two jobs to completion plus one that is still queued;
2. kill the server without any graceful shutdown — what a SIGKILL or
   power loss leaves behind: one record file per job, each as its last
   finished write left it;
3. restart a *new* server on the same store and show that the finished
   results come back bit-identically in ~0 seconds (served from the
   store, nothing recomputed), the interrupted job is re-enqueued and
   finishes, and the server's stream generation advanced so streaming
   clients can detect the restart.

Run with::

    python examples/durable_service.py [store-dir]

Without an argument the store lives in a temporary directory.
"""

import sys
import tempfile
import time

from repro import MiningSpec, RemoteWorkspace
from repro.persist import job_result_to_dict
from repro.server import MiningServer


def _spec(seed: int, n_iterations: int = 2) -> MiningSpec:
    return MiningSpec.build(
        "synthetic",
        kind="spread",
        seed=seed,
        n_iterations=n_iterations,
        beam_width=12,
        top_k=30,
    )


def main() -> int:
    store = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="sisd-store-")
    print(f"durable store: {store}")

    # --- boot 1: mine two jobs, leave a third one queued -------------
    server = MiningServer(port=0, backend="thread", max_workers=1, store=store)
    handle = server.run_in_thread()
    ws = RemoteWorkspace(handle.url)
    generation = ws.health()["generation"]
    print(f"boot 1 up at {handle.url} (generation {generation})")

    finished = [ws.submit(_spec(seed=s)) for s in (0, 1)]
    before = {i: job_result_to_dict(ws.result(i, timeout=120)) for i in finished}
    # A long job that will still be live when the "crash" hits.
    interrupted = ws.submit(_spec(seed=2, n_iterations=6))
    print(f"mined {len(before)} jobs; {interrupted} is still in flight")

    # --- the crash ---------------------------------------------------
    # No drain, no flush beyond the record writes already made: the
    # store is left as a power loss would leave it.
    handle.stop()
    print("boot 1 killed (no graceful shutdown of in-flight work)")

    # --- boot 2: same store, new process ----------------------------
    relaunch = MiningServer(port=0, backend="thread", max_workers=1, store=store)
    handle = relaunch.run_in_thread()
    try:
        ws = RemoteWorkspace(handle.url)
        health = ws.health()
        print(f"boot 2 up at {handle.url} (generation {health['generation']})")
        assert health["generation"] != generation, "generation must advance"

        started = time.monotonic()
        for job_id in finished:
            after = job_result_to_dict(ws.result(job_id, timeout=10))
            assert after == before[job_id], "recovered result drifted"
        print(f"finished jobs served from the store, bit-identically, "
              f"in {time.monotonic() - started:.2f}s (no recompute)")

        # The interrupted job was re-enqueued on boot and completes.
        result = ws.result(interrupted, timeout=180)
        print(f"interrupted job resumed and finished: "
              f"{len(result.iterations)} iterations, "
              f"top pattern {result.iterations[0].location.description}")
    finally:
        handle.stop()
    print("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
