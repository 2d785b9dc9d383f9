"""Engine: parallel beam search — wall clock and context-shipping cost.

Runs the same location beam search on scalability-sized synthetic data
(the §III-E generator scaled 16x) with the serial backend and with
``ProcessExecutor`` pools of 2 and 4 workers (a persistent warm pool
whose sessions ship the scorer's arrays through
``multiprocessing.shared_memory``). Speedup > 1 needs real cores: on a
single-core machine the table simply quantifies the pool overhead. The
engine's determinism contract is asserted along the way: every backend
must return the exact same top subgroup with the exact same scores.

Besides the human-readable table, the bench measures the per-session
context payload — the scorer pickled whole against the skeleton
``session()`` actually pickles once its arrays are published to shared
memory — and writes the whole result as ``BENCH_engine_parallel.json``
at the repo root, so the perf trajectory is tracked commit over commit.
Target: the shared payload is >= 5x smaller. Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_engine_parallel.py
"""

import json
import os
import pickle
from pathlib import Path

from bench_schema import envelope
from repro.datasets.synthetic import make_synthetic
from repro.engine.executor import resolve_executor
from repro.engine.shm import ArrayStore, publish
from repro.model.background import BackgroundModel
from repro.report.tables import format_table
from repro.search.beam import LocationICScorer
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.utils.timer import Stopwatch

#: Worker counts; workers=1 is the serial reference.
RUNS = (1, 2, 4)

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine_parallel.json"


def _payload_sizes(dataset) -> dict:
    """Pickled context bytes per session: whole scorer vs published skeleton."""
    model = BackgroundModel.from_targets(dataset.targets)
    scorer = LocationICScorer(model, dataset.targets)
    copied = len(pickle.dumps(scorer, protocol=pickle.HIGHEST_PROTOCOL))
    with ArrayStore() as store:
        shared = len(
            pickle.dumps(publish(scorer, store), protocol=pickle.HIGHEST_PROTOCOL)
        )
    return {
        "copied_bytes": copied,
        "shared_bytes": shared,
        "reduction_factor": round(copied / shared, 2),
    }


def measure(seed: int = 0):
    dataset = make_synthetic(seed, n_background=8000, cluster_size=640)
    config = SearchConfig()  # paper defaults: beam 40, depth 4

    payload = _payload_sizes(dataset)
    assert payload["shared_bytes"] * 5 <= payload["copied_bytes"], (
        "publishing to shared memory must shrink the per-session context "
        f"payload at least 5x, got {payload}"
    )

    rows = []
    runs_document = []
    reference = None
    serial_elapsed = None
    for workers in RUNS:
        executor = resolve_executor(workers)
        miner = SubgroupDiscovery(dataset, config=config, seed=seed, executor=executor)
        watch = Stopwatch()
        with watch:
            result = miner.search_locations()
        executor.close()
        # A coarse clock (or a trivially small run) can report ~0 elapsed;
        # floor it so the speedup/throughput divisions below stay finite.
        elapsed = max(watch.elapsed, 1e-9)
        if reference is None:
            reference = result
            serial_elapsed = elapsed
        else:
            # Parallelism must not change what gets mined — bit for bit,
            # regardless of worker count.
            assert len(result.log) == len(reference.log)
            assert result.best.description == reference.best.description
            assert result.best.score.ic == reference.best.score.ic
        rows.append((str(workers), watch.elapsed, serial_elapsed / elapsed))
        runs_document.append(
            {
                "workers": workers,
                "seconds": round(watch.elapsed, 4),
                "speedup_vs_serial": round(serial_elapsed / elapsed, 4),
                # Throughput, the scheduler-facing number: how many beam
                # candidates this backend scored per wall-clock second.
                "candidates": result.n_evaluated,
                "candidates_per_sec": round(result.n_evaluated / elapsed, 1),
            }
        )

    JSON_PATH.write_text(
        json.dumps(
            envelope({
                "benchmark": "engine_parallel",
                "dataset": {
                    "name": "synthetic-x16",
                    "seed": seed,
                    "n_rows": dataset.n_rows,
                    "n_targets": dataset.n_targets,
                },
                "cpu_count": os.cpu_count(),
                "context_payload": payload,
                "runs": runs_document,
            }),
            indent=2,
        )
        + "\n"
    )
    return rows


def bench_engine_parallel(benchmark, save_result):
    rows = benchmark.pedantic(measure, args=(0,), rounds=1, iterations=1)
    table = format_table(
        ["workers", "beam search (s)", "speedup vs serial"],
        rows,
        floatfmt=".4f",
        title=(
            "Engine: parallel beam search on synthetic x16 "
            f"({os.cpu_count()} core(s) available)"
        ),
    )
    save_result("engine_parallel", table)
    assert len(rows) == len(RUNS)
    assert JSON_PATH.exists()


if __name__ == "__main__":  # pragma: no cover - manual/CI entry point
    for row in measure(0):
        print(row)
    print(f"wrote {JSON_PATH}")
