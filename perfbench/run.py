"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crime-location --seed 0 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md``): ``crime-location``,
``mammals-spread``, ``served-sessions``. With ``--trace 0`` the run is
timed with no wrappers installed and reports the end-to-end metrics
listed in ``BENCHMARK.json``, its timings in reference-core seconds
(``perfbench/speed.py``) with the wall seconds printed beside them;
with ``--trace 1`` it reports the per-layer metrics from a separate
traced run. Either way it checks what was mined and ends with one JSON
line::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed, and 2
when the run could not start (for instance without ``src/repro``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads, fixed before numpy is first imported (here and in the
#: server processes, which inherit the environment).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("crime-location", "mammals-spread", "served-sessions")


def _git_rev() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over ``src/``'s Python files: the code identity without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measuring time of an inline run (jobs repeat "
                        "until it has passed); the served plan is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny search settings and session plan (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    toy = args.scale == "toy"
    if args.workload == "served-sessions":
        outcome = workloads.run_served(args.seed, toy, bool(args.trace))
    else:
        outcome = workloads.run_inline(
            args.workload, args.seed, args.seconds, toy, bool(args.trace)
        )

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: workload reported no value for {missing}", file=sys.stderr)
        return 2
    stamp = provenance(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    for metric in wanted:
        print(f"  {metric['name']:<32} {outcome.metrics[metric['name']]:>16.6f} {metric['unit']}")
    for name, value in outcome.wall.items():
        print(f"  wall {name:<27} {value:>16.6f}")
    for name, reason in outcome.notes.items():
        print(f"  note {name}: {reason}")
    for name, ok, detail in outcome.checks:
        print(f"check {name:<26} {'ok' if ok else 'FAILED'}  {detail}")
    for claim, holds in outcome.predictions:
        print(f"prediction {'holds' if holds else 'does NOT hold'}: {claim}")
    correct = all(ok for _, ok, _ in outcome.checks) and outcome.failed == 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    (workloads.OUT / f"{tag}.json").write_text(json.dumps({
        "provenance": stamp,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "wall": outcome.wall,
        "checks": outcome.checks,
        "notes": outcome.notes,
        "predictions": outcome.predictions,
        "detail": outcome.detail,
    }, indent=1, default=str))
    if outcome.spans:
        with open(workloads.OUT / f"{tag}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in outcome.spans:
                handle.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
