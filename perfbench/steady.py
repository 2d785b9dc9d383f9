"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steady.py --workloads crime-location,served-sessions --seeds 1-10
    python3 perfbench/steady.py --compare OUT_A.json OUT_B.json

For each workload and end-to-end metric it prints the median of the
runs, the quartile spread ``(q3 - q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and that spread as a
share of the metric's bound in ``BENCHMARK.json``. ``--compare`` takes
two saved sets of runs and prints how far the second medians moved from
the first, as a share of the bound. Raw results are saved under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(workloads: list[str], seeds: list[int], trace: int) -> dict:
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            elapsed = time.perf_counter() - start
            line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            row = json.loads(line) if line.startswith("{") else {}
            row.update(seed=seed, exit=done.returncode, elapsed_s=elapsed)
            results[workload].append(row)
            print(f"{workload:<16} seed {seed:<3} exit {done.returncode} "
                  f"correct {row.get('correct')} {elapsed:6.1f} s", flush=True)
    return results


def summarize(results: dict) -> dict:
    summary = {}
    for workload, rows in results.items():
        metrics = {}
        for name in rows[0].get("metrics", {}):
            values = [r["metrics"][name]["value"] for r in rows if "metrics" in r]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[name] = {"median": median, "spread": (q3 - q1) / median}
        summary[workload] = metrics
        print(f"\n{workload}: {len(rows)} runs, max elapsed "
              f"{max(r['elapsed_s'] for r in rows):.1f} s")
        for name, stats in metrics.items():
            bound = BOUNDS.get(name, {}).get("bound")
            share = f"{stats['spread'] / bound:5.2f} of bound" if bound else ""
            print(f"  {name:<20} median {stats['median']:12.6f}  spread "
                  f"{stats['spread']:7.2%}  {share}")
    return summary


def compare(first: dict, second: dict) -> None:
    for workload in first:
        print(f"\n{workload}")
        for name, stats in first[workload].items():
            other = second[workload][name]["median"]
            m = BOUNDS[name]
            worse = (other - stats["median"]) / stats["median"]
            if m["better"] == "higher":
                worse = -worse
            print(f"  {name:<20} {stats['median']:12.6f} -> {other:12.6f}  "
                  f"worse by {worse:7.2%} ({worse / m['bound']:5.2f} of bound)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text())["summary"] for p in args.compare)
        compare(first, second)
        return 0
    results = run_set(args.workloads.split(","), _seeds(args.seeds), args.trace)
    summary = summarize(results)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"results": results, "summary": summary}, indent=1))
    print(f"\nsaved {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
