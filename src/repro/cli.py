"""Command-line interface: ``sisd`` (or ``python -m repro``).

Subcommands:

- ``sisd datasets`` — list the available datasets with their shapes.
- ``sisd mine DATASET`` — run mining and print each pattern as it is
  mined. The flags are a thin builder for a declarative
  :class:`~repro.spec.MiningSpec`; ``--spec FILE`` runs a saved spec
  instead, and ``--save-spec FILE`` writes the built spec without
  mining (so any flag combination can become a reusable file).
- ``sisd batch JOBS.json`` — run a batch of declarative mining jobs
  concurrently over a worker pool.
- ``sisd serve`` — put the mining service on the network: JSON
  endpoints for submit/status/result/cancel plus a Server-Sent-Events
  stream (see :mod:`repro.server`); pair with
  :class:`repro.client.RemoteWorkspace` or plain ``curl``.
- ``sisd worker`` — run one compute node of the distributed tier: a
  daemon executing search shards shipped by a coordinator's
  :class:`repro.dist.DistExecutor` (see :mod:`repro.dist`).
- ``sisd top URL`` — live ASCII dashboard over the ``GET /metrics``
  endpoint of a server or a worker daemon.
- ``sisd lint`` — statically check the repo's contract invariants
  (determinism, asyncio hygiene, pickle boundaries, resource safety;
  see :mod:`repro.analysis`). ``--json`` for CI, ``--explain RULE`` for
  the rationale, ``--changed`` for a sub-second pre-commit pass.
- ``sisd experiment NAME`` — reproduce one of the paper's tables/figures.
- ``sisd experiments`` — list the reproducible experiments.

Every mining path routes through :class:`repro.api.Workspace`, so the
CLI, the library, and the service execute one spec identically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro import experiments
from repro.api import Workspace
from repro.datasets import available_datasets, load_dataset
from repro.engine.jobs import JobResult, run_jobs
from repro.errors import ReproError
from repro.persist import (
    job_result_to_dict,
    job_to_dict,
    load_jobs,
    load_spec,
    save_json,
    save_spec,
)
from repro.report.live import LiveReporter
from repro.spec import JOB_KINDS, JOB_STRATEGIES, MiningSpec
from repro.version import __version__

#: Experiment name -> zero-config runner returning an object with .format().
EXPERIMENTS: dict[str, Callable[[int], object]] = {
    "fig1": experiments.run_fig1,
    "fig2": experiments.run_fig2,
    "fig3": experiments.run_fig3,
    "fig4": experiments.run_fig4,
    "fig5": experiments.run_fig5,
    "fig6": experiments.run_fig6,
    "fig7": experiments.run_fig7,
    "fig8": experiments.run_fig8,
    "fig9": experiments.run_fig9,
    "fig10": experiments.run_fig10,
    "table1": experiments.run_table1,
    "table2": experiments.run_table2,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sisd",
        description=(
            "Subjectively Interesting Subgroup Discovery on real-valued "
            "targets (ICDE 2018 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"sisd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available datasets")

    # Every mining flag defaults to None ("not passed") so that flags
    # layered over --spec are distinguishable from parser defaults; the
    # real defaults live in MiningSpec's sections.
    mine = sub.add_parser("mine", help="run iterative subgroup discovery")
    mine.add_argument("dataset", nargs="?", choices=available_datasets())
    mine.add_argument(
        "--seed", type=int, default=None, help="dataset/search seed (default 0)"
    )
    mine.add_argument(
        "--iterations", type=int, default=None,
        help="mining iterations (default: 3 for beam, 1 for single-shot "
        "strategies)",
    )
    mine.add_argument(
        "--kind", choices=JOB_KINDS, default=None,
        help="pattern type per iteration (spread = the two-step process; "
        "default location)",
    )
    mine.add_argument(
        "--targets", nargs="+", default=None, metavar="NAME",
        help="restrict the modeled target attributes (branch_bound needs "
        "exactly one on multi-target datasets)",
    )
    mine.add_argument(
        "--strategy", choices=JOB_STRATEGIES, default=None,
        help="search strategy (default beam)",
    )
    mine.add_argument(
        "--measure", default=None,
        help="interestingness measure (default 'si'; a classical measure "
        "for --strategy quality_beam)",
    )
    mine.add_argument(
        "--beam-width", type=int, default=None, help="beam width (default 40)"
    )
    mine.add_argument(
        "--depth", type=int, default=None, help="max conditions (default 4)"
    )
    mine.add_argument(
        "--gamma", type=float, default=None,
        help="DL weight per condition (default 0.1)",
    )
    mine.add_argument(
        "--time-budget", type=float, default=None,
        help="wall-clock budget per beam search, in seconds",
    )
    mine.add_argument(
        "--sparsity", type=int, default=None,
        help="restrict spread directions to this many coordinates (2 only)",
    )
    mine.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the search itself (default 1 = serial)",
    )
    mine.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        default=None, dest="start_method",
        help="multiprocessing start method of the search's worker pool "
        "(default: platform default)",
    )
    mine.add_argument(
        "--priority", type=int, default=None,
        help="service scheduling priority of the spec (higher dispatches "
        "first; only observed when the spec is submitted to a service — "
        "inline mining runs immediately)",
    )
    mine.add_argument(
        "--deadline", type=float, default=None,
        help="queue-time budget in seconds: a spec submitted to a service "
        "expires instead of starting once this elapses (inline mining "
        "runs immediately and never expires)",
    )
    mine.add_argument(
        "--spec", default=None, metavar="FILE",
        help="run a saved MiningSpec JSON instead of building one from flags "
        "(other mine flags override the loaded spec's fields)",
    )
    mine.add_argument(
        "--save-spec", default=None, metavar="FILE",
        help="write the spec these flags describe and exit without mining",
    )

    batch = sub.add_parser("batch", help="run a batch of mining jobs from JSON")
    batch.add_argument("jobs_file", help="JSON file with a 'jobs' list of specs")
    batch.add_argument(
        "--workers", type=int, default=1,
        help="worker processes running jobs concurrently (1 = serial)",
    )
    batch.add_argument(
        "--output", default=None,
        help="also write the results as JSON to this path",
    )

    serve = sub.add_parser(
        "serve", help="serve the mining engine over HTTP (JSON + SSE)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (default 8765; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="jobs running at once (the service's worker slots); on the "
        "thread backend they take turns at mining, one step at a time",
    )
    serve.add_argument(
        "--backend", choices=("thread", "process", "serial"), default="thread",
        help="service pool backend (default thread; thread streams "
        "candidate/iteration events live, process replays them at "
        "completion)",
    )
    serve.add_argument(
        "--no-candidates", action="store_true",
        help="omit candidate summaries from the stream (they are the "
        "chattiest part: at paper settings tens per beam level on "
        "synthetic, about 38,000 on crime)",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="no per-event server log lines on stdout",
    )
    serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="durable job-store directory: terminal results survive "
        "restarts bit-identically, queued jobs are re-enqueued in "
        "order, and warm belief prefixes spill to disk",
    )

    worker = sub.add_parser(
        "worker", help="run a distributed-mining worker daemon"
    )
    worker.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    worker.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = pick a free port and announce it)",
    )
    worker.add_argument(
        "--parallel", type=int, default=2,
        help="shards executed concurrently on this node (default 2)",
    )

    top = sub.add_parser(
        "top", help="live ASCII dashboard over a /metrics endpoint"
    )
    top.add_argument(
        "url", help="base URL of a sisd server or worker"
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh cadence in seconds (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (scripts, tests)",
    )

    lint = sub.add_parser(
        "lint",
        help="statically check determinism/asyncio/pickle/resource contracts",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    sub.add_parser("experiments", help="list reproducible tables/figures")

    exp = sub.add_parser("experiment", help="reproduce a paper table/figure")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_datasets() -> int:
    for name in available_datasets():
        dataset = load_dataset(name, seed=0)
        print(
            f"{name:10s} n={dataset.n_rows:5d}  "
            f"d_x={dataset.n_descriptions:4d}  d_y={dataset.n_targets:4d}"
        )
    return 0


def _flat_spec_kwargs(args: argparse.Namespace) -> dict:
    """The mine flags that were actually passed, as spec keywords.

    ``--seed`` seeds both the dataset generator and the search.
    """
    flat = {
        "dataset_seed": args.seed,
        "seed": args.seed,
        "strategy": args.strategy,
        "measure": args.measure,
        "kind": args.kind,
        "n_iterations": args.iterations,
        "sparsity": args.sparsity,
        "targets": args.targets,
        "beam_width": args.beam_width,
        "max_depth": args.depth,
        "gamma": args.gamma,
        "time_budget_seconds": args.time_budget,
        "workers": args.workers,
        "start_method": args.start_method,
        "priority": args.priority,
        "deadline": args.deadline,
    }
    return {key: value for key, value in flat.items() if value is not None}


def _spec_from_args(args: argparse.Namespace) -> MiningSpec:
    """The thin spec builder behind ``sisd mine``'s flags.

    Only *unset* flags get defaults (``MiningSpec``'s section defaults,
    plus 3 iterations for beam / 1 for the single-shot strategies);
    explicitly contradictory combinations (``--strategy branch_bound
    --iterations 5``) flow into the spec and are rejected by its
    validation, never silently ignored.
    """
    kwargs = _flat_spec_kwargs(args)
    if "n_iterations" not in kwargs:
        strategy = kwargs.get("strategy", "beam")
        kwargs["n_iterations"] = 3 if strategy == "beam" else 1
    return MiningSpec.build(args.dataset, **kwargs)


def _apply_flag_overrides(spec: MiningSpec, args: argparse.Namespace) -> MiningSpec:
    """Layer explicitly passed mine flags over a loaded spec file.

    Every mining flag defaults to ``None`` in the parser, so any flag
    the user actually typed — including one spelling out a library
    default, like ``--strategy beam`` over a quality_beam spec — wins
    over the file.
    """
    overrides = _flat_spec_kwargs(args)
    return spec.with_changes(**overrides) if overrides else spec


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.spec is not None and args.dataset is not None:
        raise ReproError("pass either a dataset or --spec, not both")
    if args.spec is not None:
        try:
            spec = load_spec(args.spec)
        except (OSError, ValueError, ReproError) as exc:
            raise ReproError(f"cannot read {args.spec}: {exc}") from exc
        spec = _apply_flag_overrides(spec, args)
    elif args.dataset is not None:
        spec = _spec_from_args(args)
    else:
        raise ReproError("pass a dataset name or --spec FILE")
    if args.save_spec is not None:
        try:
            save_spec(spec, args.save_spec)
        except OSError as exc:
            raise ReproError(f"cannot write {args.save_spec}: {exc}") from exc
        print(f"spec written to {args.save_spec}")
        return 0
    # The reporter prints each iteration as it is yielded rather than
    # being attached as an observer: any attached observer makes the
    # beam build every scored candidate, and this one would drop them.
    reporter = LiveReporter()
    for iteration in Workspace().stream(spec):
        reporter.on_iteration(iteration)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        jobs = load_jobs(args.jobs_file)
    except (OSError, ValueError, ReproError) as exc:  # ValueError: JSONDecodeError
        raise ReproError(f"cannot read {args.jobs_file}: {exc}") from exc
    outcomes = run_jobs(jobs, workers=args.workers, return_failures=True)
    done = [o for o in outcomes if isinstance(o, JobResult)]
    failed = [o for o in outcomes if not isinstance(o, JobResult)]
    for outcome in outcomes:
        print(outcome.format())
    total = sum(result.elapsed_seconds for result in done)
    print(
        f"{len(done)} job(s) done, {len(failed)} failed, "
        f"{total:.2f}s of mining time"
    )
    if args.output is not None:
        document = {
            "results": [job_result_to_dict(r) for r in done],
            "failures": [
                {"job": job_to_dict(f.job), "error": f.error} for f in failed
            ],
        }
        try:
            save_json(document, args.output)
        except OSError as exc:
            raise ReproError(f"cannot write {args.output}: {exc}") from exc
        print(f"results written to {args.output}")
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import MiningServer

    server = MiningServer(
        host=args.host,
        port=args.port,
        backend=args.backend,
        max_workers=args.workers,
        observer=None if args.quiet else LiveReporter(),
        candidate_events=not args.no_candidates,
        store=args.store,
    )

    def announce(bound: MiningServer) -> None:
        extras = f", store={args.store}" if args.store else ""
        print(
            f"sisd server listening on {bound.url}  "
            f"(backend={args.backend}, workers={args.workers}{extras}; "
            f"Ctrl-C stops)",
            flush=True,
        )

    server.run(announce=announce)
    print("sisd server stopped")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist.worker import WorkerDaemon

    daemon = WorkerDaemon(
        host=args.host,
        port=args.port,
        parallelism=args.parallel,
    )

    def announce(bound: WorkerDaemon) -> None:
        print(
            f"sisd worker listening on {bound.url}  "
            f"(parallel={args.parallel}; Ctrl-C stops)",
            flush=True,
        )

    daemon.run(announce=announce)
    print("sisd worker stopped")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.console import render_dashboard, scrape

    if args.once:
        print(render_dashboard(scrape(args.url), source=args.url))
        return 0
    import time as _time  # live-poll cadence only; nothing measured

    try:
        while True:
            frame = render_dashboard(scrape(args.url), source=args.url)
            # ANSI clear + home keeps the frame in place like top(1).
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
            _time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = EXPERIMENTS[args.name](args.seed)
    print(result.format())
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "experiments":
            for name in sorted(EXPERIMENTS):
                print(name)
            return 0
        if args.command == "mine":
            return _cmd_mine(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "lint":
            from repro.analysis.cli import run_lint

            return run_lint(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
