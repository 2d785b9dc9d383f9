"""Running mining specs: one run path from spec to iterations.

A :class:`~repro.spec.MiningSpec` is the *what* of a mining run —
dataset reference, target selection, prior, search configuration,
iteration count — with no execution state, so it round-trips through
JSON (``repro.persist``) and fingerprints stably for caching. This
module is the one place a spec becomes a dataset
(:func:`load_spec_dataset`), an executor (:func:`job_executor`), a miner
(:func:`build_miner`) and a sequence of iterations (:func:`iterate_job`),
and every entry point — Workspace, service, server, CLI — runs
specs through it, so one spec mines the same patterns everywhere. A
service whose jobs mine in its own threads makes them take turns one
step at a time through a :class:`MiningTurn`.
:func:`run_job` is :func:`iterate_job` collected and timed;
:func:`run_jobs` fans a batch of specs out over an
:class:`~repro.engine.executor.Executor` and returns results in
submission order, which makes parameter sweeps and per-target fan-outs
(many datasets × many configs) one call.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.datasets.schema import Dataset
from repro.engine.cache import BeliefCache, load_dataset_cached
from repro.engine.executor import Executor, SerialExecutor, resolve_executor
from repro.errors import EngineError, SearchError
from repro.events import MiningObserver
from repro.obs import clock
from repro.obs.instruments import MINING_TURN_WAIT
from repro.obs.trace import TRACER, TraceContext, activate, current
from repro.search.miner import SubgroupDiscovery
from repro.search.results import LocationPatternResult, MiningIteration
from repro.spec import MiningSpec


@dataclass(frozen=True)
class JobResult:
    """What one job mined, plus how long it took."""

    job: MiningSpec
    iterations: tuple[MiningIteration, ...]
    elapsed_seconds: float

    def format(self) -> str:
        """Human-readable per-job report, one pattern per line."""
        lines = [
            f"[{self.job.label}] {self.job.dataset.name} "
            f"×{self.job.search.n_iterations} ({self.elapsed_seconds:.2f}s)"
        ]
        for iteration in self.iterations:
            lines.append(f"  {iteration.index}. {iteration.location}")
            if iteration.spread is not None:
                lines.append(f"     {iteration.spread}")
        return "\n".join(lines)


@dataclass(frozen=True)
class JobFailure:
    """A job that raised instead of mining (``run_jobs`` isolation)."""

    job: MiningSpec
    error: str

    def format(self) -> str:
        """Human-readable one-line failure report."""
        return f"[{self.job.label}] FAILED: {self.error}"


class MiningTurn:
    """One service's turn at mining, taken in arrival order.

    The jobs a service mines in its own threads share one GIL, so two of
    them mining at once each run slower than one alone. With a turn they
    mine one at a time instead: ``with turn:`` waits behind every earlier
    waiter, and leaving the block hands the turn to the longest waiter.
    :func:`iterate_job` holds it for one step at a time, so a job waits
    at most one step of each job ahead of it. Each turn taken is observed
    in ``sisd_mining_turn_wait_seconds``, and a wait as a ``turn.wait``
    span on the current trace.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held = False
        self._waiters: deque[threading.Event] = deque()

    def __enter__(self) -> "MiningTurn":
        with self._lock:
            waiter = None
            if self._held:
                waiter = threading.Event()
                self._waiters.append(waiter)
            self._held = True
        if waiter is None:
            MINING_TURN_WAIT.observe(0.0)
            return self
        started = clock.perf_counter()
        waiter.wait()  # set by a leaving holder, which hands the turn over
        ended = clock.perf_counter()
        MINING_TURN_WAIT.observe(ended - started)
        TRACER.record("turn.wait", started, ended, current())
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._waiters:
                self._waiters.popleft().set()
            else:
                self._held = False


def load_spec_dataset(spec: MiningSpec) -> Dataset:
    """The spec's dataset: the shared cached load, weighted and narrowed as copies."""
    source = spec.dataset
    dataset = load_dataset_cached(source.name, seed=source.seed, **source.kwargs)
    if source.weights is not None:
        if len(source.weights) != dataset.n_rows:
            raise EngineError(
                f"job carries {len(source.weights)} weights but dataset "
                f"{source.name!r} has {dataset.n_rows} rows"
            )
        dataset = dataset.with_weights(np.asarray(source.weights, dtype=float))
    if source.targets is not None:
        dataset = dataset.with_targets(list(source.targets))
    return dataset


def job_executor(spec: MiningSpec, *, dist_workers=None) -> Executor:
    """The executor a spec's executor section describes; the caller closes it.

    ``dist_workers`` (worker-daemon URLs) replace it with a DistExecutor.
    """
    section = spec.executor
    return resolve_executor(
        section.workers, start_method=section.start_method, dist_workers=dist_workers
    )


def miner_settings(spec: MiningSpec) -> dict:
    """The iterative miner's spec-derived settings: prior, config, DL, seed.

    Shared by :func:`build_miner` and :meth:`repro.api.Workspace.session`;
    only the ``"beam"`` strategy mines iteratively, the others raise.
    """
    if spec.search.strategy != "beam":
        raise SearchError(
            f"only the 'beam' strategy mines iteratively; "
            f"{spec.search.strategy!r} runs via Workspace.mine/submit"
        )
    return {
        "prior": spec.build_prior(),
        "config": spec.search_config(),
        "dl_params": spec.dl_params(),
        "seed": spec.search.seed,
    }


def build_miner(
    spec: MiningSpec,
    *,
    executor: Executor | None = None,
    observer: MiningObserver | None = None,
    belief_cache: BeliefCache | None = None,
) -> SubgroupDiscovery:
    """The iterative miner a beam-strategy spec describes.

    ``executor=None`` means the spec's own; the caller closes ``miner.executor``.
    """
    settings = miner_settings(spec)
    return SubgroupDiscovery(
        load_spec_dataset(spec),
        executor=executor if executor is not None else job_executor(spec),
        observer=observer,
        belief_cache=belief_cache,
        **settings,
    )


def _single_shot_iteration(job: MiningSpec, dataset: Dataset) -> MiningIteration:
    """Run a non-iterative strategy; one location pattern, index 1.

    ``branch_bound`` returns the provably optimal location pattern of a
    single target (already SI-scored); ``quality_beam`` mines with a
    classical :data:`repro.registry.MEASURES` measure, then scores the
    winner's SI under a fresh empirical model so its result record is
    comparable with the subjective strategies (the setup of the paper's
    §IV comparison).
    """
    from repro.registry import MEASURES

    config = job.search_config()
    if job.search.strategy == "branch_bound":
        from repro.search.branch_bound import find_optimal_location

        if dataset.n_targets != 1:
            raise EngineError(
                f"branch_bound needs exactly one target attribute; "
                f"{job.dataset.name!r} has {dataset.n_targets} "
                f"({', '.join(dataset.target_names)}) — select one via "
                f"targets=('name',) (the spec's dataset section, or "
                f"--targets on the CLI)"
            )
        result = find_optimal_location(
            dataset, config=config, dl_params=job.dl_params()
        )
        best = result.best
        if best is None:
            raise EngineError(
                "branch-and-bound found no admissible subgroup; relax "
                "min_coverage or max_coverage_fraction"
            )
        observed = best.observed_mean
        score = best.score
    else:  # quality_beam
        from repro.baselines.beam import QualityBeamSearch
        from repro.interest.si import score_location
        from repro.lang.refinement import RefinementOperator
        from repro.model.background import BackgroundModel

        operator = RefinementOperator(
            dataset,
            n_split_points=config.n_split_points,
            strategy=config.split_strategy,
            attributes=config.attributes,
        )
        measure = job.interest.measure
        quality = MEASURES.get(measure)(dataset.targets)
        search = QualityBeamSearch(operator, quality, config=config)
        outcome = search.run()
        best = outcome.best
        if best is None:
            raise EngineError(
                f"quality beam ({measure}) found no admissible subgroup"
            )
        mask = np.zeros(dataset.n_rows, dtype=bool)
        mask[best.indices] = True
        observed = dataset.targets[mask].mean(axis=0)
        score = score_location(
            BackgroundModel.from_targets(dataset.targets),
            mask,
            observed,
            len(best.description),
            params=job.dl_params(),
        )
    location = LocationPatternResult(
        description=best.description,
        indices=best.indices,
        mean=observed,
        score=score,
        coverage=best.indices.shape[0] / dataset.n_rows,
    )
    return MiningIteration(index=1, location=location)


def iterate_job(
    job: MiningSpec,
    *,
    executor: Executor | None = None,
    observer: MiningObserver | None = None,
    belief_cache: BeliefCache | None = None,
    turn: MiningTurn | None = None,
) -> Iterator[MiningIteration]:
    """Mine one job, yielding each iteration the moment it is mined.

    ``executor`` parallelizes *inside* the job (beam levels, spread
    restarts). ``None`` means the spec's own executor section, closed
    when the loop ends or the caller abandons the generator; one passed
    in is left to its owner. ``observer`` receives candidate/iteration
    events live; ``belief_cache`` lets the loop replay belief-state
    prefixes it shares with earlier runs (see
    :class:`~repro.engine.cache.BeliefCache`). The single-shot
    strategies are sequential, have no belief state, ignore both, and
    yield one iteration.

    ``turn`` is the :class:`MiningTurn` of a service whose jobs mine in
    its own threads. The job takes it before it builds its miner and
    holds it through each step (observer callbacks included); between
    steps it queues behind any job waiting for it, and it lets go after
    the last step, on an error, or when the generator is closed. A beam
    job whose executor is not serial mines in other processes and skips
    the turn; a single-shot strategy holds it for its one iteration.
    """
    search = job.search
    held = turn if turn is not None else contextlib.nullcontext()
    if search.strategy != "beam":
        with held:
            iteration = _single_shot_iteration(job, load_spec_dataset(job))
            if observer is not None:
                observer.on_iteration(iteration)
        yield iteration
        return
    owned = executor is None
    if owned:
        executor = job_executor(job)
    if not isinstance(executor, SerialExecutor):
        held = contextlib.nullcontext()
    miner = None
    try:
        for _ in range(search.n_iterations):
            with held:
                if miner is None:
                    miner = build_miner(
                        job,
                        executor=executor,
                        observer=observer,
                        belief_cache=belief_cache,
                    )
                iteration = miner.step(kind=search.kind, sparsity=search.sparsity)
            yield iteration
    finally:
        if owned:
            # A parallel executor holds a warm worker pool; release it
            # now, not at garbage collection.
            executor.close()


def run_job(
    job: MiningSpec,
    *,
    executor: Executor | None = None,
    observer: MiningObserver | None = None,
    belief_cache: BeliefCache | None = None,
    turn: MiningTurn | None = None,
) -> JobResult:
    """:func:`iterate_job` (same parameters), collected and timed."""
    started = clock.perf_counter()
    iterations = tuple(
        iterate_job(
            job,
            executor=executor,
            observer=observer,
            belief_cache=belief_cache,
            turn=turn,
        )
    )
    return JobResult(job, iterations, clock.perf_counter() - started)


def _run_job_task(job: MiningSpec) -> JobResult:
    """Module-level batch-job entry point, so process pools can import it."""
    return run_job(job, executor=SerialExecutor())


def run_job_with_workers(
    job: MiningSpec,
    *,
    belief_cache: BeliefCache | None = None,
    observer: MiningObserver | None = None,
    belief_handle=None,
    trace=None,
    dist_workers=None,
    turn: MiningTurn | None = None,
) -> JobResult:
    """:func:`run_job` the way every service backend runs a job.

    Module-level and picklable, so a service pool honors the spec's
    executor section inside its worker processes too (nested pools are
    legal; the determinism contract keeps the results identical at any
    count); the executor is closed when the job ends. ``belief_cache``
    and ``observer`` are in-process state, passed by the thread/serial
    backends (observer callbacks then fire from the worker thread); the
    process backend can instead ship a picklable ``belief_handle``
    (:meth:`repro.engine.cache.BeliefCache.handle`) that each worker
    process resolves into its own cache over the shared on-disk spill.
    ``trace`` is an optional
    :class:`~repro.obs.trace.TraceContext` (or its wire-dict form),
    activated for the run so engine phase spans attach to the
    submitting job's trace; it never reaches the miner's inputs.
    ``dist_workers`` (worker-daemon URLs) routes the run through a
    :class:`~repro.dist.DistExecutor` instead of the spec's local
    executor, so the job's trace extends across the remote shards.
    ``turn`` is the thread backend's :class:`MiningTurn`, which a job
    on a serial executor takes step by step (see :func:`iterate_job`).
    """
    if belief_cache is None and belief_handle is not None:
        belief_cache = belief_handle.resolve()
    ctx = trace if isinstance(trace, TraceContext) else TraceContext.from_wire(trace)
    executor = job_executor(job, dist_workers=dist_workers)
    scope = activate(ctx) if ctx is not None else contextlib.nullcontext()
    try:
        with scope:
            return run_job(
                job,
                executor=executor,
                belief_cache=belief_cache,
                observer=observer,
                turn=turn,
            )
    finally:
        executor.close()


def _run_job_isolated(job: MiningSpec) -> JobResult | JobFailure:
    """Like :func:`_run_job_task`, but a raising job becomes a record."""
    try:
        return _run_job_task(job)
    except Exception as exc:
        return JobFailure(job=job, error=f"{type(exc).__name__}: {exc}")


def run_jobs(
    jobs: Iterable[MiningSpec],
    *,
    workers: int | None = None,
    executor: Executor | None = None,
    return_failures: bool = False,
) -> list:
    """Run a batch of jobs, returning results in submission order.

    Jobs are independent, so execution order is irrelevant to the output:
    the same batch produces the same patterns at any worker count. Pass
    either a ``workers`` count or an explicit ``executor``; the jobs
    themselves run serial, whatever their specs' executor sections say.

    By default the first failing job raises and the batch's other
    results are lost; with ``return_failures=True`` each failing job
    yields a :class:`JobFailure` in its slot instead, so one bad spec
    cannot discard forty good results.
    """
    batch: Sequence[MiningSpec] = list(jobs)
    for job in batch:
        if not isinstance(job, MiningSpec):
            raise EngineError(f"expected MiningSpec, got {type(job).__name__}")
    if not batch:
        return []
    task = _run_job_isolated if return_failures else _run_job_task
    owned = executor is None
    if owned:
        executor = resolve_executor(workers)
    try:
        if executor.parallelism <= 1:
            # Serial path shares one dataset cache across the whole batch.
            return [task(job) for job in batch]
        return executor.map(task, batch)
    finally:
        if owned:
            # A warm pool would otherwise live until garbage collection.
            executor.close()
