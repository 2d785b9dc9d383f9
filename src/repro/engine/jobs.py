"""Running mining specs: one job, or a deterministic batch of them.

A :class:`~repro.spec.MiningSpec` is the *what* of a mining run —
dataset reference, target selection, prior, search configuration,
iteration count — with no execution state, so it round-trips through
JSON (``repro.persist``) and fingerprints stably for caching.
:func:`run_job` is the *how* of one spec; :func:`run_jobs` fans a batch
of specs out over an :class:`~repro.engine.executor.Executor` and
returns results in submission order, which makes parameter sweeps and
per-target fan-outs (many datasets × many configs) one call.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import uuid
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.engine.cache import BeliefCache, LRUCache, load_dataset_cached
from repro.engine.executor import Executor, SerialExecutor, resolve_executor
from repro.errors import EngineError, JobPreempted
from repro.events import MiningObserver
from repro.obs import clock
from repro.obs.trace import TraceContext, activate
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


def _single_shot_iteration(job: MiningSpec, dataset) -> MiningIteration:
    """Run a non-iterative strategy; one location pattern, index 1.

    ``branch_bound`` returns the provably optimal location pattern of a
    single target (already SI-scored); ``quality_beam`` mines with a
    classical :data:`repro.registry.MEASURES` measure, then scores the
    winner's SI under a fresh empirical model so its result record is
    comparable with the subjective strategies (the setup of the paper's
    §IV comparison).
    """
    from repro.registry import MEASURES

    targets = job.dataset.targets
    config = job.search_config()
    narrowed = dataset.with_targets(list(targets)) if targets is not None else dataset
    if job.search.strategy == "branch_bound":
        from repro.search.branch_bound import find_optimal_location

        if narrowed.n_targets != 1:
            raise EngineError(
                f"branch_bound needs exactly one target attribute; "
                f"{job.dataset.name!r} has {narrowed.n_targets} "
                f"({', '.join(narrowed.target_names)}) — select one via "
                f"targets=('name',) (the spec's dataset section, or "
                f"--targets on the CLI)"
            )
        result = find_optimal_location(
            narrowed, config=config, dl_params=job.dl_params()
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
            narrowed,
            n_split_points=config.n_split_points,
            strategy=config.split_strategy,
            attributes=config.attributes,
        )
        measure = job.interest.measure
        quality = MEASURES.get(measure)(narrowed.targets)
        search = QualityBeamSearch(operator, quality, config=config)
        outcome = search.run()
        best = outcome.best
        if best is None:
            raise EngineError(
                f"quality beam ({measure}) found no admissible subgroup"
            )
        mask = np.zeros(narrowed.n_rows, dtype=bool)
        mask[best.indices] = True
        observed = narrowed.targets[mask].mean(axis=0)
        score = score_location(
            BackgroundModel.from_targets(narrowed.targets),
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
        coverage=best.indices.shape[0] / narrowed.n_rows,
    )
    return MiningIteration(index=1, location=location)


def run_job(
    job: MiningSpec,
    *,
    executor: Executor | None = None,
    dataset_cache: LRUCache | None = None,
    observer: MiningObserver | None = None,
    belief_cache: BeliefCache | None = None,
    should_yield=None,
) -> JobResult:
    """Execute one job start-to-finish and return its result.

    ``executor`` parallelizes *inside* the job (beam levels, spread
    restarts); leave it serial when the jobs themselves are fanned out.
    The single-shot strategies are sequential algorithms and ignore it.
    ``observer`` receives candidate/iteration events live (beam
    strategy) or the single iteration of a single-shot strategy.
    ``belief_cache`` lets the beam strategy's iterative loop replay
    belief-state prefixes it shares with earlier runs (see
    :class:`~repro.engine.cache.BeliefCache`); the single-shot
    strategies have no belief state and ignore it.
    ``should_yield`` (a zero-argument callable) enables cooperative
    preemption of the beam strategy: it is polled *between* iterations,
    and a truthy answer raises :class:`~repro.errors.JobPreempted`.
    Completed iterations are already in the belief cache at that point,
    so a re-run replays them for free — preempting a job only ever
    costs the iteration in flight.
    """
    source, search = job.dataset, job.search
    dataset = load_dataset_cached(
        source.name, seed=source.seed, cache=dataset_cache, **source.kwargs
    )
    if source.weights is not None:
        if len(source.weights) != dataset.n_rows:
            raise EngineError(
                f"job carries {len(source.weights)} weights but dataset "
                f"{source.name!r} has {dataset.n_rows} rows"
            )
        # A fresh derived dataset: the cached (shared) instance is never
        # mutated, so unweighted jobs keep hitting the same object.
        dataset = dataset.with_weights(np.asarray(source.weights, dtype=float))
    started = clock.perf_counter()
    if search.strategy == "beam":
        miner = SubgroupDiscovery(
            dataset,
            targets=list(source.targets) if source.targets is not None else None,
            prior=job.build_prior(),
            config=job.search_config(),
            dl_params=job.dl_params(),
            seed=search.seed,
            executor=executor or SerialExecutor(),
            observer=observer,
            belief_cache=belief_cache,
        )
        if should_yield is None:
            iterations = miner.run(
                search.n_iterations, kind=search.kind, sparsity=search.sparsity
            )
        else:
            # Drive the loop step-by-step so the scheduler can reclaim
            # the worker at iteration boundaries. The first iteration
            # always runs: a job that yields before doing any work could
            # starve forever under a persistently contended pool.
            iterations = []
            for n in range(search.n_iterations):
                if n > 0 and should_yield():
                    raise JobPreempted(
                        f"job {job.label!r} preempted after "
                        f"{n}/{search.n_iterations} iterations"
                    )
                iterations.append(
                    miner.step(kind=search.kind, sparsity=search.sparsity)
                )
    else:
        iterations = [_single_shot_iteration(job, dataset)]
        if observer is not None:
            observer.on_iteration(iterations[0])
    return JobResult(
        job=job,
        iterations=tuple(iterations),
        elapsed_seconds=clock.perf_counter() - started,
    )


def _run_job_task(job: MiningSpec) -> JobResult:
    """Module-level job entry point so process pools can import it."""
    return run_job(job)


class FileYieldFlag:
    """A preemption flag that crosses process boundaries.

    The thread backend preempts with a ``threading.Event``; a process
    pool cannot share one. This flag signals through the existence of a
    marker file instead: :meth:`set` touches it, :meth:`is_set` is one
    ``os.path.exists`` — cheap enough to poll at iteration boundaries —
    and the object pickles by value (it is just a path), so it rides
    into a worker process alongside the job. The *scheduler* owns the
    file's lifetime: :meth:`dispose` unlinks it once the task ends,
    whatever the outcome.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path or os.path.join(
            tempfile.gettempdir(), f"repro-yield-{uuid.uuid4().hex}.flag"
        )

    def set(self) -> None:
        """Request preemption (idempotent)."""
        with open(self.path, "wb"):
            pass

    def is_set(self) -> bool:
        """True once preemption was requested (a cheap stat call)."""
        return os.path.exists(self.path)

    def dispose(self) -> None:
        """Remove the marker file (idempotent; missing is fine)."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - temp-dir races are benign
            pass


def run_job_with_workers(
    job: MiningSpec,
    workers: int | None,
    start_method: str | None = None,
    belief_cache: BeliefCache | None = None,
    observer: MiningObserver | None = None,
    yield_event=None,
    belief_handle=None,
    trace=None,
    dist_workers=None,
) -> JobResult:
    """:func:`run_job` with the executor resolved from a worker count.

    Module-level and picklable, so a service pool can honor a spec's
    ``executor.workers`` (plus ``start_method``) inside its worker
    processes (nested pools are legal; the determinism contract keeps
    the results identical at any count). The executor is closed
    afterwards so a parallel run's warm pool never outlives its job. ``belief_cache`` and
    ``observer`` are in-process state: the service's thread/serial
    backends thread theirs through here (observer callbacks then fire
    from the worker thread), while its process backend leaves them
    ``None`` — it can instead ship a picklable ``belief_handle``
    (:meth:`repro.engine.cache.BeliefCache.handle`) that each worker
    process resolves into its own cache over the shared on-disk spill.
    ``yield_event`` is the preemption flag, polled between iterations
    (see :func:`run_job`): a ``threading.Event`` from the thread
    backend, or a :class:`FileYieldFlag` from the process backend —
    anything with a cheap ``is_set()`` works.
    ``trace`` is an optional :class:`~repro.obs.trace.TraceContext` (or
    its wire-dict form, which is how the service's process backend ships
    it): it is activated for the duration of the run so engine-internal
    phase spans attach to the submitting job's trace. It never reaches
    the miner's inputs — results are bit-identical with or without it.
    ``dist_workers`` (a sequence of worker-daemon URLs) routes the run
    through a :class:`~repro.dist.DistExecutor` instead of a local pool,
    so a submitted job's trace extends across the remote shards.
    """
    if belief_cache is None and belief_handle is not None:
        belief_cache = belief_handle.resolve()
    ctx = trace if isinstance(trace, TraceContext) else TraceContext.from_wire(trace)
    executor = resolve_executor(
        workers, start_method=start_method, dist_workers=dist_workers
    )
    scope = activate(ctx) if ctx is not None else contextlib.nullcontext()
    try:
        with scope:
            return run_job(
                job,
                executor=executor,
                belief_cache=belief_cache,
                observer=observer,
                should_yield=yield_event.is_set if yield_event is not None else None,
            )
    finally:
        executor.close()


def _run_job_isolated(job: MiningSpec) -> JobResult | JobFailure:
    """Like :func:`_run_job_task`, but a raising job becomes a record."""
    try:
        return run_job(job)
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
    either a ``workers`` count or an explicit ``executor``.

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
