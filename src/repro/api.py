"""The front door: one :class:`Workspace`, three execution modes.

A :class:`~repro.spec.MiningSpec` says *what* to mine; the Workspace
decides *where it runs*:

- :meth:`Workspace.mine` — inline, blocking, returns the whole
  :class:`~repro.engine.jobs.JobResult`;
- :meth:`Workspace.stream` — inline, but yields each
  :class:`~repro.search.results.MiningIteration` the moment it is
  mined (the synchronous substrate for a live UI);
- :meth:`Workspace.session` — interactive: a
  :class:`~repro.session.MiningSession` with undo/save/resume;
- :meth:`Workspace.submit` / :meth:`Workspace.result` — asynchronous,
  through a lazily created :class:`~repro.engine.service.MiningService`.

All modes run the same spec through one run path,
:mod:`repro.engine.jobs`, so they return byte-identical patterns,
weighted specs included — the equivalence the test suite enforces.
Specs may be passed as :class:`~repro.spec.MiningSpec`
instances or as plain dicts (the JSON form), so a saved spec file drives
everything::

    from repro import Workspace, MiningSpec

    spec = MiningSpec.build("synthetic", kind="spread", n_iterations=3)
    with Workspace() as ws:
        for iteration in ws.stream(spec):      # live
            print(iteration.location)
        job_id = ws.submit(spec)               # queued (cache hit: free)
        result = ws.result(job_id)
"""

from __future__ import annotations

from typing import Iterator

from repro.engine import jobs
from repro.engine.cache import BeliefCache, resolve_belief_cache
from repro.engine.jobs import JobResult
from repro.engine.service import JobStatus, MiningService
from repro.errors import EngineError
from repro.events import MiningObserver, broadcast
from repro.obs.profile import ProfileReport, profile_block
from repro.search.miner import SubgroupDiscovery
from repro.search.results import MiningIteration
from repro.session import MiningSession
from repro.spec import MiningSpec


def _as_spec(spec: MiningSpec | dict) -> MiningSpec:
    """Accept a MiningSpec or its JSON-dict form."""
    if isinstance(spec, MiningSpec):
        return spec
    return MiningSpec.from_dict(spec)


def build_miner(
    spec: MiningSpec | dict,
    *,
    observer: MiningObserver | None = None,
    belief_cache: BeliefCache | bool | None = None,
) -> SubgroupDiscovery:
    """Construct the iterative miner a beam-strategy spec describes.

    :func:`repro.engine.jobs.build_miner` for a spec or its dict form.
    The miner runs on the spec's executor section; close
    ``miner.executor`` when done. ``belief_cache`` opts into
    belief-state prefix reuse (see
    :class:`~repro.engine.cache.BeliefCache`; ``True`` = the
    process-wide cache).
    """
    return jobs.build_miner(
        _as_spec(spec),
        observer=observer,
        belief_cache=resolve_belief_cache(belief_cache),
    )


class Workspace:
    """One front door over inline, interactive, and service execution.

    Parameters
    ----------
    observer:
        Default :class:`~repro.events.MiningObserver` attached to every
        run started through this workspace; per-call observers compose
        with it. Note that a *shared* service has one event stream: an
        observer attached via ``service=`` hears every job on that
        service while attached (detached again on :meth:`close`), not
        only this workspace's submissions.
    service:
        An existing :class:`~repro.engine.service.MiningService` to
        submit through. When omitted, one is created lazily on the
        first :meth:`submit` with ``service_backend``/``service_workers``
        and shut down by :meth:`close` (or the context manager).
    service_backend / service_workers:
        Configuration of the lazily created service. ``service_backend``
        defaults to ``None``, meaning: honor the first submitted spec's
        ``executor.backend`` (falling back to ``"process"`` when the
        service is created without a spec in hand).
    belief_cache:
        Belief-state prefix cache for this workspace's *inline* modes
        (``mine``/``stream``/``session``): ``True`` shares the
        process-wide :data:`~repro.engine.cache.BELIEF_CACHE`, an
        instance scopes reuse to its holders, and the default ``None``
        leaves inline execution cache-free. Sessions and runs sharing a
        cache and a prefix of assimilated patterns replay the prefix
        bit-identically instead of re-mining it. Independently, a
        lazily created service keeps its own default (the shared cache)
        unless this is set, in which case it is passed through.
    """

    def __init__(
        self,
        *,
        observer: MiningObserver | None = None,
        service: MiningService | None = None,
        service_backend: str | None = None,
        service_workers: int = 2,
        belief_cache: BeliefCache | bool | None = None,
    ) -> None:
        self.observer = observer
        #: The :class:`~repro.obs.profile.ProfileReport` of the last
        #: ``mine(..., profile=...)`` call (``None`` until one runs).
        self.last_profile: ProfileReport | None = None
        self._belief_cache_arg = belief_cache
        self.belief_cache = resolve_belief_cache(belief_cache)
        self._service = service
        self._owns_service = False
        self._service_backend = service_backend
        self._service_workers = service_workers
        if service is not None:
            # A shared service has one event stream, so this observer
            # hears every job on it while attached (see class docstring);
            # close() detaches it again.
            service.add_observer(observer)

    # ------------------------------------------------------------------ #
    # Inline execution
    # ------------------------------------------------------------------ #
    def mine(
        self,
        spec: MiningSpec | dict,
        *,
        observer: MiningObserver | None = None,
        profile=False,
    ) -> JobResult:
        """Run one spec to completion, inline, and return its result.

        Candidate and iteration events fire live on the composed
        observers; ``on_job`` fires once at the end.

        ``profile`` opts into per-phase timing: any truthy value
        captures a :class:`~repro.obs.profile.ProfileReport` (a diff of
        the already-instrumented metrics registry around the run, so
        profiling adds no measurement cost) into :attr:`last_profile`; a
        *callable* additionally receives the rendered report text
        (``profile=print`` prints the table). The mined result is
        byte-identical either way.
        """
        spec = _as_spec(spec)
        composed = broadcast(self.observer, observer)
        block = profile_block() if profile else None
        try:
            if block is not None:
                block.__enter__()
            result = jobs.run_job(
                spec, observer=composed, belief_cache=self.belief_cache
            )
        finally:
            if block is not None:
                block.__exit__()
                self.last_profile = block.report
        if callable(profile):
            profile(self.last_profile.format())
        if composed is not None:
            composed.on_job(result)
        return result

    def stream(
        self, spec: MiningSpec | dict, *, observer: MiningObserver | None = None
    ) -> Iterator[MiningIteration]:
        """Yield each mining iteration as it is mined.

        For the iterative beam strategy this is true streaming — the
        pattern is in your hands while the next search is still to run;
        the single-shot strategies yield their one iteration. Observers
        see ``on_candidate``/``on_iteration`` events only (``on_job`` is
        :meth:`mine`'s whole-result event, identical for every
        strategy). This generator is the synchronous substrate of the
        ROADMAP's async/streaming front-end. The spec is validated
        eagerly, at this call — only the mining itself is lazy. A
        parallel spec's worker pool is released when the loop ends or
        the caller abandons the generator.
        """
        return jobs.iterate_job(
            _as_spec(spec),
            observer=broadcast(self.observer, observer),
            belief_cache=self.belief_cache,
        )

    # ------------------------------------------------------------------ #
    # Interactive execution
    # ------------------------------------------------------------------ #
    def session(
        self, spec: MiningSpec | dict, *, observer: MiningObserver | None = None
    ) -> MiningSession:
        """An interactive (undo/save/resume) session for a beam spec.

        The session ignores ``search.n_iterations`` — stepping is the
        caller's dialogue — but honors every other section (including
        ``search.kind``/``sparsity`` as the default for a bare
        ``step()``), and its steps are byte-identical to :meth:`mine`'s
        iterations. Close the session (it is a context manager) when
        done: a parallel spec gives it a worker pool to release.
        """
        spec = _as_spec(spec)
        settings = jobs.miner_settings(spec)
        return MiningSession(
            jobs.load_spec_dataset(spec),
            kind=spec.search.kind,
            sparsity=spec.search.sparsity,
            executor=jobs.job_executor(spec),
            observer=broadcast(self.observer, observer),
            belief_cache=self.belief_cache,
            **settings,
        )

    # ------------------------------------------------------------------ #
    # Service execution
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> MiningService:
        """The backing service, created on first use."""
        return self._ensure_service(None)

    def _ensure_service(self, backend_hint: str | None) -> MiningService:
        if self._service is None:
            backend = self._service_backend or backend_hint or "process"
            self._service = MiningService(
                max_workers=self._service_workers,
                backend=backend,
                observer=self.observer,
                # None = keep the service's own default (the shared
                # process-wide cache); an explicit setting wins.
                belief_cache=(
                    True
                    if self._belief_cache_arg is None
                    else self._belief_cache_arg
                ),
            )
            self._owns_service = True
        return self._service

    def submit(
        self, spec: MiningSpec | dict, *, observer: MiningObserver | None = None
    ) -> str:
        """Queue a spec on the service; returns the job id.

        If this submit has to create the lazy service, the spec's
        ``executor.backend`` picks its pool (unless the Workspace was
        constructed with an explicit ``service_backend``), and the
        spec's ``executor.workers`` parallelizes the search inside the
        job. ``observer`` is a *per-job* observer hearing only this
        submission's events (see
        :meth:`~repro.engine.service.MiningService.submit`); it does not
        compose with the workspace-wide observer, which listens
        service-wide.
        """
        spec = _as_spec(spec)
        return self._ensure_service(spec.executor.backend).submit(
            spec, observer=observer
        )

    def _running_service(self) -> MiningService:
        """The service, required to already exist (read-only queries)."""
        if self._service is None:
            raise EngineError(
                "no service is running in this workspace — submit a spec first"
            )
        return self._service

    def status(self, job_id: str) -> JobStatus:
        """Lifecycle state of a submitted spec (requires a prior submit)."""
        return self._running_service().status(job_id)

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until a submitted spec finishes; returns its result."""
        return self._running_service().result(job_id, timeout=timeout)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the lazily created service, if any.

        An externally provided service is left running, but this
        workspace's observer is detached from it so later workspaces
        sharing the service do not inherit it.
        """
        if self._service is None:
            return
        if self._owns_service:
            self._service.shutdown(wait=True)
            self._service = None
            self._owns_service = False
        else:
            self._service.remove_observer(self.observer)

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
