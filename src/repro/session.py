"""Interactive mining sessions: history, undo, and text reports.

The paper frames mining as a dialogue whose state is the background
distribution; :class:`MiningSession` makes that dialogue a first-class
object. It wraps :class:`~repro.search.miner.SubgroupDiscovery` with

- a full history of shown patterns,
- snapshot/undo (step back without refitting from scratch),
- a formatted session report, and
- JSON save/resume of the belief state (via :mod:`repro.persist`),
  including the search RNG state so a resumed session continues
  bit-identically to an uninterrupted one.

This is the library-level groundwork for the SIDE-style interactive
exploration the paper's §V plans to integrate with.

.. note::
    As a *public entry point* this class is superseded by
    :meth:`repro.api.Workspace.session`, which builds a session from a
    declarative :class:`repro.spec.MiningSpec`. ``MiningSession``
    remains the interactive substrate underneath and keeps working.
"""

from __future__ import annotations

from pathlib import Path

from repro.datasets.schema import Dataset
from repro.engine.cache import BeliefCache
from repro.engine.executor import Executor
from repro.errors import SearchError
from repro.events import MiningObserver
from repro.interest.dl import DLParams
from repro.model.priors import Prior
from repro.persist import (
    constraint_to_dict,
    load_json,
    model_from_dict,
    model_to_dict,
    save_json,
)
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.search.results import MiningIteration
from repro.utils.rng import generator_from_state, rng_state


#: Sentinel distinguishing "argument not passed" from an explicit None.
_UNSET = object()


class MiningSession:
    """A resumable, undoable iterative-mining dialogue over one dataset.

    Beyond the dataset, every parameter mirrors
    :class:`~repro.search.miner.SubgroupDiscovery` (which does the
    mining): ``prior`` pins an explicit background prior, ``executor``
    parallelizes the searches, ``observer`` streams candidate and
    iteration events as they happen, ``belief_cache`` lets sessions
    sharing a prefix of assimilated patterns replay it instead of
    re-mining (see :class:`~repro.engine.cache.BeliefCache`). ``kind``
    and ``sparsity`` set the defaults a bare :meth:`step` uses (a
    spec-built session steps the way its spec says without re-passing
    them every call).
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        config: SearchConfig = SearchConfig(),
        dl_params: DLParams = DLParams(),
        seed=0,
        prior: Prior | None = None,
        executor: Executor | None = None,
        observer: MiningObserver | None = None,
        kind: str = "location",
        sparsity: int | None = None,
        belief_cache: BeliefCache | None = None,
    ) -> None:
        self.dataset = dataset
        self.default_kind = kind
        self.default_sparsity = sparsity
        self.miner = SubgroupDiscovery(
            dataset,
            config=config,
            dl_params=dl_params,
            seed=seed,
            prior=prior,
            executor=executor,
            observer=observer,
            belief_cache=belief_cache,
        )
        self._snapshots = [self.miner.model.copy()]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the session's executor (its worker pool, if any).

        A session built over a ``ProcessExecutor`` — whose warm pool
        persists across steps — holds worker processes; close the session (or use it as a context
        manager) to release them deterministically instead of at
        garbage collection. The session's history remains readable.
        """
        self.miner.executor.close()

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dialogue
    # ------------------------------------------------------------------ #
    @property
    def history(self) -> list[MiningIteration]:
        return list(self.miner.history)

    @property
    def n_iterations(self) -> int:
        return len(self.miner.history)

    def step(self, *, kind: str | None = None, sparsity=_UNSET) -> MiningIteration:
        """One mining iteration; the pre-step model is snapshotted.

        ``kind``/``sparsity`` default to the session's construction-time
        settings, so a spec-built session steps the way its spec says.
        """
        snapshot = self.miner.model.copy()
        iteration = self.miner.step(
            kind=kind if kind is not None else self.default_kind,
            sparsity=self.default_sparsity if sparsity is _UNSET else sparsity,
        )
        self._snapshots.append(snapshot)
        return iteration

    def undo(self) -> MiningIteration:
        """Forget the last shown pattern(s); returns the undone iteration.

        Restores the exact pre-step belief state from the snapshot, so
        undo is O(model size), not a refit.
        """
        if not self.miner.history:
            raise SearchError("nothing to undo")
        undone = self.miner.history.pop()
        self.miner.model = self._snapshots.pop()
        return undone

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def report(self) -> str:
        """Human-readable transcript of the session so far."""
        lines = [
            f"Mining session on {self.dataset.name!r} "
            f"({self.dataset.n_rows} rows, {self.dataset.n_targets} targets)",
            f"iterations: {self.n_iterations}, "
            f"model blocks: {self.miner.model.n_blocks}, "
            f"constraints: {len(self.miner.model.constraints)}",
        ]
        for iteration in self.miner.history:
            lines.append(f"[{iteration.index}] {iteration.location}")
            if iteration.spread is not None:
                lines.append(f"    {iteration.spread}")
        if self.miner.model.constraints:
            lines.append(
                f"max constraint residual: {self.miner.model.max_residual():.2e}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Persist the belief state (not the dataset) to JSON.

        The document also carries the search RNG state, so
        :meth:`resume` continues the spread search's random-restart
        stream exactly where it stopped — ``save -> resume -> step``
        equals an uninterrupted run, bit for bit.
        """
        document = {
            "dataset_name": self.dataset.name,
            "n_iterations": self.n_iterations,
            "model": model_to_dict(self.miner.model),
            "shown": [
                constraint_to_dict(c) for c in self.miner.model.constraints
            ],
            "rng_state": rng_state(self.miner._rng),
            "step_defaults": {
                "kind": self.default_kind,
                "sparsity": self.default_sparsity,
            },
        }
        return save_json(document, path)

    @classmethod
    def resume(
        cls,
        dataset: Dataset,
        path: str | Path,
        *,
        config: SearchConfig = SearchConfig(),
        dl_params: DLParams = DLParams(),
        seed=0,
        executor: Executor | None = None,
        observer: MiningObserver | None = None,
        kind: str | None = None,
        sparsity=_UNSET,
        belief_cache: BeliefCache | None = None,
    ) -> "MiningSession":
        """Rebuild a session's belief state from a saved document.

        There is deliberately no ``prior`` parameter: the saved model
        *is* the belief state (prior plus everything assimilated), so a
        prior passed here could only be silently discarded.

        The iteration history (descriptions, scores) is not persisted —
        only the belief state matters for what gets mined next — so the
        resumed session starts with an empty history but the saved
        model, the saved RNG state, and the saved ``step()`` defaults
        (``kind``/``sparsity``), making the continuation bit-identical
        to never having stopped; explicit ``kind``/``sparsity``
        arguments here override the saved defaults. Documents from older
        versions without ``rng_state``/``step_defaults`` still load;
        they fall back to the fresh ``seed`` stream and the library
        defaults.
        """
        document = load_json(path)
        if document.get("dataset_name") != dataset.name:
            raise SearchError(
                f"saved session is for dataset {document.get('dataset_name')!r}, "
                f"got {dataset.name!r}"
            )
        saved_defaults = document.get("step_defaults") or {}
        session = cls(
            dataset,
            config=config,
            dl_params=dl_params,
            seed=seed,
            executor=executor,
            observer=observer,
            kind=kind if kind is not None else saved_defaults.get("kind", "location"),
            sparsity=(
                saved_defaults.get("sparsity") if sparsity is _UNSET else sparsity
            ),
            belief_cache=belief_cache,
        )
        model = model_from_dict(document["model"])
        if model.n_rows != dataset.n_rows:
            raise SearchError("saved model row count does not match dataset")
        session.miner.model = model
        session._snapshots = [model.copy()]
        saved_state = document.get("rng_state")
        if saved_state is not None:
            # The saved stream always wins over the resuming caller's
            # ``seed`` — that is what makes save -> resume -> step equal
            # an uninterrupted run, bit for bit.
            try:
                session.miner._rng = generator_from_state(saved_state)
            except ValueError as exc:
                raise SearchError(f"saved rng_state: {exc}") from exc
        return session
