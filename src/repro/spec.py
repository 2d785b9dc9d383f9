"""The engine's one job description: a frozen, validated ``MiningSpec``.

A :class:`MiningSpec` is the unit of work every layer carries — the
:class:`repro.api.Workspace`, the job runner and
:class:`~repro.engine.service.MiningService`, the server and its wire,
and the durable store. It replaces three competing config
surfaces (:class:`~repro.search.config.SearchConfig` knobs,
:class:`~repro.interest.dl.DLParams` weights, loose keyword arguments)
with six declarative sections:

- :class:`DatasetSpec` — *what data*: a :data:`repro.registry.DATASETS`
  name, its seed/kwargs, an optional target selection.
- :class:`LanguageSpec` — *which descriptions*: discretization (one of
  :data:`repro.lang.discretize.SPLIT_STRATEGIES`) and the attribute
  subset the refinement operator searches over.
- :class:`ModelSpec` — *whose beliefs*: the ``"gaussian"`` background
  model (the only kind) and an optional explicit prior.
- :class:`InterestSpec` — *what is interesting*: a
  :data:`repro.registry.MEASURES` name plus the DL weights.
- :class:`SearchSpec` — *how to look*: one of :data:`JOB_STRATEGIES`
  and the loop/beam parameters.
- :class:`ExecutorSpec` — *on what hardware, and when*: worker count,
  service backend and scheduling terms. Excluded from
  :meth:`MiningSpec.fingerprint`, because the engine's determinism
  contract makes results executor-independent.

The sections are the one place a job's values are checked and
normalized: an integer field takes ``2`` or ``2.0`` and stores ``2``, a
float field stores a float, and the prior is stored as float lists once
it is validated as a :class:`~repro.model.priors.Prior`. Anything else
raises :class:`ReproError` naming the field, so every spelling of one
job has one fingerprint.

Each name a spec holds is checked against the one list the engine runs
from, so a spec names nothing the engine cannot run: an unknown name
raises the error class of its layer, listing what is available.

A spec has two JSON document forms, both on disk and on the wire:

- **sectioned** (:meth:`MiningSpec.to_dict` / :meth:`~MiningSpec.from_dict`):
  spec files, ``{"spec": ...}`` submit bodies and ``Workspace`` dicts;
- **flat** (:func:`repro.persist.job_to_dict` /
  :func:`~repro.persist.job_from_dict`): batch files, wire events and
  result documents, store records and ``{"job": ...}`` bodies. Decoding
  checks its keys and hands its values to :meth:`MiningSpec.build`, so
  the flat form reads values exactly as the sections do. Its
  name-free part is :meth:`MiningSpec.work_document`, whose digest is
  the fingerprint every cache key and store record uses.

>>> spec = MiningSpec.build("synthetic", kind="spread", n_iterations=3)
>>> spec.fingerprint() == MiningSpec.from_dict(spec.to_dict()).fingerprint()
True
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, TypeVar

import numpy as np

from repro.engine.cache import fingerprint as _fingerprint
from repro.errors import EngineError, ModelError, ReproError, SearchError
from repro.interest.dl import DLParams
from repro.lang.discretize import check_split_settings
from repro.model.priors import Prior
from repro.registry import DATASETS, MEASURES
from repro.search.config import SearchConfig
from repro.search.spread import check_sparsity

#: Schema version embedded in serialized specs; bump on breaking changes.
SPEC_SCHEMA = 1

#: Pattern kinds a spec may request, mirroring ``SubgroupDiscovery.step``.
JOB_KINDS = ("location", "spread")

#: Search strategies the job runner can execute. ``"beam"`` is the
#: paper's iterative subjective mining loop; ``"branch_bound"`` and
#: ``"quality_beam"`` are single-shot searches (one location pattern,
#: no belief-state iteration).
JOB_STRATEGIES = ("beam", "branch_bound", "quality_beam")

_S = TypeVar("_S")


def _section_from_dict(cls: type[_S], data: dict[str, Any] | None, section: str) -> _S:
    """Build one section dataclass from its dict, rejecting unknown keys."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ReproError(f"spec section {section!r} must be an object, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ReproError(
            f"unknown keys in spec section {section!r}: {sorted(unknown)}"
        )
    try:
        return cls(**data)
    except TypeError as exc:
        raise ReproError(f"invalid spec section {section!r}: {exc}") from exc


def _as_int(value: Any, field_name: str) -> int:
    """A whole number spelled as an int or an integral float, as an int.

    ``max_depth=2`` and ``max_depth=2.0`` are the same work and must
    fingerprint equally. Bools, fractions, strings and non-finite values
    raise: a bare ``int()`` would truncate ``2.7`` and overflow on ``inf``.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ReproError(f"{field_name} must be an integer, got {value!r}")


def _as_float(value: Any, field_name: str) -> float:
    """A number spelled as an int or a float, as a float.

    ``gamma=1`` and ``gamma=1.0`` are the same work and must fingerprint
    equally however the spec was spelled, and so are ``-0.0`` and ``0``:
    adding ``0.0`` turns ``-0.0`` into ``0.0``. Bools and non-numbers raise.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ReproError(f"{field_name} must be a number, got {value!r}")
    return float(value) + 0.0


def _name_tuple(value: Any, field_name: str) -> tuple[str, ...]:
    """Coerce a list of names to a tuple; reject bare strings.

    ``targets="ab"`` would silently become ``('a', 'b')`` under a plain
    ``tuple()`` — a single name must be spelled as a one-element list.
    """
    if isinstance(value, str):
        raise ReproError(
            f"{field_name} must be a list of names, not a bare string; "
            f"use [{value!r}]"
        )
    return tuple(value)


def _weight_tuple(value: Any, field_name: str) -> tuple[float, ...]:
    """Coerce case weights to a validated tuple of positive finite floats."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ReproError(f"{field_name} must be a list of numbers or null")
    weights = tuple(_as_float(w, f"{field_name} entry") for w in value)
    if not weights:
        raise ReproError(f"{field_name} must be non-empty or null")
    if any(not math.isfinite(w) or w <= 0.0 for w in weights):
        raise ReproError(f"{field_name} must be positive finite numbers")
    return weights


def _float_array(value: Any, field_name: str) -> np.ndarray:
    """A nested list of ints and floats as a float array; anything else raises.

    As in :func:`_as_float`, ``-0.0`` entries become ``0.0``.
    """
    try:
        array = np.asarray(value)
        if array.dtype.kind in "iuf":
            return array.astype(float) + 0.0
    except ValueError:  # ragged nesting
        pass
    raise ReproError(f"{field_name} must be numbers, got {value!r}")


#: The helper that reads each section field, keyed by its annotation.
_READERS: dict[str, Callable[[Any, str], Any]] = {
    "int": _as_int,
    "float": _as_float,
    "tuple[str, ...]": _name_tuple,
    "tuple[float, ...]": _weight_tuple,
}


@dataclass(frozen=True)
class _Section:
    """Base of the six sections: each field is read by its type's helper.

    :data:`_READERS` maps a field's annotation (a string, under ``from
    __future__ import annotations``) to its helper; a ``... | None``
    field also keeps None. Errors name the section and field, e.g.
    ``search max_depth must be an integer, got 2.5``.
    """

    def __post_init__(self) -> None:
        section = type(self).__name__.removesuffix("Spec").lower()
        for f in fields(self):
            annotation = str(f.type)
            reader = _READERS.get(annotation.removesuffix(" | None"))
            value = getattr(self, f.name)
            if reader is None or (value is None and annotation.endswith(" | None")):
                continue
            object.__setattr__(self, f.name, reader(value, f"{section} {f.name}"))


@dataclass(frozen=True)
class DatasetSpec(_Section):
    """What data to mine: a registered dataset name plus its parameters.

    ``weights`` carries optional per-row case weights (frequency
    semantics; one positive finite number per dataset row). They change
    every score the loop computes, so they are fingerprint-relevant —
    and they are *omitted* from serialized/fingerprinted forms when
    ``None``, which keeps every pre-weights fingerprint stable.
    """

    name: str
    seed: int = 0
    kwargs: dict[str, Any] = field(default_factory=dict)
    targets: tuple[str, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("dataset section needs a non-empty name")
        super().__post_init__()
        if self.kwargs is None:
            object.__setattr__(self, "kwargs", {})
        elif not isinstance(self.kwargs, dict):
            raise ReproError(
                f"dataset kwargs must be an object, got {self.kwargs!r}"
            )
        else:
            # Defensive copy: mutating the caller's dict afterwards must
            # not reach inside a validated frozen spec.
            object.__setattr__(self, "kwargs", dict(self.kwargs))


@dataclass(frozen=True)
class LanguageSpec(_Section):
    """Which description language: discretization and attribute subset."""

    n_split_points: int = 4
    split_strategy: str = "percentile"
    attributes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_split_settings(self.n_split_points, self.split_strategy)


@dataclass(frozen=True)
class ModelSpec(_Section):
    """Whose beliefs: the background-model kind and an optional prior.

    ``"gaussian"`` (the paper's MaxEnt model) is the only kind; the
    field stays so that spec documents keep their shape. The prior is
    validated as the :class:`~repro.model.priors.Prior` it builds;
    whether its dimension matches the targets is checked at run time,
    once the dataset is loaded.
    """

    kind: str = "gaussian"
    prior: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind != "gaussian":
            raise ModelError(
                f"unknown background model {self.kind!r}; available: gaussian"
            )
        if self.prior is None:
            return
        if not (isinstance(self.prior, dict) and set(self.prior) == {"mean", "cov"}):
            raise ReproError("model prior must be a dict of exactly 'mean' and 'cov'")
        mean = _float_array(self.prior["mean"], "model prior mean")
        cov = _float_array(self.prior["cov"], "model prior cov")
        try:
            Prior(mean, cov)
        except (ValueError, ModelError) as exc:
            raise ReproError(f"invalid model prior: {exc}") from None
        object.__setattr__(self, "prior", {"mean": mean.tolist(), "cov": cov.tolist()})


@dataclass(frozen=True)
class InterestSpec(_Section):
    """What counts as interesting: the measure and the DL weights."""

    measure: str = "si"
    gamma: float = 0.1
    eta: float = 1.0


@dataclass(frozen=True)
class SearchSpec(_Section):
    """How to look: the strategy plus loop and beam parameters."""

    strategy: str = "beam"
    kind: str = "location"
    n_iterations: int = 1
    sparsity: int | None = None
    seed: int = 0
    beam_width: int = 40
    max_depth: int = 4
    top_k: int = 150
    min_coverage: int = 2
    max_coverage_fraction: float = 1.0
    time_budget_seconds: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.strategy not in JOB_STRATEGIES:
            raise SearchError(
                f"unknown search strategy {self.strategy!r}; "
                f"available: {', '.join(JOB_STRATEGIES)}"
            )
        check_sparsity(self.sparsity)


@dataclass(frozen=True)
class ExecutorSpec(_Section):
    """On what hardware, and when: workers, service backend, schedule.

    ``workers`` parallelizes the ``"beam"`` strategy's search (its
    scoring shards and spread restarts; 0/1 = serial) over
    :class:`~repro.engine.executor.ProcessExecutor`'s warm worker pool,
    on every run path (:func:`repro.engine.jobs.run_job` included) but
    a :func:`~repro.engine.jobs.run_jobs` batch, whose jobs run serial —
    the single-shot strategies (``branch_bound``, ``quality_beam``) are
    sequential algorithms and always run serial regardless of this
    setting. ``start_method`` picks that pool's ``multiprocessing``
    start method. ``backend`` is the service pool a
    :class:`repro.api.Workspace` creates when this spec's
    :meth:`~repro.api.Workspace.submit` has to build one (an explicit
    ``Workspace(service_backend=...)`` wins). ``priority`` and
    ``deadline`` are the scheduling terms a submitted spec carries onto
    the service queue (higher priority dispatches first; a job still
    queued ``deadline`` seconds after submission expires instead of
    running) — inert for the inline ``mine``/``stream``/``session``
    modes, which execute immediately. Never part of the fingerprint —
    nothing in this section can change the patterns, only where, when,
    and whether they are computed (the engine's determinism contract
    guarantees the same patterns at any worker count over any
    transport).
    """

    workers: int | None = 1
    backend: str = "process"
    start_method: str | None = None
    priority: int = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        from repro.engine.executor import BACKENDS, normalize_workers

        super().__post_init__()
        normalize_workers(self.workers)  # rejects negative counts eagerly
        if self.backend not in BACKENDS:
            raise ReproError(
                f"executor backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        # Validated against the universal name set, not this platform's
        # multiprocessing.get_all_start_methods(): a spec file written on
        # Linux must still *load* on spawn-only platforms (whether the
        # method runs there is an execution-time concern).
        if self.start_method is not None and self.start_method not in (
            "fork", "spawn", "forkserver",
        ):
            raise ReproError(
                f"executor start_method must be one of "
                f"('fork', 'spawn', 'forkserver'), got {self.start_method!r}"
            )
        if self.deadline is not None and not self.deadline >= 0:  # also rejects NaN
            raise ReproError(
                f"executor deadline must be >= 0 seconds, got {self.deadline!r}"
            )


def _jsonable(value: Any) -> Any:
    """A section value as JSON: tuples become lists, dicts are copied."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


_SECTION_CLASSES: dict[str, type[Any]] = {
    "dataset": DatasetSpec,
    "language": LanguageSpec,
    "model": ModelSpec,
    "interest": InterestSpec,
    "search": SearchSpec,
    "executor": ExecutorSpec,
}
_SECTIONS = tuple(_SECTION_CLASSES)

#: Flat keywords that are not their field's name.
_RENAMED = {
    ("dataset", "seed"): "dataset_seed",
    ("dataset", "kwargs"): "dataset_kwargs",
    ("model", "kind"): "model",
}

#: Flat keyword -> (section, field) routing used by :meth:`MiningSpec.build`:
#: every section field but the dataset name, which ``build`` takes first.
_FLAT_FIELDS: dict[str, tuple[str, str]] = {
    _RENAMED.get((section, f.name), f.name): (section, f.name)
    for section, cls in _SECTION_CLASSES.items()
    for f in fields(cls)
    if (section, f.name) != ("dataset", "name")
}


@dataclass(frozen=True)
class MiningSpec:
    """One frozen, validated, JSON-round-trippable unit of mining work.

    Construction validates everything eagerly: every name is one the
    engine runs (with errors listing what *is* available), the search
    numbers satisfy :class:`~repro.search.config.SearchConfig`'s
    invariants, and the kind/strategy/measure/loop cross-rules hold —
    so a spec that exists is a spec that runs.

    ``dataset`` may be given as a bare name string; it is promoted to a
    :class:`DatasetSpec`. ``name`` is a display label only: two specs
    differing in ``name`` or ``executor`` are the same work (same
    :meth:`fingerprint`).
    """

    dataset: DatasetSpec
    language: LanguageSpec = LanguageSpec()
    model: ModelSpec = ModelSpec()
    interest: InterestSpec = InterestSpec()
    search: SearchSpec = SearchSpec()
    executor: ExecutorSpec = ExecutorSpec()
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.dataset, str):
            object.__setattr__(self, "dataset", DatasetSpec(self.dataset))
        DATASETS.get(self.dataset.name)
        MEASURES.get(self.interest.measure)
        self.search_config()  # SearchConfig checks the numeric invariants
        self._validate_strategy()

    def _validate_strategy(self) -> None:
        """Cross-field rules tying kind, strategy, measure and loop shape."""
        search = self.search
        if search.kind not in JOB_KINDS:
            raise EngineError(f"kind must be one of {JOB_KINDS}, got {search.kind!r}")
        if search.n_iterations < 1:
            raise EngineError(
                f"n_iterations must be >= 1, got {search.n_iterations}"
            )
        strategy, measure = search.strategy, self.interest.measure
        if strategy in ("beam", "branch_bound") and measure != "si":
            raise EngineError(
                f"strategy {strategy!r} scores with the subjective 'si' "
                f"measure; use strategy='quality_beam' for {measure!r}"
            )
        if strategy == "beam":
            return
        if strategy == "quality_beam" and measure == "si":
            raise EngineError(
                "quality_beam needs a classical measure (e.g. 'mean_shift'); "
                "use strategy='beam' for 'si'"
            )
        if search.kind != "location":
            raise EngineError(f"strategy {strategy!r} mines location patterns only")
        if search.n_iterations != 1:
            raise EngineError(
                f"strategy {strategy!r} is single-shot (no belief-state "
                f"iteration); n_iterations must be 1, got {search.n_iterations}"
            )
        if self.dataset.weights is not None:
            # The single-shot searches score with unweighted statistics;
            # silently dropping the weights would mislabel the results.
            raise EngineError(f"strategy {strategy!r} does not support case weights")
        if self.model.prior is not None:
            # branch_bound builds its own fresh model and quality_beam
            # scores its result SI against the empirical model — neither
            # can honor a stated prior, so reject instead of ignoring it.
            raise EngineError(f"strategy {strategy!r} always uses the empirical prior")

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the dict
        # fields (dataset kwargs, model prior); hashing the work digest
        # keeps specs usable in sets and consistent with __eq__ on
        # everything but the excluded name/executor labels.
        return hash(self.fingerprint())

    def _memo(self, key: str, build: Callable[[], _S]) -> _S:
        """``build()``, computed once per (frozen) instance."""
        try:
            return self.__dict__[key]
        except KeyError:
            value = build()
            object.__setattr__(self, key, value)
            return value

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _route_flat(kwargs: dict[str, Any]) -> dict[str, dict[str, Any]]:
        """Route flat keywords to ``{section: {field: value}}`` dicts."""
        sections: dict[str, dict[str, Any]] = {}
        for key, value in kwargs.items():
            try:
                section, field_name = _FLAT_FIELDS[key]
            except KeyError:
                raise ReproError(
                    f"unknown spec keyword {key!r}; accepted: "
                    f"{', '.join(sorted(_FLAT_FIELDS))}"
                ) from None
            sections.setdefault(section, {})[field_name] = value
        return sections

    @classmethod
    def build(cls, dataset: str, *, name: str = "", **kwargs: Any) -> "MiningSpec":
        """Flat-keyword constructor: route each kwarg to its section.

        ``MiningSpec.build("water", kind="spread", workers=4)`` spares
        callers (the CLI, quick scripts) the nested section spelling.
        ``seed`` is the mining seed; ``dataset_seed`` seeds the dataset
        generator. Unknown keywords raise, listing what is accepted.
        """
        routed = cls._route_flat(kwargs)
        routed.setdefault("dataset", {})["name"] = dataset
        return cls(
            name=name,
            **{
                section: _SECTION_CLASSES[section](**routed.get(section, {}))
                for section in _SECTIONS
            },
        )

    def with_changes(self, **kwargs: Any) -> "MiningSpec":
        """A copy with flat keywords applied (see :meth:`build`)."""
        name = kwargs.pop("name", self.name)
        updated = {
            section: replace(getattr(self, section), **values)
            for section, values in self._route_flat(kwargs).items()
        }
        return replace(self, name=name, **updated)

    # ------------------------------------------------------------------ #
    # Derived configuration
    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """The name, or ``dataset/kind#<fingerprint prefix>`` when unnamed."""
        return self.name or (
            f"{self.dataset.name}/{self.search.kind}#{self.fingerprint()[:8]}"
        )

    def search_config(self) -> SearchConfig:
        """The language + search sections merged into a SearchConfig."""

        def flat(key: str) -> Any:
            section, name = _FLAT_FIELDS[key]
            return getattr(getattr(self, section), name)

        return self._memo(
            "_search_config",
            lambda: SearchConfig(
                **{f.name: flat(f.name) for f in fields(SearchConfig)}
            ),
        )

    def dl_params(self) -> DLParams:
        """The description-length weights as a DLParams."""
        return DLParams(gamma=self.interest.gamma, eta=self.interest.eta)

    def build_prior(self) -> Prior | None:
        """Materialize the explicit prior, or None for empirical."""
        prior = self.model.prior
        if prior is None:
            return None
        return Prior(
            np.asarray(prior["mean"], dtype=float),
            np.asarray(prior["cov"], dtype=float),
        )

    # ------------------------------------------------------------------ #
    # Serialization and identity
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe sectioned form: every section field, in declaration order.

        ``dataset.weights`` is written only when set, so pre-weights
        documents stay byte-identical.
        """
        document: dict[str, Any] = {"schema": SPEC_SCHEMA}
        if self.name:
            document["name"] = self.name
        for section in _SECTIONS:
            values = getattr(self, section)
            document[section] = {
                f.name: _jsonable(getattr(values, f.name)) for f in fields(values)
            }
        if self.dataset.weights is None:
            del document["dataset"]["weights"]
        return document

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MiningSpec":
        """Rebuild a spec; unknown sections or keys fail loudly.

        Absent sections keep their defaults; ``"dataset"`` may be a bare
        name string.
        """
        if not isinstance(data, dict):
            raise ReproError(f"spec document must be an object, got {type(data).__name__}")
        if "dataset" not in data:
            raise ReproError("spec document needs a 'dataset' section")
        schema = data.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ReproError(
                f"unsupported spec schema {schema!r} (expected {SPEC_SCHEMA})"
            )
        unknown = set(data) - set(_SECTIONS) - {"schema", "name"}
        if unknown:
            raise ReproError(f"unknown spec sections: {sorted(unknown)}")
        sections = dict(data)
        if isinstance(sections["dataset"], str):
            sections["dataset"] = {"name": sections["dataset"]}
        executor = sections.get("executor")
        if isinstance(executor, dict) and "shared_memory" in executor:
            # Documents written while the executor had a transport toggle
            # carry it; it never changed what was mined, so it is dropped.
            sections["executor"] = {
                k: v for k, v in executor.items() if k != "shared_memory"
            }
        return cls(
            name=data.get("name", ""),
            **{
                section: _section_from_dict(
                    _SECTION_CLASSES[section], sections.get(section), section
                )
                for section in _SECTIONS
            },
        )

    def work_document(self) -> dict[str, Any]:
        """The flat, name-free document of *what* this spec mines.

        The body of the flat job form (:func:`repro.persist.job_to_dict`
        adds the name and scheduling envelope) and the input of
        :meth:`fingerprint`. Its keys and spelling are frozen: every
        cache key and store record derives from them.
        ``weights`` appears only when set, so pre-weights fingerprints
        stay byte-identical.
        """
        document: dict[str, Any] = {
            "dataset": self.dataset.name,
            "dataset_seed": self.dataset.seed,
            "dataset_kwargs": _jsonable(self.dataset.kwargs),
            "targets": _jsonable(self.dataset.targets),
            "prior": self.model.prior,
            "kind": self.search.kind,
            "sparsity": self.search.sparsity,
            "n_iterations": self.search.n_iterations,
            "seed": self.search.seed,
            "config": self.search_config().to_dict(),
            "gamma": self.interest.gamma,
            "eta": self.interest.eta,
            "strategy": self.search.strategy,
            "measure": self.interest.measure,
        }
        if self.dataset.weights is not None:
            document["weights"] = _jsonable(self.dataset.weights)
        return document

    def fingerprint(self) -> str:
        """Stable digest of :meth:`work_document` (name and executor excluded).

        Equal work fingerprints equally regardless of its label, how it
        was spelled, or how many workers run it — the executor cannot
        change the patterns (the engine's determinism contract).
        Memoized: the service and the wire call it per request.
        """
        return self._memo("_fingerprint", lambda: _fingerprint(self.work_document()))
