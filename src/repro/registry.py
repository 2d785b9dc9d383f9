"""String-keyed registries: the pluggable names of ``MiningSpec``.

A :class:`~repro.spec.MiningSpec` names everything it needs as plain
strings, so a spec is fully JSON-round-trippable. The names an
application may add to resolve here, each to the implementation the
mining loop dispatches on:

- :data:`DATASETS` — dataset factories (``seed, **kwargs -> Dataset``);
  the single store behind :func:`repro.datasets.load_dataset`.
- :data:`MEASURES` — interestingness measures: ``"si"`` (the paper's
  subjective measure, scored by :func:`repro.interest.si.score_location`)
  plus the classical :class:`~repro.baselines.quality.QualityMeasure`
  baselines that ``strategy="quality_beam"`` scores with.

The search strategy and the background model are fixed vocabularies of
the engine itself, checked by the spec (:data:`repro.spec.JOB_STRATEGIES`
and the ``"gaussian"`` model kind), not registries.

Every registry raises a typed, self-describing error on an unknown key
(naming the registry and listing what *is* available) and refuses
duplicate registration. All built-ins are registered when this module is
imported, so ``import repro`` always sees a fully populated vocabulary.

Third-party code extends the vocabulary the same way the built-ins got
there::

    from repro.registry import DATASETS

    DATASETS.register("mydata", make_mydata)   # now valid in any spec

and the new name loads and runs everywhere a spec is accepted. The
:class:`Registry` class itself also backs the lint rules and the
metric families.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import DataError, ReproError

#: Sentinel marking Registry.register's value argument as not passed.
_MISSING = object()


class Registry:
    """A named mapping from string keys to implementations.

    Parameters
    ----------
    kind:
        Human name of what is registered (``"dataset"``), used in error
        messages: ``unknown dataset 'nope'; available: crime, ...``.
    error:
        Exception class raised on unknown keys and duplicate
        registration; defaults to :class:`~repro.errors.ReproError`.
    """

    def __init__(self, kind: str, *, error: type = ReproError) -> None:
        self.kind = kind
        self._error = error
        self._entries: dict[str, Any] = {}

    def register(self, key: str, value: Any = _MISSING) -> Any:
        """Register ``value`` under ``key``; re-registration is an error.

        The value is mandatory — a forgotten one is an immediate error
        at the call site, not a silent no-op discovered later as an
        unknown key. For decorator syntax use :meth:`registered`.
        Returns the registered value.
        """
        if not key or not isinstance(key, str):
            raise self._error(f"{self.kind} key must be a non-empty string, got {key!r}")
        if value is _MISSING or value is None:
            raise self._error(
                f"{self.kind} {key!r} needs a value to register; use "
                f"@registry.registered({key!r}) for the decorator form"
            )
        if key in self._entries:
            raise self._error(f"{self.kind} {key!r} is already registered")
        self._entries[key] = value
        return value

    def registered(self, key: str):
        """Decorator form: ``@DATASETS.registered("mydata")``.

        Registers the decorated object under ``key`` and returns it
        unchanged.
        """
        def _decorator(obj: Any) -> Any:
            return self.register(key, obj)

        return _decorator

    def get(self, key: str) -> Any:
        """Resolve ``key``; unknown keys name the registry and its keys."""
        try:
            return self._entries[key]
        except KeyError:
            raise self._error(
                f"unknown {self.kind} {key!r}; available: {', '.join(self.keys())}"
            ) from None

    def keys(self) -> list[str]:
        """Registered keys, sorted."""
        return sorted(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self):
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, keys={self.keys()})"


#: Dataset factories; the store behind :func:`repro.datasets.load_dataset`.
DATASETS = Registry("dataset", error=DataError)

#: Interestingness measures a spec may name in ``interest.measure``.
MEASURES = Registry("interestingness measure", error=ReproError)


def _register_builtins() -> None:
    """Populate the registries with everything the library ships.

    Runs at import time (bottom of this module) so that ``import repro``
    — or importing any module that touches a registry — always sees the
    full built-in vocabulary. Imports are local to keep the module-level
    import graph cycle-free: ``repro.datasets.registry`` imports the
    :data:`DATASETS` instance defined above, which already exists by the
    time these imports re-enter this module.
    """
    from repro.baselines.quality import (
        DispersionCorrectedQuality,
        MeanShiftQuality,
        WRAccQuality,
    )
    from repro.datasets.crime import make_crime
    from repro.datasets.mammals import make_mammals
    from repro.datasets.socio import make_socio
    from repro.datasets.synthetic import make_synthetic
    from repro.datasets.water import make_water
    from repro.interest.si import score_location

    DATASETS.register("synthetic", make_synthetic)
    DATASETS.register("crime", make_crime)
    DATASETS.register("mammals", make_mammals)
    DATASETS.register("socio", make_socio)
    DATASETS.register("water", make_water)

    MEASURES.register("si", score_location)
    MEASURES.register("mean_shift", MeanShiftQuality)
    MEASURES.register("wracc", WRAccQuality)
    MEASURES.register("dispersion_corrected", DispersionCorrectedQuality)


_register_builtins()
