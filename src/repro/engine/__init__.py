"""Parallel mining engine: executors, caching, jobs, and the service.

The engine separates *what to mine* (:class:`~repro.spec.MiningSpec`
jobs) from *how it executes* (:class:`~repro.engine.executor.Executor`
backends), and layers a submit/status/result/cancel service on top:

- :mod:`repro.engine.executor` — ``SerialExecutor`` / ``ProcessExecutor``
  (a warm process pool) backends injected into the beam and spread
  searches.
- :mod:`repro.engine.shm` — the zero-copy shared-memory transport that
  ``ProcessExecutor`` ships session contexts through (``ArrayStore`` +
  ``publish``).
- :mod:`repro.engine.cache` — bounded LRU caches and spec fingerprints.
- :mod:`repro.engine.jobs` — running one spec, and the deterministic
  multi-job runner.
- :mod:`repro.engine.service` — ``MiningService``, a bounded worker pool
  with result caching.

Exports resolve lazily (PEP 562) so the search modules can import the
executor backends without dragging in the job layer, which itself
depends on the search modules.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "Executor": "repro.engine.executor",
    "ExecutorSession": "repro.engine.executor",
    "SerialExecutor": "repro.engine.executor",
    "ProcessExecutor": "repro.engine.executor",
    "resolve_executor": "repro.engine.executor",
    "ArrayStore": "repro.engine.shm",
    "SharedArrayRef": "repro.engine.shm",
    "CacheStats": "repro.engine.cache",
    "LRUCache": "repro.engine.cache",
    "fingerprint": "repro.engine.cache",
    "dataset_fingerprint": "repro.engine.cache",
    "dataset_content_fingerprint": "repro.engine.cache",
    "load_dataset_cached": "repro.engine.cache",
    "DATASET_CACHE": "repro.engine.cache",
    "BeliefCache": "repro.engine.cache",
    "CachedStep": "repro.engine.cache",
    "BELIEF_CACHE": "repro.engine.cache",
    "JobResult": "repro.engine.jobs",
    "JobFailure": "repro.engine.jobs",
    "run_job": "repro.engine.jobs",
    "run_jobs": "repro.engine.jobs",
    "JobStatus": "repro.engine.service",
    "MiningService": "repro.engine.service",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
