"""repro.store — the durable persistence tier.

Two concerns, one directory, one write discipline
(:func:`repro.store.atomic.write_atomic`: every file is replaced whole
or not at all):

- :class:`JobStore`: scheduler records and finished results survive
  restarts, bit-identically, one JSON file per job.
- :class:`BeliefStore` / :class:`BeliefStoreHandle`: the belief-prefix
  cache spills to content-addressed files (mmap-read numpy payloads),
  so the sequential method's accumulated background state survives too
  — and crosses process boundaries as a short picklable handle.
"""

from repro.store.beliefs import BeliefStore, BeliefStoreHandle
from repro.store.records import RECORD_SCHEMA, JobStore

__all__ = [
    "BeliefStore",
    "BeliefStoreHandle",
    "JobStore",
    "RECORD_SCHEMA",
]
