"""repro.store — the durable persistence tier.

Two concerns, one directory:

- :class:`JobStore` (over :class:`DurableLog`): scheduler records and
  finished results survive restarts, bit-identically.
- :class:`BeliefStore` / :class:`BeliefStoreHandle`: the belief-prefix
  cache spills to content-addressed files (mmap-read numpy payloads),
  so the sequential method's accumulated background state survives too
  — and crosses process boundaries as a short picklable handle.
"""

from repro.store.beliefs import BeliefStore, BeliefStoreHandle
from repro.store.records import RECORD_SCHEMA, JobStore
from repro.store.wal import DurableLog

__all__ = [
    "BeliefStore",
    "BeliefStoreHandle",
    "DurableLog",
    "JobStore",
    "RECORD_SCHEMA",
]
