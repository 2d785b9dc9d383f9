"""Bounded, thread-safe LRU cache.

Dependency-neutral, so any layer can use it without depending on the
engine; the engine layer's dataset and job-result caches are built on
it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one :class:`LRUCache`."""

    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Thread-safe least-recently-used mapping with a hard size bound.

    The bound is an entry *count* (``maxsize``) and, optionally, a total
    *byte* budget: pass ``max_bytes`` together with a ``sizeof``
    callable that prices each stored value, and inserts evict
    least-recently-used entries until the priced total fits again. Byte
    pricing matters when entries are wildly unequal — the engine's
    belief cache stores full iteration arrays, where 256 tiny entries
    and 256 huge ones are very different memory stories.

    A single entry larger than ``max_bytes`` is still admitted (it
    evicts everything else); refusing it would make the cache silently
    useless for workloads whose unit of reuse simply is that large.
    """

    def __init__(
        self,
        maxsize: int = 128,
        *,
        max_bytes: int | None = None,
        sizeof: Any = None,
    ) -> None:
        if maxsize < 1:
            # A bad bound is a programming error, not a mining failure, so
            # it stays outside the ReproError taxonomy (see repro.errors).
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if (max_bytes is None) != (sizeof is None):
            raise ValueError("max_bytes and sizeof must be given together")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._sizeof = sizeof
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._total_bytes = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting LRU entries while over budget."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if self._sizeof is not None:
                size = int(self._sizeof(value))
                self._total_bytes += size - self._sizes.get(key, 0)
                self._sizes[key] = size
            while len(self._data) > self.maxsize or (
                self.max_bytes is not None
                and self._total_bytes > self.max_bytes
                and len(self._data) > 1
            ):
                evicted, _ = self._data.popitem(last=False)
                self._total_bytes -= self._sizes.pop(evicted, 0)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._total_bytes = 0

    @property
    def total_bytes(self) -> int:
        """Priced bytes currently held (0 unless byte-bounded)."""
        with self._lock:
            return self._total_bytes

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, self._evictions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LRUCache(len={len(self)}, maxsize={self.maxsize})"
