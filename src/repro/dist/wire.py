"""Framing shared by :mod:`repro.dist` workers and coordinators.

Shard payloads carry arbitrary engine objects (scorers, numpy mask
stacks), so unlike the JSON surface of :mod:`repro.server.wire` the
compute tier speaks pickle over HTTP. That is safe only because workers
are *trusted* peers of the coordinator — the daemon binds to localhost
by default and the README says so out loud. Contexts are
content-addressed (sha256 of the pickled bytes), which is what lets a
repeat job ship nothing: the coordinator sends the digest, and only a
worker that has never seen it asks for the bytes.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any

from repro.errors import EngineError

__all__ = [
    "DIST_SCHEMA",
    "PICKLE_CONTENT_TYPE",
    "digest_of",
    "dump",
    "load",
    "shard_request",
]

#: Version stamp carried by every shard envelope; bump on breaking changes.
DIST_SCHEMA = 1

#: Content type of pickled request/response bodies on the compute tier.
PICKLE_CONTENT_TYPE = "application/x-repro-pickle"

#: Shard-reply statuses a worker may answer with.
REPLY_STATUSES = ("ok", "unknown-context", "error")


def dump(obj: Any) -> bytes:
    """Pickle one payload with the highest protocol (arrays stay binary)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def load(payload: bytes) -> Any:
    """Unpickle one payload; raises :class:`EngineError` on garbage."""
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise EngineError(f"undecodable dist payload: {exc}") from exc


def digest_of(payload: bytes) -> str:
    """Content address of a pickled context (hex sha256)."""
    return hashlib.sha256(payload).hexdigest()


def shard_request(
    digest: str | None,
    fn: Any,
    items: list[Any],
    trace: dict[str, str] | None = None,
) -> dict[str, Any]:
    """The ``POST /shards`` envelope a coordinator sends a worker.

    ``trace`` is the optional wire form of a
    :class:`repro.obs.trace.TraceContext`: the worker parents its shard
    span under it, which is what stitches remote execution into the
    submitting job's trace. Old workers ignore the extra key; absent or
    malformed contexts decode to ``None`` — tracing never fails a shard.
    """
    request: dict[str, Any] = {
        "schema": DIST_SCHEMA,
        "context": digest,
        "fn": fn,
        "items": items,
    }
    if trace is not None:
        request["trace"] = trace
    return request

