"""``repro.dist``: the mining engine across machines.

Two tiers, both stdlib-only on the wire:

**Tier A — compute fan-out.** :class:`~repro.dist.worker.WorkerDaemon`
(``sisd worker``) is a small HTTP daemon that caches session contexts by
content address and executes beam/spread shards.
:class:`~repro.dist.executor.DistExecutor` implements the engine's
:class:`~repro.engine.executor.Executor` protocol over a set of those
daemons: the context ships once per content digest (repeat jobs ship
nothing), shards are dispatched concurrently, and replies are merged in
canonical shard order — so results are bit-identical to
:class:`~repro.engine.executor.SerialExecutor` regardless of worker
count, arrival order, or failover. A dead or timed-out worker is
sidelined with exponential backoff and its shard retried on another
node (or run locally); no job ever fails because a node died.

**Tier B — service federation.**
:class:`~repro.dist.router.MiningRouter` (``sisd route``) fronts several
:class:`~repro.server.MiningServer` replicas and places each submission
by fingerprint-keyed consistent hashing
(:class:`~repro.dist.ring.HashRing`), so identical specs always land on
the replica holding their belief/result caches. Replicas are
health-checked through their boot-generation markers and the ring
rebalances on membership change. Job ids are tagged with the owning
replica (``job-0001@r0``), which keeps the router stateless:
``repro.client.RemoteWorkspace`` works against a router unchanged.

Both daemons are :class:`repro.server.http.Daemon` subclasses, like
:class:`~repro.server.MiningServer`: one lifecycle, keep-alive loop and
error envelope serve all three tiers.
"""

from repro.dist.executor import DistExecutor, ShardError, WorkerClient, WorkerUnavailable
from repro.dist.ring import HashRing
from repro.dist.router import MiningRouter
from repro.dist.worker import WorkerDaemon

__all__ = [
    "DistExecutor",
    "HashRing",
    "MiningRouter",
    "ShardError",
    "WorkerClient",
    "WorkerDaemon",
    "WorkerUnavailable",
]
