"""``repro.dist``: the mining engine's compute fan-out across machines.

:class:`~repro.dist.worker.WorkerDaemon` (``sisd worker``) is a small
HTTP daemon that caches session contexts by content address and
executes beam/spread shards. :class:`~repro.dist.executor.DistExecutor`
implements the engine's :class:`~repro.engine.executor.Executor`
protocol over a static list of those daemons: the context ships once
per content digest (repeat jobs ship nothing), shards are dispatched
concurrently, and replies are merged in canonical shard order — so
results are bit-identical to :class:`~repro.engine.executor.SerialExecutor`
regardless of worker count, arrival order, or failover. A dead or
timed-out worker is sidelined with exponential backoff and its shard
retried on another node (or run locally); no job ever fails because a
node died. The wire is stdlib-only.

The worker daemon is a :class:`repro.server.http.Daemon` subclass, like
:class:`~repro.server.MiningServer`: one lifecycle, keep-alive loop and
error envelope serve both.
"""

from repro.dist.executor import DistExecutor, ShardError, WorkerClient, WorkerUnavailable
from repro.dist.worker import WorkerDaemon

__all__ = [
    "DistExecutor",
    "ShardError",
    "WorkerClient",
    "WorkerDaemon",
    "WorkerUnavailable",
]
