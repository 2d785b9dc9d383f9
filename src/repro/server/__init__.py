"""Network subsystem: the mining engine served over HTTP (stdlib only).

- :class:`~repro.server.app.MiningServer` — asyncio HTTP + SSE front
  door over a :class:`~repro.engine.service.MiningService` (submit /
  status / result / cancel / list / health, plus a live event stream
  with reconnect-and-resume).
- :class:`~repro.server.hub.EventHub` — the worker-thread → asyncio
  bridge with sequence numbers, bounded queues, and a slow-consumer
  drop policy.
- :mod:`repro.server.wire` — the canonical JSON wire schemas, shared
  with :class:`repro.client.RemoteWorkspace`.
- :class:`~repro.server.http.Daemon` — the one asyncio HTTP daemon
  under the server and the worker: lifecycle, keep-alive
  loop (idle connections close after ``http.IDLE_TIMEOUT``), and the
  one error envelope.

Start one from the shell with ``sisd serve`` (see the CLI), or in
code::

    from repro.server import MiningServer

    handle = MiningServer(port=0).run_in_thread()
    print(handle.url)          # e.g. http://127.0.0.1:43921
    ...
    handle.stop()
"""

from repro.server.app import MiningServer
from repro.server.http import ServerHandle
from repro.server.hub import EventHub, Subscription
from repro.server.wire import WIRE_SCHEMA, RemoteEvent, event_from_wire

__all__ = [
    "MiningServer",
    "ServerHandle",
    "EventHub",
    "Subscription",
    "RemoteEvent",
    "WIRE_SCHEMA",
    "event_from_wire",
]
