"""Distributed-tier fixtures: in-thread worker daemons on real sockets.

The daemons are real HTTP servers on ephemeral localhost ports — the
tests exercise the actual wire path (pickle over HTTP), not an in-memory
stand-in. ``distfns`` (module-level shard functions) is made importable
here because pickled functions travel by reference.
"""

import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.dist.worker import WorkerDaemon  # noqa: E402


@pytest.fixture(scope="module")
def worker_pair():
    """Two live worker daemons; yields their base URLs."""
    first = WorkerDaemon(parallelism=2)
    second = WorkerDaemon(parallelism=2)
    handles = [first.run_in_thread(), second.run_in_thread()]
    yield (first.url, second.url)
    for handle in handles:
        handle.stop()


class _TruncatingHandler(BaseHTTPRequestHandler):
    def _reply(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        peer = self.server
        with peer.lock:
            peer.requests += 1
            whole = peer.requests <= peer.whole
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(peer.body) if whole else 100))
        self.end_headers()
        self.wfile.write(peer.body if whole else peer.body[:5])

    do_GET = do_POST = do_PUT = _reply

    def log_message(self, *args):
        pass


class TruncatingPeer(ThreadingHTTPServer):
    """A localhost HTTP peer that cuts its replies short.

    It answers the first ``whole`` requests with ``body`` in full. Every
    later reply declares ``Content-Length: 100``, sends at most five
    bytes and closes, so the client reading it sees a truncated body.
    """

    daemon_threads = True

    def __init__(self, body: bytes, whole: int = 0) -> None:
        super().__init__(("127.0.0.1", 0), _TruncatingHandler)
        self.body = body
        self.whole = whole
        self.requests = 0
        self.lock = threading.Lock()
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def truncating_peer():
    """Starts :class:`TruncatingPeer` instances; stops them afterwards."""
    peers = []

    def start(body: bytes, whole: int = 0) -> TruncatingPeer:
        peer = TruncatingPeer(body, whole)
        threading.Thread(target=peer.serve_forever, daemon=True).start()
        peers.append(peer)
        return peer

    yield start
    for peer in peers:
        peer.shutdown()
        peer.server_close()
