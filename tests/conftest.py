"""Shared fixtures: session-scoped datasets and models (they are expensive),
and localhost peers that send broken replies."""

from __future__ import annotations

import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.datasets import (
    make_crime,
    make_mammals,
    make_socio,
    make_synthetic,
    make_water,
)
from repro.model import BackgroundModel


@pytest.fixture(scope="session")
def synthetic_dataset():
    return make_synthetic(0)


@pytest.fixture(scope="session")
def crime_dataset():
    return make_crime(0)


@pytest.fixture(scope="session")
def mammals_dataset():
    return make_mammals(0)


@pytest.fixture(scope="session")
def socio_dataset():
    return make_socio(0)


@pytest.fixture(scope="session")
def water_dataset():
    return make_water(0)


@pytest.fixture()
def synthetic_model(synthetic_dataset):
    """A fresh empirical-prior model per test (models are mutable)."""
    return BackgroundModel.from_targets(synthetic_dataset.targets)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


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


class _FixedReplyHandler(socketserver.StreamRequestHandler):
    def handle(self):
        while self.rfile.readline() not in (b"\r\n", b"\n", b""):
            pass  # skip the request head
        self.wfile.write(self.server.reply)


class FixedReplyPeer(socketserver.ThreadingTCPServer):
    """A localhost peer that answers every request with fixed raw bytes.

    It reads the request head, writes ``reply`` verbatim and closes the
    connection, so a test can send what no HTTP server would: a garbage
    status line, a header line past ``http.client``'s limit.
    """

    daemon_threads = True

    def __init__(self, reply: bytes) -> None:
        super().__init__(("127.0.0.1", 0), _FixedReplyHandler)
        self.reply = reply
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


def _started_peers(peer_class):
    """Yield a starter of ``peer_class`` servers; stop them afterwards."""
    peers = []

    def start(*args, **kwargs):
        peer = peer_class(*args, **kwargs)
        threading.Thread(target=peer.serve_forever, daemon=True).start()
        peers.append(peer)
        return peer

    yield start
    for peer in peers:
        peer.shutdown()
        peer.server_close()


@pytest.fixture
def truncating_peer():
    """Starts :class:`TruncatingPeer` instances; stops them afterwards."""
    yield from _started_peers(TruncatingPeer)


@pytest.fixture
def fixed_reply_peer():
    """Starts :class:`FixedReplyPeer` instances; stops them afterwards."""
    yield from _started_peers(FixedReplyPeer)
