"""The one HTTP daemon under both tiers: idle bound, Connection, shutdown.

:class:`~repro.server.MiningServer` and :class:`~repro.dist.WorkerDaemon`
share :class:`repro.server.http.Daemon`, so each test here runs against
both: in-thread on an ephemeral port, or as the real
``python -m repro serve|worker`` process.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.dist import WorkerDaemon
from repro.server import MiningServer, http

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

DAEMONS = {
    "server": lambda: MiningServer(port=0, backend="thread", max_workers=1),
    "worker": lambda: WorkerDaemon(parallelism=1),
}

#: ``sisd`` arguments starting each daemon on a free port.
CLI_ARGS = {
    "server": ["serve", "--port", "0", "--quiet", "--no-candidates"],
    "worker": ["worker", "--port", "0", "--parallel", "1"],
}

#: Runs ``python -m repro`` with Python's own Ctrl-C handler, the way a
#: terminal starts it, even when this test process inherited SIGINT
#: ignored (as jobs started with ``&`` by a non-interactive shell do).
_RUN_CLI = (
    "import runpy, signal; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); "
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
)


def _stacks_of(process: subprocess.Popen) -> str:
    """Abort a hung child started with ``PYTHONFAULTHANDLER=1``; its output.

    The fault handler answers SIGABRT by writing the traceback of every
    thread to stderr, which the caller merged into ``stdout``.
    """
    process.send_signal(signal.SIGABRT)
    process.wait(timeout=10.0)
    return process.stdout.read()


@pytest.fixture(params=sorted(DAEMONS))
def running(request):
    """One daemon of each kind, in-thread; yields (daemon, handle)."""
    daemon = DAEMONS[request.param]()
    handle = daemon.run_in_thread()
    yield daemon, handle
    handle.stop()


class _Firehose(http.Daemon):
    """Streams without end, like an SSE route; flags when writes back up."""

    role = "firehose"

    def __init__(self) -> None:
        super().__init__("127.0.0.1", 0)
        self.backed_up = threading.Event()

    async def respond(self, request, reader, writer):
        writer.write(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n")
        while True:
            writer.write(b"x" * 65536)
            if writer.transport.get_write_buffer_size() >= 65536:
                self.backed_up.set()  # the next drain() waits on the client
            await writer.drain()


def _connect(daemon, timeout):
    return socket.create_connection((daemon.host, daemon.port), timeout=timeout)


def _read_response(sock) -> tuple[bytes, bytes]:
    """One whole ``Content-Length`` response: (head, body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return head, body


def _park(host: str, port: int):
    """A keep-alive client that has had one answer and now sits idle."""
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.sendall(b"GET /health HTTP/1.1\r\nHost: sisd\r\n\r\n")
    head, _ = _read_response(sock)
    assert head.startswith(b"HTTP/1.1 200"), head
    assert b"\r\nConnection: keep-alive" in head, head
    return sock


class TestKeepAliveLoop:
    def test_an_idle_connection_is_closed(self, running, monkeypatch):
        daemon, _ = running
        monkeypatch.setattr(http, "IDLE_TIMEOUT", 0.3)
        with _connect(daemon, timeout=2.0) as sock:
            # EOF within the 2 s socket timeout; a daemon that never
            # closes the socket fails this with socket.timeout.
            assert sock.recv(1) == b""

    def test_connection_close_is_answered_in_kind(self, running):
        daemon, _ = running
        with _connect(daemon, timeout=5.0) as sock:
            sock.sendall(
                b"GET /health HTTP/1.1\r\nHost: sisd\r\nConnection: close\r\n\r\n"
            )
            head, _ = _read_response(sock)
            assert head.startswith(b"HTTP/1.1 200"), head
            assert b"\r\nConnection: close" in head, head
            assert sock.recv(1) == b""  # ...and the daemon then closes

    def test_a_kept_connection_serves_the_next_request(self, running):
        daemon, _ = running
        with _park(daemon.host, daemon.port) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: sisd\r\n\r\n")
            head, _ = _read_response(sock)
            assert head.startswith(b"HTTP/1.1 200"), head

    def test_unrouted_path_gets_the_one_error_envelope(self, running):
        daemon, _ = running
        with _connect(daemon, timeout=5.0) as sock:
            sock.sendall(b"GET /nowhere HTTP/1.1\r\nHost: sisd\r\n\r\n")
            head, body = _read_response(sock)
        assert head.startswith(b"HTTP/1.1 404"), head
        document = json.loads(body)
        assert document["schema"] == 1
        assert document["error"]["type"] == "HttpError"
        assert "no route for GET /nowhere" in document["error"]["message"]


class TestShutdown:
    @pytest.mark.parametrize("kind", sorted(DAEMONS))
    def test_stop_does_not_wait_on_an_idle_keep_alive_client(self, kind):
        daemon = DAEMONS[kind]()
        handle = daemon.run_in_thread()
        with _park(daemon.host, daemon.port):
            started = time.monotonic()
            handle.stop(timeout=5.0)
            assert time.monotonic() - started < 5.0
            assert not handle._thread.is_alive()

    def test_stop_does_not_wait_on_a_client_that_stopped_reading(self):
        daemon = _Firehose()
        handle = daemon.run_in_thread()
        with _connect(daemon, timeout=10.0) as sock:
            sock.sendall(b"GET /stream HTTP/1.1\r\nHost: sisd\r\n\r\n")
            assert daemon.backed_up.wait(10.0), "the stream never backed up"
            started = time.monotonic()
            handle.stop(timeout=5.0)
            assert time.monotonic() - started < 5.0
            assert not handle._thread.is_alive()

    @pytest.mark.parametrize("kind", sorted(CLI_ARGS))
    def test_one_ctrl_c_stops_the_cli_daemon(self, kind):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        # SIGABRT then prints every thread's stack (see _stacks_of).
        env["PYTHONFAULTHANDLER"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-c", _RUN_CLI, *CLI_ARGS[kind]],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            for line in process.stdout:
                if "listening on http://" in line:
                    break
            else:
                pytest.fail(f"sisd {kind} exited {process.wait()} unannounced")
            url = line.split("listening on http://")[1].split()[0]
            host, _, port = url.rpartition(":")
            with _park(host, int(port)):
                process.send_signal(signal.SIGINT)
                try:
                    code = process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    pytest.fail(
                        f"sisd {kind} still ran 10 s after one SIGINT; "
                        f"where its threads were:\n{_stacks_of(process)}"
                    )
                assert code == 0
            assert "stopped" in process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
            process.stdout.close()
