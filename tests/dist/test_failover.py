"""Fault injection: a worker daemon SIGKILLed mid-shard.

The acceptance bar: killing a node while it holds in-flight shards must
not fail the job, reorder anything, or perturb a single bit of the
result — the coordinator retries the dead node's shards on the
surviving worker (or inline) and the merge is positional either way.

The killed worker is a real ``python -m repro worker`` subprocess on a
real socket; the survivor runs in-thread.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from distfns import slow_add
from repro.datasets import make_synthetic
from repro.dist.executor import DistExecutor
from repro.engine.executor import SerialExecutor

from test_executor import CONFIG, _search, assert_search_results_identical

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture
def subprocess_worker():
    """A worker daemon in its own process; yields (url, Popen)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), os.path.dirname(__file__)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0", "--parallel", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    url = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            url = line.split("listening on")[1].split()[0].strip()
            break
    if url is None:
        process.kill()
        pytest.fail("worker subprocess never announced its URL")
    yield url, process
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10.0)
    process.stdout.close()


def _kill_when_busy(url, process):
    """SIGKILL the worker the moment it has taken work (from a thread).

    Polling ``/health`` until the shard counter moves guarantees the
    kill lands while the coordinator still has shards routed at this
    node — the "mid-shard" the failover path must absorb.
    """
    from repro.dist.executor import WorkerClient, WorkerUnavailable

    client = WorkerClient(url, timeout=2.0)

    def watch():
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                stats = client.health()["shards"]
            except WorkerUnavailable:
                return
            if stats["shards"] >= 1 or stats["items"] >= 1:
                os.kill(process.pid, signal.SIGKILL)
                return
            time.sleep(0.02)

    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    return thread


class TestSigkillMidShard:
    def test_map_completes_identically(self, subprocess_worker, worker_pair):
        """SIGKILL one node while its slow shards are in flight."""
        url, process = subprocess_worker
        items = list(range(12))  # slow_add: ~0.3s per item
        expected = [100 + item for item in items]
        with DistExecutor([url, worker_pair[0]], timeout=30.0) as executor:
            killer = _kill_when_busy(url, process)
            with executor.session(100) as session:
                out = session.map(slow_add, items)
            killer.join(timeout=30.0)
        process.wait(timeout=10.0)
        assert out == expected
        assert executor.stats["failovers"] >= 1

    def test_beam_search_bit_identical(self, subprocess_worker, worker_pair):
        """The real miner, with a node dying mid-job: bit-identical."""
        url, process = subprocess_worker
        dataset = make_synthetic(0)
        serial = _search(dataset, SerialExecutor())
        with DistExecutor([url, worker_pair[0]], timeout=30.0) as executor:
            killer = _kill_when_busy(url, process)
            remote = _search(dataset, executor)
            killer.join(timeout=30.0)
        process.wait(timeout=10.0)
        assert_search_results_identical(serial, remote)

    def test_survivor_keeps_serving(self, subprocess_worker, worker_pair):
        """After the death, later sessions run entirely on the survivor."""
        url, process = subprocess_worker
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10.0)
        with DistExecutor(
            [url, worker_pair[0]], timeout=5.0, local_fallback=False
        ) as executor:
            with executor.session(1) as session:
                assert session.map(_quick, [1, 2, 3]) == [2, 3, 4]
            assert executor.stats["shards_remote"] > 0


def _quick(context, item):
    return context + item
