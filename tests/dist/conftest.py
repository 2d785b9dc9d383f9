"""Distributed-tier fixtures: in-thread worker daemons on real sockets.

The daemons are real HTTP servers on ephemeral localhost ports — the
tests exercise the actual wire path (pickle over HTTP), not an in-memory
stand-in. ``distfns`` (module-level shard functions) is made importable
here because pickled functions travel by reference.
"""

import os
import sys

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
