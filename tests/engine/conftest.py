"""Engine-test fixtures: shared-memory leak detection.

Every engine test runs under a teardown check that no shared-memory
segment created by this process survived the test — the acceptance
criterion of the zero-copy transport is that a run (including a failing
one) leaves ``/dev/shm`` exactly as it found it.
"""

import os

import pytest

from repro.engine import shm
from repro.engine.cache import BELIEF_CACHE


@pytest.fixture(autouse=True)
def fresh_belief_cache():
    """Start every engine test with a cold process-wide belief cache.

    Services default to the shared BELIEF_CACHE, so without this a
    test's 'slow blocker' job replays instantly once any earlier test
    mined the same belief chain — timing-based scheduling tests would
    couple across the file. Results are bit-identical either way; only
    timing isolation is at stake.
    """
    BELIEF_CACHE.clear()
    yield


def _dev_shm_segments() -> set[str]:
    """This process's segment files visible in /dev/shm (Linux only).

    Segment names carry their creator's pid, and only the coordinating
    process creates segments, so another test process's segments are
    never counted as this one's leaks.
    """
    prefix = f"{shm.segment_prefix()}_{os.getpid():x}_"
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
    except OSError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture(autouse=True)
def no_shared_memory_leaks():
    """Fail any engine test that leaks a shared-memory segment."""
    before = _dev_shm_segments()
    yield
    assert shm.live_segments() == frozenset(), (
        "test leaked shared-memory segments (ArrayStore not closed): "
        f"{sorted(shm.live_segments())}"
    )
    leaked = _dev_shm_segments() - before
    assert not leaked, f"test leaked /dev/shm segments: {sorted(leaked)}"
