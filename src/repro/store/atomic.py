"""The store's one write discipline: a file is replaced whole or not at all.

Every durable file under :mod:`repro.store` — a job record, ``meta.json``,
a belief entry — is written by :func:`write_atomic`: the bytes go to a
temp file beside the target, which is flushed and fsynced, published
with ``os.replace``, and then the directory is fsynced so the new name
survives a crash too. A reader sees the previous file or the new one,
never a torn mix, and a crash mid-write leaves at most a stray
``*.tmp`` file beside the target.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable

__all__ = ["TMP_SUFFIX", "fsync_dir", "write_atomic"]

#: Suffix of a write's temp file (what a crash mid-write leaves behind).
TMP_SUFFIX = ".tmp"


def fsync_dir(directory: Path) -> None:
    """Force a directory's entries (new, renamed, removed names) to disk."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Durably replace ``path`` with the concatenation of ``chunks``."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
