"""Resource-safety rules: handles close on every path, renames hit disk.

Shared-memory segments outlive the process on leak (``/dev/shm`` fills
until reboot), sqlite connections hold file locks, and a write-then-
rename that skips the ``fsync`` can publish a zero-length file after a
crash — the exact torn-state class
:func:`repro.store.atomic.write_atomic` exists to prevent. These rules
check the lexical shape of acquisition: a context manager, or a
``try``/``finally`` that releases the handle.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.base import LintRule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile, scope_statements

#: Calls that acquire a handle the caller must release.
_CREATORS = {
    "open": "close()",
    "os.fdopen": "close()",
    "sqlite3.connect": "close()",
    "socket.socket": "close()",
    "socket.create_connection": "close()",
    "http.client.HTTPConnection": "close()",
    "http.client.HTTPSConnection": "close()",
    "multiprocessing.shared_memory.SharedMemory": "close() and unlink()",
}

#: Method names that count as releasing a handle.
_RELEASES = frozenset(
    {"close", "unlink", "shutdown", "terminate", "release", "stop"}
)


def _released_in_finally(scope: ast.AST, name: str) -> bool:
    """True when ``name.<release>()`` appears inside a finally block."""
    for node in scope_statements(scope):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for inner in ast.walk(stmt):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in _RELEASES
                    and isinstance(inner.func.value, ast.Name)
                    and inner.func.value.id == name
                ):
                    return True
    return False


def _escapes(source: SourceFile, scope: ast.AST, name: str) -> bool:
    """True when the handle leaves this scope (ownership transferred).

    Returned/yielded handles belong to the caller; handles stored into
    attributes, containers, or passed to other calls are released by
    whoever holds them (e.g. the shm leak registry). Only a handle that
    provably stays local is this scope's problem. Method calls *on* the
    handle (``fh.read()``, ``conn.close()``) do not count as escaping.
    """
    for node in scope_statements(scope):
        if not (isinstance(node, ast.Name) and node.id == name):
            continue
        parent = source.parent(node)
        # Receiver of a method call: fh.read(), conn.close() — local use.
        if isinstance(parent, ast.Attribute):
            continue
        # Store target (the creating assignment or a rebind).
        if isinstance(node.ctx, ast.Store):
            continue
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        # Positional/keyword argument of some other call, or packed into
        # a container/starred expression: ownership moved.
        if isinstance(parent, ast.Call) and node in parent.args:
            return True
        if isinstance(parent, ast.keyword):
            return True
        if isinstance(
            parent, (ast.List, ast.Tuple, ast.Set, ast.Dict, ast.Starred)
        ):
            return True
        if isinstance(parent, ast.Assign) and node is parent.value:
            return True  # aliased: the alias may be the one closed
        if isinstance(parent, ast.Subscript):
            return True  # registry[name] = handle style
    return False


@register_rule
class UnclosedHandleRule(LintRule):
    """RES001: acquired handles must release on all paths.

    A ``SharedMemory`` segment, sqlite connection, socket, or file
    handle assigned to a local variable and closed only on the happy
    path leaks the moment an exception skips the ``close()`` —
    shared-memory segments survive the *process* and fill ``/dev/shm``
    until reboot. Acquire under ``with``, or release in a
    ``try``/``finally``. Handles that escape the function (returned,
    registered, stored on ``self``) are the holder's responsibility and
    are not flagged.
    """

    rule_id = "RES001"
    title = "resource acquired without close()/unlink() on all paths"

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for scope in source.scopes():
            yield from self._check_scope(source, scope)

    def _check_scope(self, source: SourceFile, scope: ast.AST) -> Iterator[Finding]:
        for node in scope_statements(scope):
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            qual = source.qualname(node.value.func)
            release = _CREATORS.get(qual or "")
            if release is None:
                continue
            if self._inside_with(source, node):
                continue
            name = node.targets[0].id
            if _released_in_finally(scope, name):
                continue
            if _escapes(source, scope, name):
                continue
            yield self.finding(
                source,
                node.value,
                f"{qual}() result {name!r} is not guaranteed {release}; "
                f"use a with block or try/finally",
            )

    @staticmethod
    def _inside_with(source: SourceFile, node: ast.AST) -> bool:
        for ancestor in source.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                return True
        return False


@register_rule
class RenameWithoutFsyncRule(LintRule):
    """RES002: write-then-rename must fsync before the rename.

    ``os.replace`` publishes a file atomically — but atomicity is about
    *names*, not bytes. If the data was never fsynced, a crash after
    the rename can leave the final path holding a zero-length or
    partial file: the metadata journal committed the rename while the
    data pages were still in the page cache. Every durable write in
    :mod:`repro.store` goes through
    :func:`repro.store.atomic.write_atomic` (write → flush →
    ``os.fsync`` → ``os.replace`` → fsync of the directory); this rule
    keeps any other rename there honest.
    """

    rule_id = "RES002"
    title = "write-then-rename without an intervening fsync"
    applies_to = ("repro/store/",)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for scope in source.scopes():
            if isinstance(scope, ast.Lambda):
                continue
            yield from self._check_scope(source, scope)

    def _check_scope(self, source: SourceFile, scope: ast.AST) -> Iterator[Finding]:
        writes: list[int] = []
        fsyncs: list[int] = []
        renames: list[ast.Call] = []
        for node in scope_statements(scope):
            if not isinstance(node, ast.Call):
                continue
            qual = source.qualname(node.func)
            if qual in ("os.replace", "os.rename"):
                renames.append(node)
            elif qual == "os.fsync":
                fsyncs.append(node.lineno)
            elif qual in ("open", "os.fdopen"):
                if self._opens_for_write(node):
                    writes.append(node.lineno)
        for rename in renames:
            wrote_before = any(line < rename.lineno for line in writes)
            synced_before = any(line < rename.lineno for line in fsyncs)
            if wrote_before and not synced_before:
                yield self.finding(
                    source,
                    rename,
                    "rename publishes data that was never fsynced; call "
                    "os.fsync(fh.fileno()) after the write and before "
                    "os.replace",
                )

    @staticmethod
    def _opens_for_write(node: ast.Call) -> bool:
        mode = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                mode = keyword.value.value
        if not isinstance(mode, str):
            return False
        return any(flag in mode for flag in ("w", "a", "x", "+"))
