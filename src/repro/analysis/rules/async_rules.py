"""Asyncio-hygiene rules: the event loop never blocks, locks never park.

The served tier (:mod:`repro.server`, :mod:`repro.dist.worker`) runs
every connection on one asyncio loop; a single blocking call in a
handler stalls every concurrent client, and an ``await`` issued while a
``threading.Lock`` is held can deadlock the loop against the worker
threads that need that lock. These rules are
lexical — they fire on code *written inside* ``async def``, which is
exactly the surface where blocking primitives are never acceptable
(hand them to ``loop.run_in_executor`` or a worker thread instead).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.base import LintRule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile, scope_statements

#: Known-blocking callables a coroutine must never invoke directly.
_BLOCKING = frozenset(
    {
        "time.sleep",
        "open",
        "os.fsync",
        "os.fdopen",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
        "http.client.HTTPConnection",
        "http.client.HTTPSConnection",
        "urllib.request.urlopen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Qualified constructors of thread-level (non-asyncio) locks.
_THREAD_LOCKS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)


@register_rule
class BlockingCallInAsyncRule(LintRule):
    """ASY001: no blocking calls lexically inside ``async def``.

    ``time.sleep``, synchronous sockets/HTTP, file I/O, and ``fsync``
    inside a coroutine freeze the whole event loop: every other
    connection, health check, and SSE heartbeat stops until the call
    returns. Use the asyncio equivalent (``await asyncio.sleep``,
    ``asyncio.open_connection``) or push the work onto a thread with
    ``loop.run_in_executor`` — the pattern
    :meth:`repro.dist.worker.WorkerDaemon._run_shard` already uses.
    """

    rule_id = "ASY001"
    title = "blocking call inside async def"

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = source.qualname(node.func)
            if qual not in _BLOCKING:
                continue
            scope = source.enclosing_function(node)
            if isinstance(scope, ast.AsyncFunctionDef):
                hint = (
                    "await asyncio.sleep(...)"
                    if qual == "time.sleep"
                    else "loop.run_in_executor(...) or the asyncio equivalent"
                )
                yield self.finding(
                    source,
                    node,
                    f"{qual}() blocks the event loop inside "
                    f"'async def {scope.name}'; use {hint}",
                )


def _looks_like_thread_lock(source: SourceFile, expr: ast.AST) -> str | None:
    """A human name for ``expr`` when it plausibly is a threading lock."""
    if isinstance(expr, ast.Call):
        # ``with threading.Lock():`` — constructed inline.
        qual = source.qualname(expr.func)
        return qual if qual in _THREAD_LOCKS else None
    qual = source.qualname(expr)
    if qual in _THREAD_LOCKS:
        return qual
    # Attribute/name heuristic: anything whose final segment mentions
    # "lock" or "mutex" (self._lock, self._contexts_lock, shard_mutex).
    # ``async with`` on an asyncio.Lock is an AsyncWith node and never
    # reaches this check.
    last: str | None = None
    if isinstance(expr, ast.Attribute):
        last = expr.attr
    elif isinstance(expr, ast.Name):
        last = expr.id
    if last is not None and ("lock" in last.lower() or "mutex" in last.lower()):
        return last
    return None


@register_rule
class AwaitUnderThreadLockRule(LintRule):
    """ASY002: never ``await`` while holding a ``threading.Lock``.

    A ``with self._lock:`` block in a coroutine that awaits inside the
    block parks the coroutine *with the lock held*. Any worker thread —
    or any other coroutine resumed on the loop — that then takes the
    same lock blocks forever: the loop cannot resume the holder because
    the thread holding the loop is waiting on the lock. Restructure so
    the lock is released before awaiting, or use ``asyncio.Lock`` with
    ``async with``.
    """

    rule_id = "ASY002"
    title = "await while holding a threading.Lock"

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            yield from self._check_coroutine(source, node)

    def _check_coroutine(
        self, source: SourceFile, coroutine: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node in scope_statements(coroutine):
            if not isinstance(node, ast.With):
                continue
            lock_name = None
            for item in node.items:
                lock_name = _looks_like_thread_lock(source, item.context_expr)
                if lock_name:
                    break
            if lock_name is None:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Await,)):
                    inner_scope = source.enclosing_function(inner)
                    if inner_scope is coroutine:
                        yield self.finding(
                            source,
                            inner,
                            f"await while holding {lock_name!r} can deadlock "
                            f"the event loop against worker threads; release "
                            f"the lock first or use asyncio.Lock",
                        )
