"""Determinism rules: nothing wall-clock or hash-ordered near a fingerprint.

The repo's headline guarantee is that re-mining the same ``MiningSpec``
anywhere — serial, thread, process, shm, distributed — reproduces the
same SI scores to the bit. That only holds if the modules computing
fingerprints, cache keys, and shard merges never consult a source of
run-to-run variation. These rules fire inside the critical-path modules
(:data:`CRITICAL_PATHS`) plus any file carrying a ``# sisd: critical``
marker.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.base import LintRule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile, scope_statements

__all__ = ["CRITICAL_PATHS", "INSTRUMENTED_PATHS"]

#: Modules whose output feeds fingerprints, cache keys, or shard merges.
#: New cache-keyed modules belong on this list (or carry the
#: ``# sisd: critical`` file marker) the moment they exist.
CRITICAL_PATHS = (
    "repro/spec.py",
    "repro/persist.py",
    "repro/engine/cache.py",
    "repro/engine/jobs.py",
    "repro/dist/executor.py",
    "repro/dist/ring.py",
)


class _CriticalRule(LintRule):
    """Shared applicability: critical-path modules + marked files."""

    applies_to = CRITICAL_PATHS

    def applies(self, source: SourceFile) -> bool:
        """Critical modules only: the path list plus the file marker."""
        return source.marked_critical or super().applies(source)


#: Calls that read the wall clock (vary run to run by construction).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_rule
class WallClockRule(_CriticalRule):
    """DET001: no wall-clock reads in fingerprint/cache/merge-critical modules.

    ``time.time()`` or ``datetime.now()`` flowing into a fingerprint,
    cache key, or merged result makes two runs of the same spec produce
    different digests — the belief cache stops hitting and the
    bit-identical contract breaks silently. Durations belong to
    ``time.monotonic()`` (never part of results); timestamps belong at
    the presentation layer, outside these modules.
    """

    rule_id = "DET001"
    title = "wall-clock read in a determinism-critical module"

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                qual = source.qualname(node.func)
                if qual in _WALL_CLOCK:
                    yield self.finding(
                        source,
                        node,
                        f"{qual}() varies run to run; use time.monotonic() "
                        f"for durations or move timestamps out of the "
                        f"fingerprint path",
                    )


#: Module-level (implicitly seeded) RNG entry points.
_GLOBAL_RANDOM = frozenset(
    f"random.{name}"
    for name in (
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "getrandbits",
    )
)
_GLOBAL_NP_RANDOM = frozenset(
    f"numpy.random.{name}"
    for name in (
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
    )
)


@register_rule
class UnseededRandomRule(_CriticalRule):
    """DET002: no global-RNG calls in determinism-critical modules.

    ``random.random()`` and the legacy ``np.random.*`` functions draw
    from process-global state seeded by whoever ran first — results then
    depend on import order, thread interleaving, and worker reuse. Use
    an explicitly seeded instance (``random.Random(seed)``,
    ``np.random.default_rng(seed)``) threaded through the call chain,
    the way :mod:`repro.utils.rng` already does.
    """

    rule_id = "DET002"
    title = "global/unseeded RNG in a determinism-critical module"

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = source.qualname(node.func)
            if qual in _GLOBAL_RANDOM or qual in _GLOBAL_NP_RANDOM:
                yield self.finding(
                    source,
                    node,
                    f"{qual}() draws from the process-global RNG; pass an "
                    f"explicitly seeded Random/Generator instance instead",
                )
            elif qual == "numpy.random.default_rng" and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    source,
                    node,
                    "default_rng() without a seed is entropy-seeded; pass "
                    "the spec's seed explicitly",
                )


def _setish_names(scope: ast.AST) -> set[str]:
    """Names assigned only set-valued expressions within ``scope``."""
    setish: set[str] = set()
    tainted: set[str] = set()
    for node in scope_statements(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value, ()):
                    setish.add(target.id)
                else:
                    tainted.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
            if isinstance(target, ast.Name):
                tainted.add(target.id)
    return setish - tainted


def _is_set_expr(node: ast.AST, setish_names: tuple[str, ...] | set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in setish_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, setish_names) or _is_set_expr(
            node.right, setish_names
        )
    return False


@register_rule
class SetIterationRule(_CriticalRule):
    """DET003: no bare set iteration in determinism-critical modules.

    Iterating a ``set`` yields hash order, which changes across
    processes (string hash randomization) and across runs — a loop over
    a set that feeds a fingerprint, cache key, or merged result list is
    a portability bug waiting to fire. Wrap the set in ``sorted(...)``
    to pin the order (dicts are insertion-ordered and stay allowed).
    """

    rule_id = "DET003"
    title = "unordered set iteration in a determinism-critical module"

    _MESSAGE = (
        "iteration order over a set is hash-dependent; wrap it in "
        "sorted(...) before it can feed a fingerprint or merge"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for scope in source.scopes():
            if isinstance(scope, ast.Lambda):
                continue
            names = _setish_names(scope)
            yield from self._check_scope(source, scope, names)

    def _check_scope(
        self, source: SourceFile, scope: ast.AST, names: set[str]
    ) -> Iterator[Finding]:
        for node in scope_statements(scope):
            iter_expr: ast.AST | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, ast.comprehension):
                iter_expr = node.iter
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("list", "tuple", "enumerate") and node.args:
                    iter_expr = node.args[0]
            if iter_expr is None or not _is_set_expr(iter_expr, names):
                continue
            if self._order_pinned(source, node):
                continue
            yield self.finding(source, iter_expr, self._MESSAGE)

    @staticmethod
    def _order_pinned(source: SourceFile, node: ast.AST) -> bool:
        """True when an enclosing call pins the order (sorted/min/max...)."""
        for ancestor in source.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return False
            if isinstance(ancestor, ast.Call) and isinstance(
                ancestor.func, ast.Name
            ):
                if ancestor.func.id in ("sorted", "min", "max", "sum", "len"):
                    return True
        return False


#: Modules whose clock reads must route through :mod:`repro.obs.clock`.
#: These are the instrumented tiers: their timers feed metrics and trace
#: spans, and tests pin them with ``clock.fixed(...)`` — a direct
#: ``time.*`` read there is invisible to that seam. A newly instrumented
#: module belongs on this list the moment it grows its first timer.
INSTRUMENTED_PATHS = (
    "repro/obs/",
    "repro/search/beam.py",
    "repro/search/miner.py",
    "repro/engine/service.py",
    "repro/engine/jobs.py",
    "repro/dist/executor.py",
    "repro/dist/worker.py",
    "repro/dist/router.py",
    "repro/server/app.py",
    "repro/server/hub.py",
    "repro/utils/timer.py",
)

#: Clock reads the seam wraps. ``time.sleep`` is deliberately absent:
#: sleeping is pacing, not measurement, and stays allowed.
_CLOCK_READS = frozenset(
    f"time.{name}"
    for name in (
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    )
)

#: Seam function replacing each direct read (the finding's suggestion).
_SEAM_FOR = {
    "time.time": "clock.wall_time",
    "time.time_ns": "clock.wall_time",
    "time.monotonic": "clock.monotonic",
    "time.monotonic_ns": "clock.monotonic",
}


@register_rule
class ClockSeamRule(LintRule):
    """DET004: instrumented modules read clocks via the repro.obs.clock seam.

    The instrumented tiers (beam phases, scheduler, dist shards, server)
    time themselves into metrics and trace spans, and their tests pin
    time with ``repro.obs.clock.fixed(...)``. A direct ``time.*`` read
    in one of those modules bypasses the seam: the timer works in
    production but cannot be frozen in tests, and mixed clock bases
    (seam here, raw read there) produce negative or skewed durations.
    Route reads through ``clock.monotonic()`` / ``clock.perf_counter()``
    / ``clock.wall_time()`` instead. ``time.sleep`` is pacing, not
    measurement, and stays allowed; the seam module itself is the one
    place raw reads belong.
    """

    rule_id = "DET004"
    title = "direct clock read bypassing the repro.obs.clock seam"
    applies_to = INSTRUMENTED_PATHS

    def applies(self, source: SourceFile) -> bool:
        """Instrumented modules, minus the seam module itself."""
        if source.display_path.endswith("repro/obs/clock.py"):
            return False
        return super().applies(source)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                qual = source.qualname(node.func)
                if qual in _CLOCK_READS:
                    seam = _SEAM_FOR.get(qual, "clock.perf_counter")
                    yield self.finding(
                        source,
                        node,
                        f"{qual}() bypasses the repro.obs.clock seam in an "
                        f"instrumented module; call {seam}() so tests can "
                        f"pin time with clock.fixed(...)",
                    )
