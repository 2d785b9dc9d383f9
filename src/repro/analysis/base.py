"""The lint-rule contract and the :data:`RULES` registry.

Rules are small ``ast`` visitors registered by id in :data:`RULES` —
the same string-keyed :class:`repro.registry.Registry` idiom that backs
``DATASETS``/``MEASURES``, so third-party rule packs extend the linter
exactly the way new datasets extend the miner::

    from repro.analysis import LintRule, register_rule

    @register_rule
    class NoFooRule(LintRule):
        '''FOO001: don't call foo() — one paragraph of *why*.

        The docstring IS the documentation: ``sisd lint --explain
        FOO001`` prints it, and the README rules table is generated
        from its first line.
        '''

        rule_id = "FOO001"
        title = "don't call foo()"

        def check(self, source):
            ...yield self.finding(source, node, "message")

A rule limits where it fires with :attr:`LintRule.applies_to` — path
patterns matched against the forward-slash display path. A pattern
ending in ``/`` matches any file under that directory; anything else
matches as a path suffix. An empty tuple means every file.
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterable, Type

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile
from repro.errors import AnalysisError
from repro.registry import Registry

__all__ = ["LintRule", "RULES", "register_rule", "path_matches"]

#: Registered lint rules, keyed by rule id (``DET001``, ``ASY002``...).
RULES = Registry("lint rule", error=AnalysisError)


def path_matches(display_path: str, patterns: tuple[str, ...]) -> bool:
    """True when ``display_path`` matches any pattern (empty = all).

    Patterns use forward slashes. ``repro/store/`` matches every file
    in or under a ``repro/store`` directory; ``engine/cache.py``
    matches as a path suffix.
    """
    if not patterns:
        return True
    for pattern in patterns:
        if pattern.endswith("/"):
            if f"/{pattern}" in f"/{display_path}":
                return True
        elif display_path == pattern or display_path.endswith("/" + pattern):
            return True
    return False


class LintRule:
    """Base class of one statically checked contract.

    Subclasses set :attr:`rule_id` and :attr:`title`, implement
    :meth:`check`, and write a docstring explaining the invariant —
    that docstring is what ``sisd lint --explain RULE`` prints.
    """

    rule_id: str = ""
    title: str = ""
    #: Display-path patterns this rule fires on; empty = every file.
    applies_to: tuple[str, ...] = ()

    def applies(self, source: SourceFile) -> bool:
        """True when this rule should run on ``source`` at all."""
        return path_matches(source.display_path, self.applies_to)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``source``."""
        raise NotImplementedError

    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` in ``source``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.rule_id,
            path=source.display_path,
            line=line,
            col=col,
            message=message,
            snippet=source.line(line).strip(),
        )

    @classmethod
    def explain(cls) -> str:
        """The rule's documentation (its cleaned docstring)."""
        doc = inspect.getdoc(cls)
        return doc or f"{cls.rule_id}: (no documentation)"

    @classmethod
    def summary(cls) -> str:
        """First docstring line — the README/``--rules`` table entry."""
        return cls.explain().splitlines()[0].strip()


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: register ``cls`` in :data:`RULES` by its id."""
    if not cls.rule_id:
        raise AnalysisError(f"{cls.__name__} must set rule_id before registration")
    RULES.register(cls.rule_id, cls)
    return cls
