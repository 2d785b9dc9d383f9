"""The shipped tree passes its own gates: ``sisd lint src/`` is clean.

This is the test that keeps the linter honest in both directions — the
rules must fire (proven by the fixture tests) *and* the code this repo
actually ships must satisfy them. A new violation anywhere in ``src/``
fails this test locally, before CI ever sees it.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, LintEngine
from repro.analysis.rules.determinism import CRITICAL_PATHS, INSTRUMENTED_PATHS
from repro.analysis.rules.resources import RenameWithoutFsyncRule

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        engine = LintEngine(root=REPO_ROOT)
        report = engine.lint([SRC])
        assert report.files > 50, "src/ collection looks wrong"
        messages = [finding.format() for finding in report.findings]
        assert report.clean, "sisd lint src/ found:\n" + "\n".join(messages)

    def test_every_rule_is_documented(self):
        for rule_id in RULES:
            rule = RULES.get(rule_id)
            assert rule.summary().startswith(rule_id), (
                f"{rule_id}: docstring must open with its id"
            )
            assert len(rule.explain().splitlines()) > 2, (
                f"{rule_id}: --explain needs a real paragraph, not a stub"
            )

    def test_every_lint_scope_names_a_real_path(self):
        # A scope entry that matches no file fires on nothing, silently:
        # deleting or moving a module must also update the scopes.
        scopes = {
            "CRITICAL_PATHS": CRITICAL_PATHS,
            "INSTRUMENTED_PATHS": INSTRUMENTED_PATHS,
            "RES002.applies_to": RenameWithoutFsyncRule.applies_to,
        }
        for rule_id in RULES:
            scopes[f"{rule_id}.applies_to"] = RULES.get(rule_id).applies_to
        missing = [
            f"{name}: {entry}"
            for name, entries in scopes.items()
            for entry in entries
            if not (SRC / entry).exists()
            or (SRC / entry).is_dir() != entry.endswith("/")
        ]
        assert not missing, "lint scopes name no file under src/:\n" + "\n".join(
            missing
        )

    def test_cli_entry_point_exits_zero_on_src(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestTypeGate:
    @pytest.mark.skipif(
        importlib.util.find_spec("mypy") is None,
        reason="mypy not installed (CI installs it)",
    )
    def test_typed_modules_pass_mypy(self):
        result = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
