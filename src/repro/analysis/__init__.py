"""``repro.analysis``: contract-aware static analysis (``sisd lint``).

The repo's load-bearing invariants — bit-identical determinism across
executors, a never-blocked asyncio tier, module-level callables at
every pickle boundary, resources released on all paths — are enforced
dynamically by the equivalence suites, which can only see a bug *fire*.
This package enforces them statically, on every file, before anything
runs:

====== ==============================================================
DET001 no wall-clock reads in fingerprint/cache/merge-critical modules
DET002 no global/unseeded RNG in determinism-critical modules
DET003 no bare set iteration in determinism-critical modules
DET004 instrumented modules read clocks via the repro.obs.clock seam
ASY001 no blocking calls lexically inside ``async def``
ASY002 never ``await`` while holding a ``threading.Lock``
PKL001 callables crossing a process boundary must be module-level
RES001 acquired handles must release on all paths
RES002 write-then-rename must fsync before the rename
====== ==============================================================

Rules live in :data:`~repro.analysis.base.RULES`, a string-keyed
:class:`repro.registry.Registry` — the same extension idiom as
``DATASETS``/``MEASURES``. ``sisd lint --explain RULE`` prints a rule's
docstring; ``# sisd: ignore[RULE] reason`` silences one line;
``--baseline`` grandfathers a legacy tree. See the README's
"Static analysis" section for the policy.
"""

from __future__ import annotations

from repro.analysis.base import RULES, LintRule, register_rule
from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.engine import LintEngine, LintReport, changed_files
from repro.analysis.findings import REPORT_SCHEMA, Finding
from repro.analysis.source import SourceFile

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "LintRule",
    "REPORT_SCHEMA",
    "RULES",
    "SourceFile",
    "apply_baseline",
    "changed_files",
    "load_baseline",
    "register_rule",
    "write_baseline",
]
