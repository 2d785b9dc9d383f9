"""What the package's entry points load: start-up stays off the heavy modules.

Every ``sisd`` command, every ``sisd serve``/``sisd worker`` boot and
every spawn-started worker process imports these modules before it does
anything, so whatever they load is paid at every start. ``scipy.stats``
(about 0.4 s and 23 MB) is needed only by
:func:`repro.report.series.kde_series`, and ``repro.experiments`` only
by ``sisd experiment``; each is imported where it is used.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The modules a command, a daemon boot and a spawned worker import.
ENTRY_MODULES = ("repro", "repro.cli", "repro.server.app", "repro.dist.worker")
#: Modules none of them may load.
DEFERRED = ("scipy.stats", "repro.experiments")


def test_entry_points_do_not_load_the_deferred_modules():
    code = (
        "import json, sys\n"
        f"import {', '.join(ENTRY_MODULES)}\n"
        f"print(json.dumps([m for m in {list(DEFERRED)!r} if m in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
