"""``python -m repro serve`` with the traced run's layer wrappers installed.

    python perfbench/serve_traced.py OUT.json serve --quiet --port 0

Installs the engine wrappers of :mod:`perfbench.tracing`, runs the
repository's own CLI with the remaining arguments, and when the server
stops (SIGINT) writes the wrapper totals and spans to ``OUT.json``.
Spans are tagged with the trace id of the job they ran in.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from perfbench.tracing import Tracer, install_engine
    from repro.cli import main as cli_main
    from repro.obs.trace import current

    def request_of():
        ctx = current()
        return None if ctx is None else ctx.trace_id

    tracer = Tracer(request_of=request_of)
    patches = install_engine(tracer)
    try:
        return cli_main(sys.argv[2:])
    finally:
        patches.restore()
        Path(sys.argv[1]).write_text(
            json.dumps({"totals": tracer.totals(), "spans": tracer.spans()})
        )


if __name__ == "__main__":
    sys.exit(main())
