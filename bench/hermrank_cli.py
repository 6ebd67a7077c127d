"""Launch the hermrank command line from the checkout's sources.

    python3 bench/hermrank_cli.py <hermrank arguments>

Equivalent to the installed ``hermrank`` script: it calls
``hermrank.cli.entry()``.  (``python -m hermrank.cli`` cannot stand in for
it: cli.py has no ``__main__`` guard, so that form exits 0 and does
nothing.)  When HERMBENCH_TRACE names a file, the layers are traced as in
a library run and, on exit, the spans and the time spent inside
``entry()`` (start and end on the shared monotonic clock) are written
there as JSON; every build_params call, including
those in forked simulate workers, appends a line to HERMBENCH_TRACE.builds.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    trace_path = os.environ.get("HERMBENCH_TRACE")
    tracer = None
    if trace_path:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer(builds_log=trace_path + ".builds")
        tracer.install()
    import hermrank.cli

    code = 0
    t0 = time.perf_counter()
    try:
        hermrank.cli.entry()
    except SystemExit as exc:
        code = exc.code
    t1 = time.perf_counter()
    if tracer:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"main_t0": t0, "main_t1": t1, "spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
