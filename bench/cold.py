"""Run the `leafcat` entry point (`leafcat.cli:entry`) in a fresh interpreter.

    python3 bench/cold.py ARGS...

behaves as `leafcat ARGS...` would, with the package taken from `src/` of
this checkout instead of an installation. With LEAFCAT_BENCH_TRACE=<file>
set, the package's public functions are traced and the spans are written to
<file> when the command ends.
"""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.argv[0] = "leafcat"
    trace_file = os.environ.get("LEAFCAT_BENCH_TRACE")
    from leafcat.cli import entry

    if not trace_file:
        entry()
    else:
        from pathlib import Path

        from tracer import Tracer

        tracer = Tracer().install()
        try:
            entry()
        finally:
            tracer.write(Path(trace_file))
