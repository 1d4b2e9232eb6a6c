"""Run one wittkit CLI command with the per-layer tracer installed.

    python perfbench/launch.py TRACE_OUT -- ARG...

behaves like ``python -m wittkit.cli ARG...`` (same stdout, stderr and exit
code) and, when the command returns, writes the layer metrics of this
process to TRACE_OUT.  Runs with the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, argv = sys.argv[1], sys.argv[3:]
    t0 = perf_counter()
    import wittkit.cli as cli
    import_s = perf_counter() - t0
    tracer = Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out, {"cli.import_s": import_s, "missing": tracer.missing})
    return code


if __name__ == "__main__":
    sys.exit(main())
