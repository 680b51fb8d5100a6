"""Run the ``repro`` command line with the benchmark's spans installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_PATH serve [serve args]``.
The traced ``serve-mix`` pass starts its ``repro serve`` child through
this script, so calls into the program's public functions inside the
server (spec digests, run-cache loads and stores, graph builds) are
timed the same way as in the benchmark process.  The spans are written
to ``SPANS_PATH`` when the command returns, after the server drained.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    tracer = common.Tracer()
    workloads.install_tracing(tracer)
    try:
        return repro_main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
