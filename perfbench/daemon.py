"""Run ``repro-haste serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/daemon.py SPANS_PATH serve [serve options]``.
The wrappers of ``spans.py`` go in before the daemon starts; the spans
are written to ``SPANS_PATH`` when the daemon exits (SIGTERM drains it).
Spans carry their thread and parent; joining them to one HTTP request
needs a request id the daemon does not have yet.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli
    import repro.serve  # noqa: F401  (load every module the wrappers patch)
    import repro.solvers  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        return repro.cli.main(argv)
    finally:
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())
