"""Run ``python -m repro --serve ...`` with the layer wrappers installed.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/perf/traced_serve.py SPANS.json \\
        --serve --port 0 --shards 2

The wrappers record spans in this (the front-end) process only; the
spans are written to ``SPANS.json`` after the server has drained on
SIGTERM, and the exit code is the server's.  Worker processes use the
spawn start method and import this file as their ``__main__``, so
nothing may run at import time.
"""

import sys


def main(argv: list[str]) -> int:
    from tracer import Tracer, install

    from repro.__main__ import main as repro_main

    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(serve_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
