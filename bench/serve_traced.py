"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python bench/serve_traced.py SPANS.jsonl serve --tcp ...``

Installs :class:`bench.trace.Tracer` in the server process, then hands
the remaining arguments to ``repro.cli.main``.  ``RequestHandler.handle``
spans carry the client's request id, so the load generator can join
server time to client latency.  The spans are written when the server
exits (after its SIGTERM drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)

from bench.trace import Tracer  # noqa: E402  (path setup must precede)


def main(argv) -> int:
    """Serve traced; write the spans to ``argv[0]`` on the way out."""
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.write_jsonl(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
