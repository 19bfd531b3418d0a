"""``repro serve`` with the benchmark's layer spans installed.

Usage (what a traced :class:`cluster.Node` runs)::

    python3 servebench/traced_serve.py SPANS_FILE serve [serve flags ...]

Installs :func:`layers.install` in this process, runs the CLI's
``serve`` command unchanged, and when it returns — SIGTERM drains the
server as usual — writes the spans, counters and captured worker job
frames to ``SPANS_FILE`` (:meth:`layers.Tracer.dump`).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main(argv) -> int:
    spans_file, serve_argv = argv[0], argv[1:]
    # Import the CLI first so that the telemetry call counters also
    # replace the names it and its imports bound.
    from repro.cli import main as cli_main

    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        return cli_main(serve_argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
