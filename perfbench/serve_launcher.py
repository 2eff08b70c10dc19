"""Run ``repro serve`` in this process, optionally with spans recorded.

    python3 perfbench/serve_launcher.py [--spans-out FILE] <repro serve args>

Without ``--spans-out`` this is exactly ``python -m repro serve``. With
it, the layer wrappers of ``layers.py`` are installed before the server
starts, and the recorded spans are written to FILE after the server has
shut down (on SIGTERM or SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    from repro.cli import main as repro_main

    recorder = None
    if spans_out is not None:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)
    try:
        return repro_main(["serve", *argv])
    finally:
        if recorder is not None:
            recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
