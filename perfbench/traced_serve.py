"""Run ``hummer serve`` with the layer spans installed (the traced service run).

Usage: ``python traced_serve.py <span file> serve [serve options]``, from the
checkout root.  Spans are kept in memory and written to ``<span file>`` when
the server shuts down (SIGINT).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder, install_layer_spans  # noqa: E402


def main() -> int:
    span_path, serve_args = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder("service_mixed-traced")
    install_layer_spans(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        recorder.dump(span_path)


if __name__ == "__main__":
    sys.exit(main())
