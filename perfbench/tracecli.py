"""Run one zefoz CLI command under the tracer and write its spans.

    python perfbench/tracecli.py SPANS_PATH --config run.cfg [--out path]
"""

from __future__ import annotations

import sys

import zefoz.cli

from tracer import Tracer, write_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op("cli"):
            code = zefoz.cli.main(argv)
    finally:
        tracer.uninstall()
    write_spans(spans_path, tracer.take_spans())
    return code


if __name__ == "__main__":
    sys.exit(main())
