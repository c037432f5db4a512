"""Traced stand-in for ``python -m fusionring.cli``.

Usage: python bench/cli_child.py <fusionring cli arguments>

Runs ``fusionring.cli.main`` with the tracer installed and writes the trace
totals as one ``BENCH-TRACE {json}`` line to stderr; stdout and the exit code
are the CLI's own.  PYTHONPATH must point at the library's ``src``.
"""

import json
import sys

import fusionring.cli
from tracer import TRACE_PREFIX, Tracer


def main(argv: list) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = fusionring.cli.main(argv)
    except SystemExit as exc:  # argparse errors exit through SystemExit
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
