"""Run one ``utdd`` command in this fresh process with layer probes installed.

Usage: python bench/cli_child.py SPANS_OUT ARG...

Behaves like ``python -m utdd ARG...`` (same output, same exit code) and
writes the recorded spans to SPANS_OUT as JSON.
"""

import sys

from tracer import CLI_PROBES, Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(CLI_PROBES)
    with tracer.span("cli.import"):
        import utdd.cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = utdd.cli.main(argv)
    finally:
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
