"""Traced stand-in for ``python -m convval.cli``.

Usage: python cli_boot.py TRACE_OUT ARGV...

Imports convval.cli, installs the benchmark's wrappers, runs
``convval.cli.main(ARGV)`` inside a ``cli.main`` span and writes the import
time and the spans to TRACE_OUT as JSON.  The exit status is main's.
"""

import importlib
import json
import sys
from time import perf_counter


def main(trace_out: str, argv: list[str]) -> int:
    start = perf_counter()
    cli = importlib.import_module("convval.cli")
    import_s = perf_counter() - start
    import tracing

    tracer = tracing.Tracer()
    code = 1
    try:
        with tracing.installed(tracer), tracer.root("cli.main", None):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_out, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
