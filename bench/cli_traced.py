"""Run one dirichlet_ruc CLI command with span wrappers installed.

Usage: python cli_traced.py SPANS_JSON CLI_ARGS...

Times the import of dirichlet_ruc in this fresh interpreter, traces
`cli.run(CLI_ARGS)`, and writes the spans, counters and import time to
SPANS_JSON.  Standard output is the command's own output, unchanged.
"""

import time

started = time.perf_counter()
import dirichlet_ruc.cli as cli  # noqa: E402

import_s = time.perf_counter() - started

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402  (this script's directory is on sys.path)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    export = tracer.export()
    export["import_s"] = import_s
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(export, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
