"""Traced ``opetree`` CLI invocation.

Usage: cli_child.py TOTALS_PATH CLI_ARG...

Behaves like ``python -m opetree.cli CLI_ARG...`` (same stdout and exit
code) with every layer traced.  Writes the raw per-layer totals, including
the import time of ``opetree.cli``, to TOTALS_PATH and the spans beside it.
"""

import json
import sys
import time

import tracer as tracing


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import opetree.cli as cli

    startup = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.write(totals_path + ".spans.jsonl.gz")
    totals = tracer.totals()
    totals["cli.startup_s"] = startup
    with open(totals_path, "w") as fh:
        json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
