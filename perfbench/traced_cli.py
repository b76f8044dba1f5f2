"""Run the gradevote CLI with spans around its calls into each module.

    python3 perfbench/traced_cli.py SPANS_FILE -- <gradevote arguments>

Times the import of ``gradevote.cli`` (span ``cli.import``) and ``main``
(span ``cli.main``), with every traced function wrapped where the CLI and the
property harness import it, then writes the spans to SPANS_FILE for the
benchmark to merge.  Exits with the CLI's own exit code.
"""

import sys
from time import perf_counter

import spans


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    tracer = spans.Tracer()
    started = perf_counter()
    from gradevote import cli

    tracer.record("cli.import", started, perf_counter())
    spans.install_program(tracer)
    sid = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(sid)
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
