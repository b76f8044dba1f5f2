"""Run the gradevote CLI with reference passes, for a calibrated time.

    python3 perfbench/paced_cli.py PASSES_FILE -- <gradevote arguments>

Runs :mod:`pace`'s reference timer around the import of ``gradevote.cli``
and its ``main``, then writes the passes to PASSES_FILE for the benchmark to
merge.  Exits with the CLI's own exit code.
"""

import sys

import pace


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    reference = pace.Reference()
    try:
        with reference:
            from gradevote import cli

            return cli.main(argv)
    finally:
        sys.stdout.flush()
        reference.dump(out_path)


if __name__ == "__main__":
    raise SystemExit(main())
