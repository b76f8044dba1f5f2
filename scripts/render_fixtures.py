#!/usr/bin/env python3
"""Render every built-in fixture, optionally writing its wire-format files.

Prints each fixture's tallied result (table format by default) and, with
--outdir, writes the matching config + ballots files that `gradevote tally`
accepts, so the fixtures double as ready-made CLI examples.

Exits 1, as `gradevote` does, when standard output is closed early (quietly)
or cannot be written, or when --outdir cannot be written (with one `error:`
line each).
"""

import argparse
import os
import sys
from pathlib import Path

from gradevote.fixtures import (
    FIXTURES,
    load_fixture,
    render_fixture,
    write_wire_files,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    parser.add_argument(
        "--outdir", help="also write config/ballot files for each fixture"
    )
    args = parser.parse_args(argv)
    try:
        for name in FIXTURES:
            fixture = load_fixture(name)
            print(f"== {name}: {fixture.notes}")
            print(render_fixture(fixture, args.format))
            if args.outdir:
                try:
                    config_path, ballots_path = write_wire_files(fixture, Path(args.outdir))
                except OSError as exc:
                    print(f"error: cannot write {exc.filename}: {exc.strerror or exc}",
                          file=sys.stderr)
                    return 1
                print(f"wrote {config_path} and {ballots_path}")
        sys.stdout.flush()
    except OSError as exc:
        # point stdout at devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # the reader has not just gone
            print(f"error: cannot write standard output: {exc.strerror or exc}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
