#!/usr/bin/env python3
"""Render every built-in fixture, optionally writing its wire-format files.

Prints each fixture's tallied result (table format by default) and, with
--outdir, writes the matching config + ballots files that `gradevote tally`
accepts, so the fixtures double as ready-made CLI examples.
"""

import argparse
from pathlib import Path

from gradevote import bracket_elect, build_profiles
from gradevote.ballot_io import render_bracket, render_result
from gradevote.cli import RANKERS
from gradevote.fixtures import FIXTURES, load_fixture, write_wire_files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    parser.add_argument(
        "--outdir", help="also write config/ballot files for each fixture"
    )
    args = parser.parse_args(argv)

    for name in FIXTURES:
        fixture = load_fixture(name)
        print(f"== {name}: {fixture.notes}")
        if fixture.method == "bracket":
            result = bracket_elect(fixture.candidates, fixture.bracket_ballots)
            print(render_bracket(result, args.format), end="")
        else:
            election = build_profiles(
                fixture.scale, fixture.candidates, fixture.ballots
            )
            print(render_result(RANKERS[fixture.method](election), args.format), end="")
        print()
        if args.outdir:
            config_path, ballots_path = write_wire_files(fixture, Path(args.outdir))
            print(f"wrote {config_path} and {ballots_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
