#!/usr/bin/env python3
"""Drive the brute-force property sweeps from the command line.

Runs the four instance-family searches the test suite gates on, at sizes you
choose, and prints one summary line per sweep:

* random 3-grade consistency sweep (exhaustive 2-partition check per instance)
* exhaustive participation search (every tiny election, every addition/removal)
* cross-method agreement between iterated-removal ranking and the score form
* random polarization sweep (margin preservation under weak-vote conversion)

Exit status is 0 when every sweep comes back clean and 3 when any violation
is found, mirroring `gradevote check`, and 2 for an argument that would
leave a sweep with nothing to check.  If standard output is closed early
(say, by `| head -1`), the script stops without a traceback and exits 1; if
it cannot be written (a full disk, say), it exits 1 with one `error:` line.
"""

import argparse
import os
import sys
import time

from gradevote import (
    polarization_sweep,
    random_consistency_sweep,
    search_cross_method_disagreements,
    search_no_show_exhaustive,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--instances",
        type=int,
        default=1000,
        help="random instances per randomized sweep (default 1000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="RNG seed for the randomized sweeps"
    )
    parser.add_argument(
        "--max-voters",
        type=int,
        default=8,
        help="electorate cap for the random consistency sweep (default 8)",
    )
    parser.add_argument(
        "--exhaustive-voters",
        type=int,
        default=4,
        help="electorate cap for the exhaustive searches (default 4)",
    )
    args = parser.parse_args(argv)
    for flag, least in (("instances", 1), ("max_voters", 2), ("exhaustive_voters", 1)):
        value = getattr(args, flag)
        if value < least:  # a sweep of nothing would still report itself clean
            parser.error(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")
    try:
        status = _sweeps(args)
        sys.stdout.flush()
    except OSError as exc:
        # point stdout at devnull, so the flush at exit does not fail again
        # (the recipe in the `signal` module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # the reader has not just gone
            print(f"error: cannot write standard output: {exc.strerror or exc}",
                  file=sys.stderr)
        return 1
    return status


def _sweeps(args):
    failures = 0

    started = time.perf_counter()
    sweep = random_consistency_sweep(
        args.instances, max_voters=args.max_voters, seed=args.seed
    )
    failures += _report(
        f"consistency: {args.instances} random instances, "
        f"{sweep.n_partitions_checked} partitions, "
        f"{sweep.n_premise_satisfied} matched the premise",
        sweep.violations,
        started,
    )

    started = time.perf_counter()
    search = search_no_show_exhaustive(max_voters=args.exhaustive_voters)
    failures += _report(
        f"participation: {search.n_instances} elections, "
        f"{search.n_additions_checked} additions checked",
        search.counterexamples,
        started,
    )

    started = time.perf_counter()
    cross = search_cross_method_disagreements(max_voters=args.exhaustive_voters)
    failures += _report(
        f"method agreement: {cross.n_instances} elections",
        cross.disagreements,
        started,
    )

    started = time.perf_counter()
    drifts = polarization_sweep(args.instances, seed=args.seed)
    failures += _report(
        f"polarization: {args.instances} random tallies", drifts, started
    )

    if failures:
        print(f"{failures} sweep(s) found violations", file=sys.stderr)
        return 3
    print("all sweeps clean")
    return 0


def _report(label, violations, started):
    elapsed = time.perf_counter() - started
    status = "ok" if not violations else f"{len(violations)} violation(s)"
    print(f"{label}: {status} ({elapsed:.2f}s)")
    for violation in violations[:5]:
        print(f"  {violation}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
