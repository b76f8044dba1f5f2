"""Command-line surface.

Three verbs:

* ``gradevote tally`` — run one election from a config and a ballot file.
* ``gradevote check`` — run the property harness against an election:
  participation (no-show) search, partition-consistency checks (``mj3``, and
  ``mj`` on three grades), plus optional randomized sweeps.
* ``gradevote demo``  — tally a built-in fixture from the config and ballot
  texts it writes with ``--outdir``, through the same code as ``tally``.

Exit codes: 0 success, 1 validation failure (also standard input closed,
standard output closed, closed early or full, or an ``--outdir`` that cannot
be written), 2 configuration error, 3 property violation found by ``check``.
"""

import argparse
import io
import json
import os
import sys
from pathlib import Path

from .approval import approval_rank, borderline_candidates
from .ballot_io import (
    METHODS,
    ElectionConfig,
    ParseReport,
    REJECTED_BANNER,
    count_ballots,
    count_bracket_ballots,
    load_config,
    parse_ballots,
    render_bracket,
    render_result,
)
from .core import ConfigError, ValidationError, VoteError, build_profiles
from .methods import RANKERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradevote",
        description="Grade-based election tallying and property checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tally = sub.add_parser("tally", help="tally one election")
    _common_flags(tally)
    tally.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="result rendering (default: table)",
    )
    tally.set_defaults(func=cmd_tally)

    check = sub.add_parser("check", help="run the property harness")
    _common_flags(check)
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report rendering (default: text)",
    )
    check.add_argument(
        "--limit", type=int, default=None,
        help="exhaustive partition limit (default: config option, else 8)",
    )
    check.add_argument(
        "--samples", type=int, default=None,
        help="sample this many random partitions when above the limit",
    )
    check.add_argument(
        "--seed", type=int, default=None,
        help="seed for randomized property sweeps",
    )
    check.add_argument(
        "--random", type=int, default=0, metavar="N",
        help="additionally run N random-instance consistency and polarization sweeps",
    )
    check.add_argument(
        "--probe", metavar="VOTER",
        help="probe one voter's alternative ballots (informational)",
    )
    check.set_defaults(func=cmd_check)

    demo = sub.add_parser("demo", help="tally a built-in fixture")
    demo.add_argument(
        "name", nargs="?",
        help="fixture name; omit to list the available fixtures",
    )
    demo.add_argument(
        "--outdir", help="also write the fixture's config and ballot files here"
    )
    demo.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="result rendering (default: table)",
    )
    demo.set_defaults(func=cmd_demo)
    return parser


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="election config JSON")
    sub.add_argument(
        "--method", choices=METHODS,
        help="tallying method (overrides the config's)",
    )
    sub.add_argument("--ballots", help="ballot file (CSV or JSON, or '-' for stdin)")


def _resolve_config(args: argparse.Namespace) -> ElectionConfig:
    if args.config:
        config = load_config(args.config)
        if args.method and args.method != config.method:
            # rebuilt from its fields, so the scale is checked for the new method
            config = ElectionConfig(
                args.method, config.scale, config.candidates, config.limit, config.seed
            )
        return config
    if not args.method:
        raise ConfigError("pass --config or --method")
    return ElectionConfig(method=args.method, scale=None)


def _ballot_source(args: argparse.Namespace):
    if not args.ballots:
        raise ConfigError("pass --ballots (a CSV/JSON file, or '-' for stdin)")
    if args.ballots != "-":
        return args.ballots
    if sys.stdin is None:  # fd 0 was closed when the process started
        raise ValidationError("cannot read standard input: it is closed")
    if hasattr(sys.stdin, "reconfigure"):  # keep line ends, as from a path
        sys.stdin.reconfigure(newline="")
    return sys.stdin


def _print_grade_report(report: ParseReport, candidates: tuple) -> None:
    _print_report(report)
    if not candidates:
        raise VoteError("no candidates registered or inferred from ballots")


def _print_report(report: ParseReport) -> None:
    for issue in report.issues:
        where = f"row {issue.row}" if issue.row is not None else "input"
        voter = f" voter {issue.voter}" if issue.voter else ""
        if not voter.isprintable():  # a line end in an id stays on this line
            voter = f" voter {issue.voter!r}"
        dropped = "only this grade dropped" if issue.grade_only else "row rejected"
        _stderr(f"warning: {where}{voter}: {issue.reason} ({dropped})")
    for note in report.notes:
        _stderr(f"note: {note}")


def _stderr(line: str) -> None:
    """Print one line on standard error, or drop it when there is none: with
    fd 2 closed ``sys.stderr`` is None (``print`` would write to stdout), and
    an fd 2 that refuses writes raises OSError."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _emit(text: str) -> None:
    """Write a rendered document to standard output in pieces of 8 KiB, and
    flush it.

    One large write to a full pipe can come out silently truncated when a
    signal handler interrupts it (seen with CPython 3.11 under an interval
    timer); writes that fit the stream's buffer do not.  With fd 1 closed,
    or a write that fails for another reason than a closed pipe (a full
    disk, say), it raises :class:`VoteError`.
    """
    if sys.stdout is None:  # fd 1 was closed when the process started
        raise VoteError("cannot write standard output: it is closed")
    try:
        for start in range(0, len(text), 8192):
            sys.stdout.write(text[start:start + 8192])
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        _drop_stdout()
        raise VoteError(f"cannot write standard output: {exc.strerror or exc}") from None


def _drop_stdout() -> None:
    """Point fd 1 at devnull, so that the flush at exit stays quiet."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_tally(args: argparse.Namespace) -> int:
    return _tally(_resolve_config(args), lambda: _ballot_source(args), args.format)


def _tally(config: ElectionConfig, ballots, fmt: str) -> int:
    """Check ``config``, then count what ``ballots()`` opens and print the
    report and the result as ``fmt``: 0, or 1 if a row was rejected."""
    if config.method == "bracket":
        if len(config.candidates) < 2:
            raise ConfigError(
                "bracket elections need at least two candidates in the config"
            )
        from .bracket import bracket_from_counts

        counts, report = count_bracket_ballots(ballots(), config.candidates)
        _print_report(report)
        _emit(render_bracket(bracket_from_counts(config.candidates, *counts), fmt))
        return 0 if report.ok else 1
    election, report, candidates = count_ballots(
        ballots(), config.scale, config.candidates
    )
    _print_grade_report(report, candidates)
    _emit(render_result(RANKERS[config.method](election), fmt))
    return 0 if report.ok else 1


def _describe_outcome(outcome) -> str:
    if outcome.kind == "winner":
        return outcome.winner
    if outcome.kind == "tie":
        return "tie(" + ", ".join(outcome.tied) + ")"
    return "rejected"


def _describe_counterexample(ce) -> str:
    grades = ", ".join(f"{cid}={label}" for cid, label in ce.grades.items())
    who = f" voter {ce.voter_id}" if ce.voter_id else ""
    return (
        f"{ce.kind}{who} ({grades}): "
        f"{_describe_outcome(ce.before)} -> {_describe_outcome(ce.after)}"
    )


def cmd_check(args: argparse.Namespace) -> int:
    from .properties import (
        NoUniqueWinnerError,
        OutputCapError,
        check_consistency,
        manipulation_probe,
        polarization_sweep,
        random_consistency_sweep,
        search_no_show,
    )

    config = _resolve_config(args)
    if config.method == "bracket":
        raise ConfigError(
            f"the property harness covers grade methods ({', '.join(RANKERS)})"
        )
    for flag, least in (("limit", 2), ("samples", 1), ("random", 0)):
        value = getattr(args, flag)
        if value is not None and value < least:
            raise ConfigError(f"--{flag} must be at least {least}, got {value}")
    ballots, parsed, candidates = parse_ballots(
        _ballot_source(args), config.scale, config.candidates
    )
    _print_grade_report(parsed, candidates)
    election = build_profiles(config.scale, candidates, ballots)
    limit = args.limit if args.limit is not None else config.limit
    seed = args.seed if args.seed is not None else config.seed

    findings = 0
    report: dict = {
        "method": config.method,
        "n_voters": election.n_voters,
        "candidates": [c.id for c in election.candidates],
    }
    lines = [
        f"method: {config.method}  ballots: {election.n_voters}  "
        f"candidates: {len(election.candidates)}"
    ]

    # a search with too many items to list is skipped with their exact count;
    # past the cap on additions, the removal counterexamples are still listed
    try:
        counterexamples = search_no_show(election, ballots, method=config.method)
        no_show: dict = {"n_counterexamples": len(counterexamples)}
        lines.append(f"no-show search: {len(counterexamples)} counterexample(s)")
    except OutputCapError as exc:
        counterexamples = exc.listed
        no_show = {"n_counterexamples": exc.count + len(exc.listed), "skipped": str(exc)}
        lines.append(f"no-show search: skipped ({exc})")
    findings += no_show["n_counterexamples"]
    report["no_show"] = {
        **no_show,
        "counterexamples": [
            {
                "kind": ce.kind,
                "voter_id": ce.voter_id,
                "grades": dict(ce.grades),
                "before": _describe_outcome(ce.before),
                "after": _describe_outcome(ce.after),
            }
            for ce in counterexamples
        ],
    }
    lines.extend(f"  {_describe_counterexample(ce)}" for ce in counterexamples)

    consistency = None
    # the labeled check and the random sweep both decide by the mj3 score
    by_score = "the check decides partitions by the mj3 score, not by approval3"
    if config.method == "approval3":
        skipped = by_score
    elif election.scale.size != 3 or election.n_voters < 2:
        skipped = "needs a 3-grade scale and 2+ ballots"
    elif election.n_voters > limit and not args.samples:
        skipped = (
            f"{election.n_voters} ballots exceed the limit of {limit}; "
            f"raise --limit or pass --samples"
        )
    else:
        try:
            consistency = check_consistency(
                election, ballots, limit=limit, samples=args.samples, seed=seed
            )
        except NoUniqueWinnerError as exc:
            skipped = str(exc)
    if consistency is None:
        report["consistency"] = None
        lines.append(f"consistency: skipped ({skipped})")
    else:
        findings += len(consistency.violations)
        report["consistency"] = {
            "n_partitions_checked": consistency.n_partitions_checked,
            "n_premise_satisfied": consistency.n_premise_satisfied,
            "n_violations": len(consistency.violations),
            "sampled": consistency.sampled,
        }
        lines.append(
            f"consistency: {consistency.n_partitions_checked} partitions, "
            f"{consistency.n_premise_satisfied} matched the premise, "
            f"{len(consistency.violations)} violation(s)"
            + (" [sampled]" if consistency.sampled else "")
        )

    if config.method == "approval3":
        result = approval_rank(election)
        borderline = borderline_candidates(result)
        report["borderline"] = list(borderline)
        for cid in borderline:
            lines.append(f"borderline: {cid} approved by exactly half the electorate")
        report["rejected"] = result.rejected
        if result.rejected:
            lines.append(REJECTED_BANNER)

    if args.random:
        polarization = polarization_sweep(args.random, seed=seed)
        if config.method == "approval3":
            partitions = violations = None
            checked = f"consistency skipped ({by_score})"
        else:
            sweep = random_consistency_sweep(args.random, seed=seed)
            partitions, violations = sweep.n_partitions_checked, len(sweep.violations)
            checked = f"{partitions} partitions"
        found = len(polarization) + (violations or 0)
        findings += found
        report["random_sweeps"] = {
            "n_instances": args.random,
            "consistency_partitions": partitions,
            "consistency_violations": violations,
            **({"consistency_skipped": by_score} if partitions is None else {}),
            "polarization_violations": len(polarization),
        }
        lines.append(
            f"random sweeps: {args.random} instances, {checked}, {found} violation(s)"
        )

    if args.probe:
        try:
            probe = manipulation_probe(
                election, ballots, args.probe, method=config.method
            )
        except OutputCapError as exc:
            report["probe"] = {
                "voter_id": args.probe, "n_improving": exc.count, "skipped": str(exc)
            }
            lines.append(f"probe {args.probe}: skipped ({exc})")
        else:
            report["probe"] = {
                "voter_id": probe.voter_id,
                "honest_winner": probe.honest_winner,
                "n_alternatives": probe.n_alternatives,
                "improving": [
                    {"grades": dict(d.grades), "winner": d.winner}
                    for d in probe.improving
                ],
            }
            lines.append(
                f"probe {probe.voter_id}: {len(probe.improving)} improving deviation(s) "
                f"out of {probe.n_alternatives} (informational)"
            )

    violations_found = findings > 0
    report["violations_found"] = violations_found
    lines.append(
        "result: PROPERTY VIOLATIONS FOUND" if violations_found else "result: ok"
    )
    _emit((json.dumps(report, indent=2) if args.format == "json" else "\n".join(lines)) + "\n")
    if not parsed.ok:
        return 1
    return 3 if violations_found else 0


def cmd_demo(args: argparse.Namespace) -> int:
    from .fixtures import FIXTURES, load_fixture, wire_files

    if not args.name:
        lines = []
        for name in FIXTURES:
            fixture = load_fixture(name)
            lines.append(f"{name:13s} {fixture.method:10s} {fixture.notes}\n")
        _emit("".join(lines))
        return 0
    try:
        fixture = load_fixture(args.name)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from None
    # count the very texts --outdir writes, as tally counts those files
    files = wire_files(fixture)
    config, ballots = files.values()
    status = _tally(load_config(io.StringIO(config)), lambda: io.StringIO(ballots), args.format)

    if args.outdir:
        outdir = Path(args.outdir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (outdir / name).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise VoteError(f"cannot write {exc.filename}: {exc.strerror or exc}") from None
        for name in files:
            _stderr(f"wrote {outdir / name}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
    except BrokenPipeError:  # the reader has gone
        _drop_stdout()
        return 1
    except ConfigError as exc:
        _stderr(f"error: {exc}")
        return 2
    except VoteError as exc:
        _stderr(f"error: {exc}")
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
