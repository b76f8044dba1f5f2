"""The four workloads.

A workload builds its inputs from the seed (:meth:`Workload.setup`, timed as
``setup_s``), then offers one round of operations (:meth:`Workload.ops`).
Every round runs the same operations, so the failed share of attempted
operations never depends on the seed or on the run length.  Each operation
carries a check of its output against :mod:`oracles` and the units of work
it does; :attr:`Workload.RATES` says which units and which operations' time
make each throughput metric.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import inputs
import oracles
import pace

HERE = Path(__file__).resolve().parent

#: throughput metrics every workload reports
RATE_METRICS = ("ballots_per_s", "partitions_per_s", "additions_per_s", "comparisons_per_s")


class OpFailed(Exception):
    """A CLI child exited with a nonzero code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    units: dict


class Workload:
    name = ""
    in_process = True
    #: rate metric -> (unit in Op.units, op kinds whose time is the base);
    #: a rate missing here counts this workload's operations per second
    RATES: dict = {}

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.outdir = HERE / "out" / self.name
        self.tracer = None
        #: the reference passes that calibrate this workload's times
        self.reference = pace.Reference()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self) -> None:
        raise NotImplementedError

    def expect(self) -> None:
        """Compute the oracle outputs (once, untimed)."""

    def ops(self) -> list:
        raise NotImplementedError

    # -- CLI child processes --------------------------------------------------

    def cli(self, args):
        """Run ``gradevote`` in a child, through paced_cli.py, or through
        traced_cli.py in traced runs."""
        if self.tracer is None:
            passes_file = self.outdir / "child-passes.json"
            try:
                return self._child(
                    [sys.executable, str(HERE / "paced_cli.py"), str(passes_file), "--", *args]
                )
            finally:
                if passes_file.exists():
                    self.reference.merge(passes_file)
                    passes_file.unlink()
        spans_file = self.outdir / "child-spans.json"
        sid = self.tracer.open("bench.cli_process")
        try:
            proc = self._child(
                [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), "--", *args]
            )
            self.tracer.merge(spans_file)
            spans_file.unlink()
        finally:
            self.tracer.close(sid)
        return proc

    def _child(self, cmd):
        with self.reference.paused():
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
            )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise OpFailed(f"exit {proc.returncode}: {tail[0]}")
        return proc

    def warm_child(self):
        """Import the CLI once in a child, so later imports find compiled modules."""
        self._child([sys.executable, "-c", "import gradevote.cli"])


def _diff(what, got, want):
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _competition_ranks(order, ties):
    tied_with = {cid: group[0] for group in ties for cid in group}
    ranks, first = {}, {}
    for pos, cid in enumerate(order):
        head = tied_with.get(cid, cid)
        first.setdefault(head, pos + 1)
        ranks[cid] = first[head]
    return ranks


# --------------------------------------------------------------------------
# tally-csv
# --------------------------------------------------------------------------

class TallyCsv(Workload):
    """``gradevote tally --format json`` on generated long CSVs and a bracket JSON."""

    name = "tally-csv"
    in_process = False
    RATES = {"ballots_per_s": ("ballots", None)}

    def setup(self):
        self.files, self.bracket = inputs.tally_inputs(self.outdir, self.seed)
        self.warm_child()

    def expect(self):
        self.expected = {f.method: self._expected_grade(f) for f in self.files}
        b = self.bracket
        winner, path = oracles.bracket_path(b.ids, b.upper_votes, b.n_ballots, b.accept_yes)
        self.expected["bracket"] = {
            "winner": winner,
            "accept": {"yes": b.accept_yes, "no": b.n_ballots - b.accept_yes,
                       "accepted": 2 * b.accept_yes > b.n_ballots},
            "trace": [[list(span), up, down, chosen] for span, up, down, chosen in path],
        }

    @staticmethod
    def _expected_grade(f):
        order, ties = oracles.ORDER[f.method](f.ids, f.counts)
        ranks = _competition_ranks(order, ties)
        entries = []
        for cid in order:
            counts = f.counts[cid]
            entry = {
                "rank": ranks[cid], "candidate": cid, "counts": list(counts),
                "percent": [oracles.percent_half_up(c, f.n_ballots) for c in counts],
            }
            if f.method == "mj":
                entry["majority_grade"] = f.scale[oracles.majority_position(counts)]
            elif f.method == "mj3":
                entry["score"], entry["tiebreak"] = oracles.score_st(counts)
            else:
                entry["block"] = oracles.approval_block(counts)
            entries.append(entry)
        return {
            "n_voters": f.n_ballots,
            "rejected": f.method == "approval3" and oracles.approval_rejected(f.counts),
            "entries": entries,
            "tie_groups": [list(g) for g in ties],
        }

    def _check_grade(self, method, proc):
        problems = [line for line in proc.stderr.splitlines() if line.startswith("warning:")]
        document = json.loads(proc.stdout)
        want = self.expected[method]
        for key in ("n_voters", "rejected", "tie_groups"):
            problems += _diff(f"{method} {key}", document[key], want[key])
        got_entries = [{k: e[k] for k in w} for e, w in zip(document["entries"], want["entries"])]
        problems += _diff(f"{method} entries", got_entries, want["entries"])
        problems += _diff(f"{method} entry count", len(document["entries"]), len(want["entries"]))
        return problems

    def _check_bracket(self, proc):
        document = json.loads(proc.stdout)
        want = self.expected["bracket"]
        trace = [[d["candidates"], d["votes_upper"], d["votes_lower"], d["chosen"]]
                 for d in document["trace"]]
        return (_diff("bracket winner", document["winner"], want["winner"])
                + _diff("bracket accept", document["accept"], want["accept"])
                + _diff("bracket trace", trace, want["trace"]))

    def ops(self):
        out = []
        for f in self.files:
            args = ["tally", "--config", str(f.config), "--ballots", str(f.ballots),
                    "--format", "json"]
            out.append(Op("tally", lambda a=args: self.cli(a),
                          lambda p, m=f.method: self._check_grade(m, p),
                          {"ballots": f.n_ballots}))
        b = self.bracket
        args = ["tally", "--config", str(b.config), "--ballots", str(b.ballots),
                "--format", "json"]
        out.append(Op("tally", lambda: self.cli(args), self._check_bracket,
                      {"ballots": b.n_ballots}))
        return out


# --------------------------------------------------------------------------
# rank-counts
# --------------------------------------------------------------------------

_RANKER = {"mj": "mj_rank", "mj3": "mj3_rank", "approval3": "approval_rank"}


def program_api():
    """The gradevote functions the in-process workloads call, by name, so a
    traced run can swap each for its wrapped form."""
    import gradevote

    names = ("Ballot", "Candidate", "GradeScale", "build_profiles", "election_from_counts",
             "mj_rank", "mj3_rank", "approval_rank", "render_result",
             "check_consistency", "check_consistency_splits", "search_no_show_exhaustive",
             "search_cross_method_disagreements", "polarization_sweep")
    return SimpleNamespace(**{n: getattr(gradevote, n) for n in names})


class RankCounts(Workload):
    """Published per-grade tallies ranked straight from counts, then rendered."""

    name = "rank-counts"
    RATES = {"ballots_per_s": ("ballots", None)}

    def setup(self):
        self.api = program_api()
        self.elections = inputs.count_elections(self.seed)
        self.objects = {
            e.name: (self.api.GradeScale(e.scale), [self.api.Candidate(cid) for cid in e.ids])
            for e in self.elections
        }
        # warm-up: every operation once, on electorates ten times smaller
        for election in inputs.count_elections(self.seed, divisor=10):
            for method in election.methods:
                self._rank(election, method)

    def expect(self):
        self.expected = {
            (e.name, m): oracles.ORDER[m](e.ids, e.counts)
            for e in self.elections for m in e.methods
        }
        self.rejected = {e.name: oracles.approval_rejected(e.counts)
                         for e in self.elections if "approval3" in e.methods}

    def _rank(self, election, method):
        scale, candidates = self.objects[election.name]
        profile = self.api.election_from_counts(scale, candidates, election.counts)
        result = getattr(self.api, _RANKER[method])(profile)
        return result, self.api.render_result(result, "json")

    def _check(self, election, method, output):
        result, rendered = output
        order, ties = self.expected[(election.name, method)]
        what = f"{election.name} {method}"
        problems = (_diff(f"{what} order", result.order, order)
                    + _diff(f"{what} tie groups", result.tie_groups, ties))
        if method == "approval3":
            problems += _diff(f"{what} rejected", result.rejected, self.rejected[election.name])
        document = json.loads(rendered)
        problems += _diff(f"{what} rendered order",
                          tuple(e["candidate"] for e in document["entries"]), order)
        problems += _diff(f"{what} n_voters", document["n_voters"], election.n_voters)
        return problems

    def ops(self):
        return [
            Op("rank", lambda e=e, m=m: self._rank(e, m),
               lambda out, e=e, m=m: self._check(e, m, out), {"ballots": e.n_voters})
            for e in self.elections for m in e.methods
        ]


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

LABELED_INSTANCES = 120
SPLIT_INSTANCES = 40
SPLIT_MULTIPLICITIES = (8, 6, 4)
EXHAUSTIVE_VOTERS = 4
CROSS_CANDIDATES = 3
POLARIZATION_CASES = 2000


class Sweeps(Workload):
    """The acceptance sweeps on many tiny elections."""

    name = "sweeps"
    RATES = {
        "ballots_per_s": ("ballots", ("consistency",)),
        "partitions_per_s": ("partitions", ("consistency",)),
        "additions_per_s": ("additions", ("no_show",)),
        "comparisons_per_s": ("comparisons", ("cross_method",)),
    }

    def _profile(self, small):
        api = self.api
        candidates = [api.Candidate(cid) for cid in small.ids]
        ballots = [api.Ballot(f"v{i + 1}", grades) for i, grades in enumerate(small.ballots)]
        return api.build_profiles(self.scale, candidates, ballots), ballots

    def setup(self):
        self.api = program_api()
        self.scale = self.api.GradeScale(inputs.MJ3_SCALE)
        rng = random.Random(self.seed)
        # sizes cycle on a fixed pattern, so every seed does the same work
        self.labeled = [
            self._profile(inputs.unique_top_election(rng, 5 + i % 4, 2 + i % 3))
            for i in range(LABELED_INSTANCES)
        ]
        self.splits = [
            self._profile(inputs.repeated_ballot_election(rng, SPLIT_MULTIPLICITIES, 3))
            for _ in range(SPLIT_INSTANCES)
        ]
        # warm-up: every kind of operation once, on smaller instances
        api = self.api
        api.check_consistency(*self.labeled[0], limit=8)
        api.check_consistency_splits(*self.splits[0])
        for method in ("mj3", "mj", "approval3"):
            api.search_no_show_exhaustive(max_voters=EXHAUSTIVE_VOTERS - 1, method=method)
        api.search_cross_method_disagreements(
            max_voters=EXHAUSTIVE_VOTERS - 1, max_candidates=CROSS_CANDIDATES - 1)
        api.polarization_sweep(POLARIZATION_CASES // 10, seed=self.seed)

    @staticmethod
    def _check_labeled(n, report):
        return (_diff("labeled partitions", report.n_partitions_checked,
                      oracles.labeled_partitions(n))
                + _diff("labeled sampled", report.sampled, False)
                + _diff("labeled violations", len(report.violations), 0))

    @staticmethod
    def _check_splits(report):
        return (_diff("multiset splits", report.n_partitions_checked,
                      oracles.multiset_splits(SPLIT_MULTIPLICITIES))
                + _diff("split violations", len(report.violations), 0))

    @staticmethod
    def _check_no_show(method, report):
        return (_diff(f"{method} no-show instances", report.n_instances,
                      oracles.no_show_instances(EXHAUSTIVE_VOTERS))
                + _diff(f"{method} no-show additions", report.n_additions_checked,
                        oracles.no_show_additions(EXHAUSTIVE_VOTERS))
                + _diff(f"{method} no-show counterexamples", len(report.counterexamples), 0))

    @staticmethod
    def _check_cross(report):
        return (_diff("cross-method instances", report.n_instances,
                      oracles.cross_method_instances(EXHAUSTIVE_VOTERS, CROSS_CANDIDATES))
                + _diff("cross-method disagreements", report.disagreements, []))

    def ops(self):
        api = self.api
        out = []
        for election, ballots in self.labeled:
            n = len(ballots)
            out.append(Op(
                "consistency",
                lambda e=election, b=ballots: api.check_consistency(e, b, limit=8),
                lambda r, n=n: self._check_labeled(n, r),
                {"partitions": oracles.labeled_partitions(n), "ballots": n}))
        for election, ballots in self.splits:
            out.append(Op(
                "consistency",
                lambda e=election, b=ballots: api.check_consistency_splits(e, b),
                self._check_splits,
                {"partitions": oracles.multiset_splits(SPLIT_MULTIPLICITIES),
                 "ballots": len(ballots)}))
        for method in ("mj3", "mj", "approval3"):
            out.append(Op(
                "no_show",
                lambda m=method: api.search_no_show_exhaustive(
                    max_voters=EXHAUSTIVE_VOTERS, method=m),
                lambda r, m=method: self._check_no_show(m, r),
                {"additions": oracles.no_show_additions(EXHAUSTIVE_VOTERS)}))
        out.append(Op(
            "cross_method",
            lambda: api.search_cross_method_disagreements(
                max_voters=EXHAUSTIVE_VOTERS, max_candidates=CROSS_CANDIDATES),
            self._check_cross,
            {"comparisons": oracles.cross_method_instances(EXHAUSTIVE_VOTERS,
                                                           CROSS_CANDIDATES)}))
        out.append(Op(
            "polarization",
            lambda: api.polarization_sweep(POLARIZATION_CASES, seed=self.seed),
            lambda problems: _diff("polarization report", problems, []),
            {}))
        return out


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

CHECK_BALLOTS = 16
CHECK_CANDIDATES = 8
PROBE_VOTER = "v1"


class Check(Workload):
    """``gradevote check --format json --probe`` on one exhaustive mj3 instance."""

    name = "check"
    in_process = False
    RATES = {
        "ballots_per_s": ("ballots", None),
        "partitions_per_s": ("partitions", None),
        "additions_per_s": ("additions", None),
    }

    def setup(self):
        rng = random.Random(self.seed)
        self.election = inputs.unique_top_election(rng, CHECK_BALLOTS, CHECK_CANDIDATES)
        self.config, self.ballots = inputs.write_check_input(
            self.outdir, self.election, limit=CHECK_BALLOTS)
        self.warm_child()

    def expect(self):
        e = self.election
        self.winner = oracles.unique_st_top(e.ids, e.counts)

    def _check(self, proc):
        d = json.loads(proc.stdout)
        consistency = d.get("consistency") or {}
        probe = d.get("probe") or {}
        return (
            _diff("n_voters", d["n_voters"], CHECK_BALLOTS)
            + _diff("candidates", d["candidates"], list(self.election.ids))
            + _diff("no-show counterexamples", d["no_show"]["n_counterexamples"], 0)
            + _diff("consistency violations", consistency.get("n_violations"), 0)
            + _diff("consistency sampled", consistency.get("sampled"), False)
            + _diff("partitions checked", consistency.get("n_partitions_checked"),
                    oracles.labeled_partitions(CHECK_BALLOTS))
            + _diff("probe alternatives", probe.get("n_alternatives"),
                    3 ** CHECK_CANDIDATES - 1)
            + _diff("honest winner", probe.get("honest_winner"), self.winner)
            + _diff("violations_found", d["violations_found"], False)
        )

    def ops(self):
        args = ["check", "--config", str(self.config), "--ballots", str(self.ballots),
                "--format", "json", "--probe", PROBE_VOTER]
        return [Op("check", lambda: self.cli(args), self._check, {
            "ballots": CHECK_BALLOTS,
            "partitions": oracles.labeled_partitions(CHECK_BALLOTS),
            "additions": 3 ** CHECK_CANDIDATES,
        })]


WORKLOADS = {w.name: w for w in (TallyCsv, RankCounts, Sweeps, Check)}
