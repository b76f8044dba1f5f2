"""Seeded input generators.

Each generator writes the files (or builds the in-memory tallies) a workload
feeds to gradevote and keeps, as it goes, the per-candidate per-grade counts
and bracket node votes it produced.  Those kept counts are what the oracles
rank; the program never sees them.  Nothing here imports gradevote.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles

MJ_SCALE = ("excellent", "good", "fair", "poor", "reject")
MJ3_SCALE = ("positive", "neutral", "negative")
APPROVAL_SCALE = ("strong", "weak", "none")

TALLY_BALLOTS = 40_000
TALLY_CANDIDATES = 5
BRACKET_BALLOTS = 20_000
BRACKET_CANDIDATES = 7


@dataclass
class GradeFile:
    """One generated election file and what the generator counted while writing it."""

    method: str
    scale: tuple[str, ...]
    config: Path
    ballots: Path
    ids: tuple[str, ...]
    counts: dict[str, tuple[int, ...]]
    n_ballots: int
    n_rows: int


@dataclass
class BracketFile:
    config: Path
    ballots: Path
    ids: tuple[str, ...]
    upper_votes: list[int]
    accept_yes: int
    n_ballots: int


def _write_config(path, method, ids, scale=None, limit=None):
    document = {"method": method}
    if scale is not None:
        document["scale"] = list(scale)
    document["candidates"] = [{"id": cid, "name": cid.upper()} for cid in ids]
    if limit is not None:
        document["options"] = {"limit": limit}
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _grade_columns(rng, n_ballots, weights):
    """One column of grade positions per candidate, drawn from its weights."""
    columns = []
    for w in weights:
        cum, acc = [], 0.0
        for x in w:
            acc += x
            cum.append(acc)
        columns.append(rng.choices(range(len(w)), cum_weights=cum, k=n_ballots))
    return columns


def _write_grade_csv(path, ids, scale, columns, skip_worst):
    """Long-format CSV; with ``skip_worst`` a voter lists only better-than-worst
    grades (plus one explicit worst row when that would leave nothing)."""
    worst = len(scale) - 1
    lines = ["voter_id,candidate,grade"]
    for v, grades in enumerate(zip(*columns)):
        voter = f"v{v:06d}"
        wrote = False
        for cid, g in zip(ids, grades):
            if skip_worst and g == worst:
                continue
            lines.append(f"{voter},{cid},{scale[g]}")
            wrote = True
        if not wrote:
            lines.append(f"{voter},{ids[0]},{scale[worst]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def _counts(columns, n_grades):
    out = []
    for column in columns:
        c = [0] * n_grades
        for g in column:
            c[g] += 1
        out.append(tuple(c))
    return out


def _grade_file(outdir, rng, method, scale, weights, skip_worst, explicit_scale):
    ids = tuple(f"c{i + 1}" for i in range(len(weights)))
    columns = _grade_columns(rng, TALLY_BALLOTS, weights)
    config = outdir / f"{method}.config.json"
    ballots = outdir / f"{method}.ballots.csv"
    _write_config(config, method, ids, scale if explicit_scale else None)
    n_rows = _write_grade_csv(ballots, ids, scale, columns, skip_worst)
    counts = dict(zip(ids, _counts(columns, len(scale))))
    return GradeFile(method, scale, config, ballots, ids, counts, TALLY_BALLOTS, n_rows)


def _mj_weights(rng):
    """Five-grade distributions with medians spread over the scale; the jitter
    is small so the medians, and with them the ranking work, stay put."""
    weights = []
    for i in range(TALLY_CANDIDATES):
        peak = i % len(MJ_SCALE)
        weights.append([
            rng.uniform(0.9, 1.1) * (3.0 if g == peak else 1.0)
            for g in range(len(MJ_SCALE))
        ])
    return weights


def _mj3_weights(rng):
    """Uneven three-grade distributions: independent weights per grade."""
    return [[rng.uniform(0.5, 1.5) for _ in MJ3_SCALE] for _ in range(TALLY_CANDIDATES)]


def _approval_weights(rng):
    """Six candidates, two aimed at each block: strong majority, electable,
    unelectable.  The shapes keep every block nonempty under any seed."""
    shapes = [(0.55, 0.20, 0.25), (0.45, 0.25, 0.30),   # strong > none
              (0.20, 0.45, 0.35), (0.15, 0.50, 0.35),   # majority approval
              (0.15, 0.20, 0.65), (0.05, 0.25, 0.70)]   # neither
    return [[x * rng.uniform(0.95, 1.05) for x in shape] for shape in shapes]


def tally_inputs(outdir: Path, seed: int):
    """The ``tally-csv`` files: mj, mj3 and approval3 CSVs plus a bracket JSON."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = [
        _grade_file(outdir, rng, "mj", MJ_SCALE, _mj_weights(rng), False, True),
        _grade_file(outdir, rng, "mj3", MJ3_SCALE, _mj3_weights(rng), False, False),
        _grade_file(outdir, rng, "approval3", APPROVAL_SCALE, _approval_weights(rng),
                    True, False),
    ]
    return files, bracket_input(outdir, rng)


def bracket_input(outdir: Path, rng: random.Random) -> BracketFile:
    ids = tuple(f"b{i + 1}" for i in range(BRACKET_CANDIDATES))
    n_nodes = len(oracles.bracket_nodes(ids))
    lean = [rng.uniform(0.35, 0.65) for _ in range(n_nodes)]
    upper_votes = [0] * n_nodes
    accept_yes = 0
    entries = []
    for v in range(BRACKET_BALLOTS):
        accept = rng.random() < 0.7
        choices = []
        for i in range(n_nodes):
            if rng.random() < lean[i]:
                choices.append("upper")
                upper_votes[i] += 1
            else:
                choices.append("lower")
        accept_yes += accept
        entries.append({"voter_id": f"w{v:06d}", "accept": accept, "choices": choices})
    config = outdir / "bracket.config.json"
    ballots = outdir / "bracket.ballots.json"
    _write_config(config, "bracket", ids)
    ballots.write_text(json.dumps(entries) + "\n", encoding="utf-8")
    return BracketFile(config, ballots, ids, upper_votes, accept_yes, BRACKET_BALLOTS)


# --------------------------------------------------------------------------
# published tallies for rank-counts
# --------------------------------------------------------------------------

@dataclass
class CountElection:
    """Per-grade tallies of one large electorate and the methods that rank it."""

    name: str
    scale: tuple[str, ...]
    ids: tuple[str, ...]
    counts: dict[str, tuple[int, ...]]
    methods: tuple[str, ...]

    @property
    def n_voters(self) -> int:
        return sum(next(iter(self.counts.values())))


def _tally(rng, total, n_grades, peak):
    """``total`` ballots over ``n_grades`` grades, three times as many at
    ``peak`` as at any other grade, each weight jittered by up to 10 %.  The
    fixed shape keeps every median (and so the ranking work) the same from
    seed to seed."""
    weights = [(3.0 if g == peak else 1.0) * rng.uniform(0.9, 1.1) for g in range(n_grades)]
    counts = [int(total * w / sum(weights)) for w in weights]
    counts[peak] += total - sum(counts)
    return tuple(counts)


def _gauge_twin(counts):
    """A different tally with the same majority gauge: one ballot moves
    between two grades on the same side of the majority grade."""
    alpha = oracles.majority_position(counts)
    c = list(counts)
    for a, b in ((0, 1), (len(c) - 1, len(c) - 2)):
        same_side = (a < alpha and b < alpha) or (a > alpha and b > alpha)
        if same_side and c[a] > 0:
            c[a] -= 1
            c[b] += 1
            return tuple(c)
    return None


def count_elections(seed: int, divisor: int = 1) -> list[CountElection]:
    """Published-style tallies: 10^5-10^6 voters on three, five and seven grades.

    Every electorate gets an exact copy of one candidate's tally (a genuine
    tie).  Those ranked by ``mj`` also get a tally drawn to have a gauge twin,
    plus that twin: same majority gauge, different tally, so the removal
    fallback decides between them; and a polarized candidate, half best and
    half worst, whose grade depends on taking the *lower* middlemost ballot.
    Candidate counts do not depend on the seed.  ``divisor`` shrinks every
    electorate (for warm-up).
    """
    rng = random.Random(seed)
    plan = [
        ("mj3-200k", MJ3_SCALE, 200_000, 4, ("mj", "mj3")),
        ("mj5-100k", MJ_SCALE, 100_000, 4, ("mj",)),
        ("mj7-100k", tuple(f"g{i}" for i in range(7)), 100_000, 3, ("mj",)),
        ("approval-1m", APPROVAL_SCALE, 1_000_000, 6, ("approval3",)),
        ("mj3-1m", MJ3_SCALE, 1_000_000, 6, ("mj3",)),
    ]
    elections = []
    for name, scale, voters, n_random, methods in plan:
        voters //= divisor
        g = len(scale)
        tallies = [_tally(rng, voters, g, i % g) for i in range(n_random)]
        tallies.append(tallies[rng.randrange(n_random)])
        if "mj" in methods:
            base = _tally(rng, voters, g, 0)
            polarized = (voters // 2,) + (0,) * (g - 2) + (voters - voters // 2,)
            tallies += [base, _gauge_twin(base), polarized]
        ids = tuple(f"{name}-c{i + 1}" for i in range(len(tallies)))
        elections.append(CountElection(name, scale, ids, dict(zip(ids, tallies)), methods))
    return elections


# --------------------------------------------------------------------------
# small three-grade elections for the sweeps and for check
# --------------------------------------------------------------------------

@dataclass
class SmallElection:
    ids: tuple[str, ...]
    ballots: list[dict[str, str]]
    counts: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for cid in self.ids:
            grades = [ballot[cid] for ballot in self.ballots]
            self.counts[cid] = tuple(grades.count(label) for label in MJ3_SCALE)


def unique_top_election(rng, n_ballots, n_candidates):
    """A random three-grade election whose ``(S, T)`` top is unique.

    Draws with a tied top are redrawn: the consistency check refuses them
    (see the tied-top FOUND line in CHANGES.md).
    """
    ids = tuple(f"c{i + 1}" for i in range(n_candidates))
    while True:
        ballots = [{cid: rng.choice(MJ3_SCALE) for cid in ids} for _ in range(n_ballots)]
        election = SmallElection(ids, ballots)
        if oracles.unique_st_top(ids, election.counts) is not None:
            return election


def repeated_ballot_election(rng, multiplicities, n_candidates):
    """Distinct random ballots, each cast ``multiplicities[i]`` times, unique top."""
    ids = tuple(f"c{i + 1}" for i in range(n_candidates))
    while True:
        kinds = {tuple(rng.choice(MJ3_SCALE) for _ in ids) for _ in multiplicities}
        if len(kinds) < len(multiplicities):
            continue
        ballots = [
            dict(zip(ids, vector))
            for vector, m in zip(sorted(kinds), multiplicities)
            for _ in range(m)
        ]
        election = SmallElection(ids, ballots)
        if oracles.unique_st_top(ids, election.counts) is not None:
            return election


def write_check_input(outdir: Path, election: SmallElection, limit: int):
    """Config (with ``options.limit``) and long CSV for one ``gradevote check``."""
    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir / "check.config.json"
    ballots = outdir / "check.ballots.csv"
    _write_config(config, "mj3", election.ids, limit=limit)
    lines = ["voter_id,candidate,grade"]
    for v, ballot in enumerate(election.ballots):
        lines.extend(f"v{v + 1},{cid},{grade}" for cid, grade in ballot.items())
    ballots.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config, ballots
