"""Built-in demonstration elections.

Four small scenarios exercise every method and every interesting behaviour:

* ``school``       — 21 students grade two outing destinations on a four-grade
  scale; almost everyone prefers the high ropes course, yet the zoo takes the
  better majority grade, and a single eager no-show flips the winner (the
  participation failure four grades allow).
* ``school3``      — the same electorate on three grades (one contrarian
  grades the destinations against the trend); the score form makes the high
  ropes course win outright and no participation failure exists.
* ``smalltown``    — six mayoral candidates, 100 voters, strong/weak approval;
  reproduces a full three-block ranking.
* ``bracket-bias`` — seven candidates, five voters with sincere bracket
  ballots; the candidate who beats every other head to head sits in the
  smaller half and is eliminated at the first split.
"""

from dataclasses import dataclass, field
from pathlib import Path

from .approval import APPROVAL_SCALE
from .ballot_io import (
    ElectionConfig,
    ballots_to_csv,
    bracket_ballots_to_json,
    config_to_json,
)
from .bracket import BracketBallot, sincere_ballot
from .core import Ballot, Candidate, GradeScale
from .mj3 import MJ3_SCALE

SCHOOL_SCALE = GradeScale(("Cool!", "Nice", "Ok", "Help, no!"))


@dataclass(frozen=True)
class Fixture:
    """A ready-to-run election: config-level data plus ballots."""

    name: str
    method: str
    scale: GradeScale | None
    candidates: tuple[Candidate, ...]
    ballots: tuple[Ballot, ...] = field(default_factory=tuple)
    bracket_ballots: tuple[BracketBallot, ...] = field(default_factory=tuple)
    notes: str = ""


def school_outing() -> Fixture:
    """21 students, two destinations, four grades.

    Ten enthusiastic students (high ropes Cool!, zoo Nice), one neutral
    student (Ok / Nice), ten unmotivated students (Ok / Help, no!).
    """
    ropes, zoo = Candidate("high-ropes", "High ropes course"), Candidate("zoo", "Zoo")
    ballots = (
        [Ballot(f"e{i:02d}", {"high-ropes": "Cool!", "zoo": "Nice"}) for i in range(1, 11)]
        + [Ballot("n01", {"high-ropes": "Ok", "zoo": "Nice"})]
        + [Ballot(f"u{i:02d}", {"high-ropes": "Ok", "zoo": "Help, no!"}) for i in range(1, 11)]
    )
    return Fixture(
        name="school",
        method="mj",
        scale=SCHOOL_SCALE,
        candidates=(ropes, zoo),
        ballots=tuple(ballots),
        notes="zoo wins on majority grades; one eager no-show flips it",
    )


def school_outing_3grade() -> Fixture:
    """The outing electorate compressed to three grades.

    Ten voters positive/neutral, ten neutral/negative, and one contrarian
    who grades the high ropes course negative and the zoo positive.
    """
    ropes, zoo = Candidate("high-ropes", "High ropes course"), Candidate("zoo", "Zoo")
    ballots = (
        [Ballot(f"e{i:02d}", {"high-ropes": "positive", "zoo": "neutral"}) for i in range(1, 11)]
        + [Ballot("n01", {"high-ropes": "negative", "zoo": "positive"})]
        + [Ballot(f"u{i:02d}", {"high-ropes": "neutral", "zoo": "negative"}) for i in range(1, 11)]
    )
    return Fixture(
        name="school3",
        method="mj3",
        scale=MJ3_SCALE,
        candidates=(ropes, zoo),
        ballots=tuple(ballots),
        notes="scores: high ropes 10, zoo -10; no participation failure",
    )


#: (candidate id, display name, strong approvals, weak approvals, offset)
_SMALLTOWN_ROWS: tuple[tuple[str, str, int, int, int], ...] = (
    ("cathy", "Cathy Competent", 50, 20, 0),
    ("jenny", "Jenny Jackofalltrades", 45, 35, 40),
    ("elsa", "Elsa Everywhere", 25, 60, 10),
    ("belinda", "Belinda Boring", 10, 80, 55),
    ("ines", "Ines Important", 44, 10, 30),
    ("uma", "Uma Unknown", 16, 1, 70),
)


def greater_smalltown() -> Fixture:
    """Six mayoral candidates, 100 voters, strong/weak approval grades.

    The published result only fixes per-candidate totals; individual ballots
    are reconstructed deterministically by rotating each candidate's approval
    window over the 100 voters (offsets chosen so the marginals land exactly).
    Voters who would mark nobody get one explicit ``none`` row so the
    electorate still counts 100 heads.
    """
    candidates = tuple(Candidate(cid, name) for cid, name, *_ in _SMALLTOWN_ROWS)
    grades_by_voter: dict[str, dict[str, str]] = {f"v{i:03d}": {} for i in range(100)}
    for cid, _, strong, weak, offset in _SMALLTOWN_ROWS:
        for i in range(100):
            window = (i - offset) % 100
            if window < strong:
                grades_by_voter[f"v{i:03d}"][cid] = "strong"
            elif window < strong + weak:
                grades_by_voter[f"v{i:03d}"][cid] = "weak"
    first = candidates[0].id
    ballots = tuple(
        Ballot(voter, grades if grades else {first: "none"})
        for voter, grades in grades_by_voter.items()
    )
    return Fixture(
        name="smalltown",
        method="approval3",
        scale=APPROVAL_SCALE,
        candidates=candidates,
        ballots=ballots,
        notes="three-block ranking: strong-majority 1-3, electable 4-5, unelectable 6",
    )


#: full preference orders of the five bracket voters, best first
_BRACKET_ORDERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("v1", ("c1", "c5", "c6", "c7", "c2", "c3", "c4")),
    ("v2", ("c2", "c5", "c6", "c7", "c3", "c4", "c1")),
    ("v3", ("c3", "c5", "c6", "c7", "c4", "c1", "c2")),
    ("v4", ("c5", "c6", "c7", "c1", "c2", "c3", "c4")),
    ("v5", ("c5", "c7", "c6", "c2", "c1", "c3", "c4")),
)


def bracket_bias() -> Fixture:
    """Seven candidates, five sincere bracket voters.

    Candidate c5 beats every other candidate head to head on the underlying
    preference orders, but sits in the smaller (lower) half of the first
    split.  Sincere half-voting sends the upper half through 3:2, so c5 is
    eliminated immediately and c1 wins: the larger half is structurally
    favoured.
    """
    candidates = tuple(Candidate(f"c{i}", f"Candidate {i}") for i in range(1, 8))
    ballots = tuple(
        sincere_ballot(voter, order, candidates) for voter, order in _BRACKET_ORDERS
    )
    return Fixture(
        name="bracket-bias",
        method="bracket",
        scale=None,
        candidates=candidates,
        bracket_ballots=ballots,
        notes="head-to-head favourite c5 is eliminated at the first split; c1 wins",
    )


def bracket_preference_orders() -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The underlying preference orders of the bracket-bias voters."""
    return _BRACKET_ORDERS


FIXTURES = {
    "school": school_outing,
    "school3": school_outing_3grade,
    "smalltown": greater_smalltown,
    "bracket-bias": bracket_bias,
}


def load_fixture(name: str) -> Fixture:
    """Look up a built-in fixture by name."""
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None


def write_wire_files(fixture: Fixture, outdir: Path) -> tuple[Path, Path]:
    """Write ``fixture``'s config and ballot files into ``outdir`` (made if
    missing), in the formats ``gradevote tally`` reads; return their paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    config = ElectionConfig(
        method=fixture.method, scale=fixture.scale, candidates=fixture.candidates
    )
    config_path = outdir / f"{fixture.name}.config.json"
    config_path.write_text(config_to_json(config), encoding="utf-8")
    if fixture.method == "bracket":
        ballots_path = outdir / f"{fixture.name}.ballots.json"
        ballots = bracket_ballots_to_json(fixture.bracket_ballots)
    else:
        ballots_path = outdir / f"{fixture.name}.ballots.csv"
        ballots = ballots_to_csv(fixture.ballots)
    ballots_path.write_text(ballots, encoding="utf-8")
    return config_path, ballots_path
