"""The ranking builder against the three ranker bodies it replaced."""

from collections.abc import Sequence
from itertools import product

import pytest

from gradevote import (
    APPROVAL_SCALE,
    ApprovalTally,
    Ballot,
    Candidate,
    ConfigError,
    ElectionProfile,
    GradeScale,
    RankedEntry,
    RankedResult,
    VoteError,
    approval_rank,
    build_profiles,
    check_consistency,
    check_consistency_splits,
    classify_block,
    election_from_counts,
    manipulation_probe,
    mj3_rank,
    mj_rank,
    outcome_from_counts,
    outcome_of,
    search_no_show,
)
from gradevote.ballot_io import METHODS
from gradevote.methods import KEYS, RANKERS
from gradevote.mj import _rank_keys
from gradevote.mj3 import MJ3_SCALE
from gradevote.results import competition_ranks


# ---------------------------------------------------------------------------
# the three ranker bodies before the builder, kept verbatim as the reference
# ---------------------------------------------------------------------------

def _reference_mj_rank(election: ElectionProfile) -> RankedResult:
    """Rank all candidates by majority judgement with the iterated tie-break.

    Sorts by the majority gauge, refined by the exact removal key where
    gauges collide, so the cost does not grow with the number of voters.
    """
    if election.n_voters == 0:
        raise VoteError("cannot rank an election without ballots")
    keys = _rank_keys([p.counts for p in election.profiles], election.n_voters)
    order = sorted(range(len(election.candidates)), key=keys.__getitem__)
    ranks, groups = competition_ranks([keys[i] for i in order])
    entries = tuple(
        RankedEntry(
            rank=ranks[pos],
            candidate=election.candidates[i].id,
            name=election.candidates[i].name,
            counts=election.profiles[i].counts,
            majority_grade=election.scale.labels[keys[i][0]],
        )
        for pos, i in enumerate(order)
    )
    tie_groups = tuple(
        tuple(election.candidates[order[pos]].id for pos in group)
        for group in groups
    )
    return RankedResult(
        method="mj",
        scale=election.scale,
        n_voters=election.n_voters,
        entries=entries,
        tie_groups=tie_groups,
    )


def _reference_mj3_rank(election: ElectionProfile) -> RankedResult:
    """Rank a three-grade election by (score, tie-break), best first.

    Raises :class:`ConfigError` on a scale that does not have exactly three
    grades; use :func:`gradevote.mj.mj_rank` for other scales.
    """
    if election.scale.size != 3:
        raise ConfigError(
            f"three-grade ranking needs a 3-grade scale, got {election.scale.size} grades"
        )
    if election.n_voters == 0:
        raise VoteError("cannot rank an election without ballots")
    # the (s, t) pair of score3, straight from the counts; a reversed sort
    # stays stable, so equal pairs keep registration order
    pairs = [(p, -q) if p > q else (-q, p)
             for p, _, q in (prof.counts for prof in election.profiles)]
    order = sorted(range(len(pairs)), key=pairs.__getitem__, reverse=True)
    ranks, groups = competition_ranks([pairs[i] for i in order])
    entries = tuple(
        RankedEntry(
            rank=ranks[pos],
            candidate=election.candidates[i].id,
            name=election.candidates[i].name,
            counts=election.profiles[i].counts,
            score=pairs[i][0],
            tiebreak=pairs[i][1],
        )
        for pos, i in enumerate(order)
    )
    tie_groups = tuple(
        tuple(election.candidates[order[pos]].id for pos in group)
        for group in groups
    )
    return RankedResult(
        method="mj3",
        scale=election.scale,
        n_voters=election.n_voters,
        entries=entries,
        tie_groups=tie_groups,
    )


def _block_key(counts: Sequence[int]) -> tuple[int, int, int]:
    """Ascending sort key of one ``(strong, weak, none)`` tally.

    The STRONG_MAJORITY block comes first, by ``a_strong`` then ``a_any``;
    everyone else follows by ``a_any`` then ``a_strong``.  Two keys are equal
    exactly when the tallies are (within one electorate).
    """
    strong, weak, none = counts
    if strong > none:
        return (0, -strong, -strong - weak)
    return (1, -strong - weak, -strong)


def _reference_approval_rank(election: ElectionProfile) -> RankedResult:
    """Rank an approval election; never elects anyone when rejected.

    Requires the canonical ``strong``/``weak``/``none`` scale.
    """
    if election.scale != APPROVAL_SCALE:
        raise ConfigError(
            f"approval ranking needs the {APPROVAL_SCALE.labels!r} scale, "
            f"got {election.scale.labels!r}"
        )
    if election.n_voters == 0:
        raise VoteError("cannot rank an election without ballots")
    tallies = [ApprovalTally.from_profile(p) for p in election.profiles]
    blocks = [classify_block(t) for t in tallies]
    keys = [_block_key(p.counts) for p in election.profiles]
    order = sorted(range(len(election.candidates)), key=keys.__getitem__)
    ranks, groups = competition_ranks(
        [(tallies[i].a_strong, tallies[i].a_weak) for i in order]
    )
    entries = tuple(
        RankedEntry(
            rank=ranks[pos],
            candidate=election.candidates[i].id,
            name=election.candidates[i].name,
            counts=election.profiles[i].counts,
            block=blocks[i],
        )
        for pos, i in enumerate(order)
    )
    tie_groups = tuple(
        tuple(election.candidates[order[pos]].id for pos in group)
        for group in groups
    )
    rejected = not any(2 * t.a_any > t.n_total for t in tallies)
    return RankedResult(
        method="approval3",
        scale=election.scale,
        n_voters=election.n_voters,
        entries=entries,
        tie_groups=tie_groups,
        rejected=rejected,
    )


_REFERENCE_RANKERS = {
    "mj": _reference_mj_rank,
    "mj3": _reference_mj3_rank,
    "approval3": _reference_approval_rank,
}


def _reference_rank(election: ElectionProfile, method: str) -> RankedResult:
    """``method``'s ranking as the ranker bodies above computed it."""
    return _REFERENCE_RANKERS[method](election)


# (method, scale); every election with 1-2 candidates and n <= 4, and with 3
# candidates and n <= 3, is ranked both ways (15,815 elections in all)
BUILDER_CASES = [
    ("mj3", MJ3_SCALE),
    ("approval3", APPROVAL_SCALE),
    ("mj", MJ3_SCALE),
    ("mj", GradeScale(("g0", "g1", "g2", "g3"))),
]


@pytest.mark.parametrize("method, scale", BUILDER_CASES)
def test_builder_ranks_every_small_election_like_the_reference(method, scale):
    ranker = RANKERS[method]
    for n_cands, max_voters in ((1, 4), (2, 4), (3, 3)):
        # names differ from ids, so a swapped field shows
        candidates = [Candidate(f"c{i + 1}", name=f"C{i + 1}") for i in range(n_cands)]
        for n in range(1, max_voters + 1):
            tallies = [t for t in product(range(n + 1), repeat=scale.size) if sum(t) == n]
            for combo in product(tallies, repeat=n_cands):
                counts = {c.id: t for c, t in zip(candidates, combo)}
                election = election_from_counts(scale, candidates, counts)
                assert ranker(election) == _reference_rank(election, method), combo


# ---------------------------------------------------------------------------
# one name list, one key table
# ---------------------------------------------------------------------------

def test_every_method_has_one_key_rule_and_one_name():
    assert KEYS.keys() == RANKERS.keys()
    assert METHODS == (*RANKERS, "bracket")


@pytest.mark.parametrize("method", ["mj4", "MJ3", "bracket", "auto"])
def test_outcome_from_counts_refuses_an_unknown_method(method):
    # before, any name it did not know was decided by the approval3 rule
    with pytest.raises(ConfigError, match="unknown ranking method"):
        outcome_from_counts(method, ["a", "b"], [(2, 0, 1), (1, 1, 1)], 3)


# ---------------------------------------------------------------------------
# an election without candidates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [MJ3_SCALE, APPROVAL_SCALE])
def test_every_entry_point_refuses_an_election_without_candidates(scale):
    # before, the harness raised a bare ValueError from min() and
    # outcome_of(mj3_rank(...)) an IndexError
    ballots = [Ballot("v1", {}), Ballot("v2", {})]
    election = build_profiles(scale, [], ballots)
    calls = [
        lambda: mj_rank(election),
        lambda: outcome_of(mj_rank(election)),
        lambda: search_no_show(election, ballots),
        lambda: manipulation_probe(election, ballots, "v1"),
        lambda: check_consistency(election, ballots),
        lambda: check_consistency_splits(election, ballots),
    ]
    calls.append(
        (lambda: approval_rank(election)) if scale == APPROVAL_SCALE
        else (lambda: outcome_of(mj3_rank(election)))
    )
    for call in calls:
        with pytest.raises(VoteError, match="^cannot rank an election without candidates$"):
            call()
