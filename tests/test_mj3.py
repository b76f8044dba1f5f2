"""Score pairs and ratio scores on the three-grade scale."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gradevote import (
    AltScores,
    Candidate,
    ConfigError,
    GradeScale,
    ScorePair,
    Tally3,
    VoteError,
    alt_scores,
    build_profiles,
    election_from_counts,
    mj3_rank,
    mj_rank,
    score3,
)
from gradevote.fixtures import SCHOOL_SCALE, school_outing_3grade
from gradevote.mj3 import MJ3_SCALE_LABELS
from gradevote.results import RankedEntry, RankedResult, competition_ranks

SCALE3 = GradeScale(MJ3_SCALE_LABELS)

tallies = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)).map(
    lambda t: Tally3(*t)
)


def test_score_pair_majority_positive():
    assert score3(Tally3(10, 10, 1)) == ScorePair(10, -1)


def test_score_pair_majority_not_positive():
    assert score3(Tally3(1, 10, 10)) == ScorePair(-10, 1)


def test_score_pair_balanced():
    assert score3(Tally3(2, 0, 2)) == ScorePair(-2, 2)
    assert score3(Tally3(0, 0, 0)) == ScorePair(0, 0)


@given(tallies)
def test_score_pair_sign_structure(tally):
    pair = score3(tally)
    if tally.n_positive > tally.n_negative:
        assert pair == ScorePair(tally.n_positive, -tally.n_negative)
        assert pair.s > 0
    else:
        assert pair == ScorePair(-tally.n_negative, tally.n_positive)
        assert pair.s <= 0
    assert abs(pair.s) + abs(pair.t) <= tally.n_total


@given(tallies)
def test_promoting_a_neutral_vote_strictly_improves(tally):
    if tally.n_neutral == 0:
        return
    promoted = Tally3(tally.n_positive + 1, tally.n_neutral - 1, tally.n_negative)
    before, after = score3(tally), score3(promoted)
    assert (after.s, after.t) > (before.s, before.t)


def test_tally_rejects_negative_counts():
    with pytest.raises(VoteError):
        Tally3(1, -1, 0)


def test_tally_from_profile_requires_three_grades():
    fx_scale = SCHOOL_SCALE  # four grades
    election = election_from_counts(
        fx_scale, [Candidate("a")], {"a": (1, 0, 0, 0)}
    )
    with pytest.raises(ConfigError):
        Tally3.from_profile(election.profile_of("a"))


# ---------------------------------------------------------------------------
# ratio scores, kept exact
# ---------------------------------------------------------------------------

def test_alt_scores_school_values():
    scores = alt_scores(Tally3(10, 10, 1))
    assert scores == AltScores(
        vote_difference=Fraction(9, 21),
        relative_margin=Fraction(9, 11),
        neutral_normalized=Fraction(9, 10),
    )
    assert isinstance(scores.vote_difference, Fraction)


def test_alt_scores_undefined_denominators():
    no_neutral = alt_scores(Tally3(5, 0, 5))
    assert no_neutral.vote_difference == 0
    assert no_neutral.relative_margin == 0
    assert no_neutral.neutral_normalized is None

    only_neutral = alt_scores(Tally3(0, 5, 0))
    assert only_neutral.vote_difference == 0
    assert only_neutral.relative_margin is None
    assert only_neutral.neutral_normalized == 0

    empty = alt_scores(Tally3(0, 0, 0))
    assert empty.vote_difference is None
    assert empty.relative_margin is None
    assert empty.neutral_normalized is None


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_school_three_grade_ranking():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    result = mj3_rank(election)
    assert result.order == ("high-ropes", "zoo")
    assert (result.entries[0].score, result.entries[0].tiebreak) == (10, -1)
    assert (result.entries[1].score, result.entries[1].tiebreak) == (-10, 1)
    assert not result.tie_groups
    assert result.winner == "high-ropes"


def _mj3_rank_reference(election):
    """``mj3_rank`` as it ran through one ``Tally3`` and ``ScorePair`` per
    candidate: the reference for the counts-only pairs."""
    pairs = [score3(Tally3.from_profile(p)) for p in election.profiles]
    order = sorted(
        range(len(election.candidates)),
        key=lambda i: (-pairs[i].s, -pairs[i].t),
    )
    ranks, groups = competition_ranks([(pairs[i].s, pairs[i].t) for i in order])
    entries = tuple(
        RankedEntry(
            rank=ranks[pos],
            candidate=election.candidates[i].id,
            name=election.candidates[i].name,
            counts=election.profiles[i].counts,
            score=pairs[i].s,
            tiebreak=pairs[i].t,
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


@pytest.mark.parametrize("n_cands, max_voters", [(1, 6), (2, 4), (3, 3)])
def test_rank_matches_the_score_pair_reference_exhaustively(n_cands, max_voters):
    candidates = [Candidate(f"c{i + 1}", name=f"C{i + 1}") for i in range(n_cands)]
    for n in range(1, max_voters + 1):
        tallies = [(p, z, n - p - z) for p in range(n + 1) for z in range(n + 1 - p)]
        for combo in product(tallies, repeat=n_cands):
            counts = {c.id: t for c, t in zip(candidates, combo)}
            election = election_from_counts(SCALE3, candidates, counts)
            assert mj3_rank(election) == _mj3_rank_reference(election), combo


def test_rank_requires_three_grade_scale():
    election = election_from_counts(
        SCHOOL_SCALE, [Candidate("a")], {"a": (1, 0, 0, 0)}
    )
    with pytest.raises(ConfigError):
        mj3_rank(election)


def test_rank_requires_ballots():
    election = election_from_counts(SCALE3, [Candidate("a")], {"a": (0, 0, 0)})
    with pytest.raises(VoteError):
        mj3_rank(election)


def test_equal_scores_mean_equal_tallies():
    election = election_from_counts(
        SCALE3,
        [Candidate("a"), Candidate("b")],
        {"a": (3, 1, 2), "b": (3, 1, 2)},
    )
    result = mj3_rank(election)
    assert result.tie_groups == (("a", "b"),)
    assert result.winner is None


@st.composite
def same_total_tally_pairs(draw, total=9):
    def one():
        p = draw(st.integers(0, total))
        z = draw(st.integers(0, total - p))
        return (p, z, total - p - z)

    return one(), one()


@given(same_total_tally_pairs())
def test_score_tie_iff_identical_tallies(pair):
    a, b = pair
    tie = score3(Tally3(*a)) == score3(Tally3(*b))
    assert tie == (a == b)


@settings(max_examples=250, deadline=None)
@given(same_total_tally_pairs())
def test_pairwise_agreement_with_median_rule(pair):
    counts = {"a": pair[0], "b": pair[1]}
    election = election_from_counts(
        SCALE3, [Candidate("a"), Candidate("b")], counts
    )
    by_score = mj3_rank(election)
    by_median = mj_rank(election)
    assert by_score.order == by_median.order
    assert by_score.tie_groups == by_median.tie_groups
