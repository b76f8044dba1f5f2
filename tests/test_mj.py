"""Median-grade ranking for scales of any size."""

from functools import cmp_to_key
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

from gradevote import (
    Candidate,
    GradeScale,
    ValidationError,
    VoteError,
    build_profiles,
    election_from_counts,
    majority_grade,
    majority_value,
    mj_rank,
)
from gradevote.core import GradeProfile
from gradevote.fixtures import SCHOOL_SCALE, school_outing
from gradevote.mj import _removal_key

THREE = GradeScale(("good", "ok", "bad"))


# ---------------------------------------------------------------------------
# independent oracle: per-ballot grade lists, repeated median removal
# ---------------------------------------------------------------------------

def naive_sequence(grade_list):
    """Tie-break sequence computed straight from the per-ballot grades.

    Keeps the grades as a flat sorted list (best index first) and repeatedly
    removes the lower of the two middlemost entries.
    """
    pool = sorted(grade_list)
    out = []
    while pool:
        median = pool[len(pool) // 2]
        out.append(median)
        pool.remove(median)
    return tuple(out)


def grade_list(counts):
    out = []
    for index, count in enumerate(counts):
        out.extend([index] * count)
    return out


def naive_order(election):
    keyed = [
        (naive_sequence(grade_list(p.counts)), i, p.candidate)
        for i, p in enumerate(election.profiles)
    ]
    keyed.sort(key=lambda item: (item[0], item[1]))
    order = tuple(cid for _, _, cid in keyed)
    groups = []
    start = 0
    for i in range(1, len(keyed) + 1):
        if i == len(keyed) or keyed[i][0] != keyed[start][0]:
            if i - start > 1:
                groups.append(tuple(keyed[j][2] for j in range(start, i)))
            start = i
    return order, tuple(groups)


# ---------------------------------------------------------------------------
# majority grade
# ---------------------------------------------------------------------------

def test_school_majority_grades():
    fx = school_outing()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    high = majority_grade(election.profile_of("high-ropes"), fx.scale)
    zoo = majority_grade(election.profile_of("zoo"), fx.scale)
    assert high.label == "Ok"
    assert zoo.label == "Nice"


def test_single_ballot_majority_is_its_grade():
    profile = GradeProfile("a", (0, 1, 0))
    assert majority_grade(profile, THREE).index == 1


def test_even_split_takes_the_worse_middlemost():
    # one best and one worst grade: the lower middlemost is the worst
    profile = GradeProfile("a", (1, 0, 1))
    assert majority_grade(profile, THREE).index == 2
    assert majority_grade(profile, THREE).label == "bad"


def test_majority_grade_needs_ballots():
    with pytest.raises(VoteError):
        majority_grade(GradeProfile("a", (0, 0, 0)), THREE)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
def test_majority_grade_half_bounds(indices):
    """Strictly better grades fill at most half; strictly worse, less than half."""
    scale = GradeScale(("g0", "g1", "g2", "g3", "g4"))
    counts = [0] * 5
    for index in indices:
        counts[index] += 1
    profile = GradeProfile("a", tuple(counts))
    m = majority_grade(profile, scale).index
    total = len(indices)
    strictly_better = sum(counts[:m])
    strictly_worse = sum(counts[m + 1 :])
    assert 2 * strictly_better <= total
    assert 2 * strictly_worse < total


# ---------------------------------------------------------------------------
# full ranking
# ---------------------------------------------------------------------------

def test_school_ranking_prefers_zoo():
    fx = school_outing()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    result = mj_rank(election)
    assert result.order == ("zoo", "high-ropes")
    assert result.winner == "zoo"
    assert result.entries[0].majority_grade == "Nice"
    assert result.entries[1].majority_grade == "Ok"
    assert not result.tie_groups


def test_identical_profiles_tie():
    election = election_from_counts(
        THREE,
        [Candidate("a"), Candidate("b")],
        {"a": (2, 1, 1), "b": (2, 1, 1)},
    )
    result = mj_rank(election)
    assert result.tie_groups == (("a", "b"),)
    assert result.entries[0].rank == result.entries[1].rank == 1
    assert result.winner is None


def test_five_voter_tiebreak_order():
    # all three candidates share majority grade index 1 and are separated
    # only by the later steps of the removal sequence
    election = election_from_counts(
        THREE,
        [Candidate("a"), Candidate("b"), Candidate("c")],
        {"a": (2, 2, 1), "b": (1, 3, 1), "c": (1, 2, 2)},
    )
    for profile in election.profiles:
        assert majority_grade(profile, THREE).index == 1
    assert majority_value(election.profile_of("a")) == (1, 1, 0, 2, 0)
    assert majority_value(election.profile_of("b")) == (1, 1, 1, 2, 0)
    assert majority_value(election.profile_of("c")) == (1, 2, 1, 2, 0)
    result = mj_rank(election)
    assert result.order == ("a", "b", "c")
    order, groups = naive_order(election)
    assert result.order == order
    assert result.tie_groups == groups


def test_empty_election_rejected():
    election = election_from_counts(
        THREE, [Candidate("a")], {"a": (0, 0, 0)}
    )
    with pytest.raises(VoteError):
        mj_rank(election)


counts_strategy = st.lists(st.integers(0, 6), min_size=4, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(counts_strategy, min_size=1, max_size=5), st.integers(1, 50))
def test_ranking_matches_naive_oracle(count_rows, total):
    scale = GradeScale(("g0", "g1", "g2", "g3"))
    assume(all(sum(counts) <= total for counts in count_rows))
    rows = [
        counts[:3] + (counts[3] + total - sum(counts),) for counts in count_rows
    ]
    candidates = [Candidate(f"c{i}") for i in range(len(rows))]
    election = election_from_counts(
        scale, candidates, {c.id: row for c, row in zip(candidates, rows)}
    )
    result = mj_rank(election)
    order, groups = naive_order(election)
    assert result.order == order
    assert result.tie_groups == groups


@st.composite
def fixed_total_counts(draw, total=6, grades=4):
    cuts = sorted(draw(st.integers(0, total)) for _ in range(grades - 1))
    bounds = [0, *cuts, total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(grades))


@settings(max_examples=200, deadline=None)
@given(st.lists(fixed_total_counts(), min_size=2, max_size=4))
def test_dropping_a_candidate_keeps_relative_order(count_rows):
    scale = GradeScale(("g0", "g1", "g2", "g3"))
    candidates = [Candidate(f"c{i}") for i in range(len(count_rows))]
    election = election_from_counts(
        scale, candidates, {c.id: row for c, row in zip(candidates, count_rows)}
    )
    full = mj_rank(election).order
    for removed in candidates:
        remaining = [c for c in candidates if c.id != removed.id]
        if not remaining:
            continue
        sub = election_from_counts(
            scale,
            remaining,
            {c.id: election.profile_of(c.id).counts for c in remaining},
        )
        sub_order = mj_rank(sub).order
        expected = tuple(cid for cid in full if cid != removed.id)
        assert sub_order == expected


# ---------------------------------------------------------------------------
# the counts-only sort key against the removal-sequence reference
# ---------------------------------------------------------------------------

def all_tallies(n, grades):
    """Every per-grade count tuple of ``n`` ballots, in lexicographic order."""
    for cuts in combinations_with_replacement(range(n + 1), grades - 1):
        bounds = (0, *cuts, n)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(grades))


@pytest.mark.parametrize(
    "grades, max_n", [(2, 14), (3, 12), (4, 9), (5, 7), (7, 5)]
)
def test_removal_key_orders_like_majority_value(grades, max_n):
    # two total orders that sort the same list alike agree on every pair
    for n in range(1, max_n + 1):
        tallies = list(all_tallies(n, grades))
        by_value = sorted(tallies, key=lambda t: majority_value(GradeProfile("x", t)))
        by_key = sorted(tallies, key=lambda t: _removal_key(t, n))
        assert by_key == by_value
        assert len({_removal_key(t, n) for t in tallies}) == len(tallies)


@pytest.mark.parametrize("grades", [4, 5])
def test_mj_rank_orders_every_tally_pair_like_the_reference(grades):
    """One election per electorate size holding every tally, a few twice."""
    scale = GradeScale(tuple(f"g{i}" for i in range(grades)))
    for n in range(1, 8):
        tallies = list(all_tallies(n, grades))
        tallies += tallies[::7]
        candidates = [Candidate(f"c{i}") for i in range(len(tallies))]
        election = election_from_counts(
            scale, candidates, {c.id: t for c, t in zip(candidates, tallies)}
        )
        result = mj_rank(election)
        order, groups = naive_order(election)
        assert result.order == order
        assert result.tie_groups == groups


def _median(counts, total):
    seen = 0
    for position, count in enumerate(counts):
        seen += count
        if seen > total // 2:
            return position


def lazy_compare(a, b):
    """Walk both removal sequences in step until they differ (-1: a ranks first)."""
    a, b, total = list(a), list(b), sum(a)
    while total:
        ga, gb = _median(a, total), _median(b, total)
        if ga != gb:
            return -1 if ga < gb else 1
        a[ga] -= 1
        b[gb] -= 1
        total -= 1
    return 0


def _test_gauge(counts):
    total = sum(counts)
    alpha = _median(counts, total)
    p, q = sum(counts[:alpha]), sum(counts[alpha + 1:])
    return alpha, (-p if p > q else q)


@pytest.mark.parametrize("n", [100_000, 100_001])
def test_large_electorate_twins_and_polarization(n):
    scale = GradeScale(("g0", "g1", "g2", "g3", "g4"))
    base = (n // 10, 2 * n // 10, 4 * n // 10, 2 * n // 10)
    base = (*base, n - sum(base))
    tallies = {
        "base": base,
        "better-twin": (base[0] - 1, base[1] + 1, *base[2:]),
        "worse-twin": (*base[:3], base[3] - 1, base[4] + 1),
        "polarized": (n - n // 2, 0, 0, 0, n // 2),
        "copy": base,
    }
    assert _test_gauge(tallies["better-twin"]) == _test_gauge(base)
    assert _test_gauge(tallies["worse-twin"]) == _test_gauge(base)
    candidates = [Candidate(cid) for cid in tallies]
    result = mj_rank(election_from_counts(scale, candidates, tallies))
    by_walk = cmp_to_key(lambda x, y: lazy_compare(tallies[x], tallies[y]))
    assert result.order == tuple(sorted(tallies, key=by_walk))
    assert result.tie_groups == (("base", "copy"),)
    polarized = dict(zip(result.order, result.entries))["polarized"]
    assert polarized.majority_grade == ("g4" if n % 2 == 0 else "g0")


# ---------------------------------------------------------------------------
# participation quirks on the school fixture
# ---------------------------------------------------------------------------

def _school_without(voter_ids):
    fx = school_outing()
    ballots = [b for b in fx.ballots if b.voter_id not in voter_ids]
    assert len(ballots) == 21 - len(voter_ids)
    return build_profiles(fx.scale, fx.candidates, ballots)


def test_one_absent_enthusiast_flips_the_winner():
    result = mj_rank(_school_without({"e01"}))
    assert result.order == ("high-ropes", "zoo")


def test_one_absent_detractor_does_not_flip():
    result = mj_rank(_school_without({"u01"}))
    assert result.order == ("zoo", "high-ropes")


def test_two_absent_detractors_flip_the_winner():
    result = mj_rank(_school_without({"u01", "u02"}))
    assert result.order == ("high-ropes", "zoo")


def test_rank_result_metadata():
    fx = school_outing()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    result = mj_rank(election)
    assert result.method == "mj"
    assert result.scale == SCHOOL_SCALE
    assert result.n_voters == 21
    assert result.entries[0].counts == (0, 11, 0, 10)
