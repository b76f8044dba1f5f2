"""Brute-force property harness: consistency, participation, polarization."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gradevote import (
    APPROVAL_SCALE,
    ApprovalTally,
    Ballot,
    Candidate,
    ConfigError,
    GradeScale,
    Outcome,
    ValidationError,
    VoteError,
    approval_rank,
    build_profiles,
    check_consistency,
    check_consistency_splits,
    election_from_counts,
    manipulation_probe,
    mj3_rank,
    mj_rank,
    outcome_from_counts,
    outcome_of,
    polarization_sweep,
    polarize,
    random_consistency_sweep,
    search_cross_method_disagreements,
    search_no_show,
    search_no_show_exhaustive,
)
from gradevote.fixtures import school_outing, school_outing_3grade
from gradevote.mj3 import MJ3_SCALE_LABELS
from gradevote.properties import ConsistencyViolation, PartitionPremise

SCALE3 = GradeScale(MJ3_SCALE_LABELS)
AB = [Candidate("a"), Candidate("b")]


def _election(ballot_grades, candidates=None, scale=SCALE3):
    candidates = candidates if candidates is not None else AB
    ballots = [
        Ballot(f"v{i + 1}", dict(grades)) for i, grades in enumerate(ballot_grades)
    ]
    return build_profiles(scale, candidates, ballots), ballots


# ---------------------------------------------------------------------------
# outcome plumbing
# ---------------------------------------------------------------------------

def test_outcome_kinds():
    election, _ = _election([{"a": "positive", "b": "neutral"}])
    assert outcome_of(mj3_rank(election)) == Outcome("winner", winner="a")

    election, _ = _election([{"a": "positive", "b": "positive"}])
    assert outcome_of(mj3_rank(election)) == Outcome("tie", tied=("a", "b"))

    rejected = approval_rank(
        election_from_counts(APPROVAL_SCALE, AB, {"a": (0, 1, 2), "b": (1, 0, 2)})
    )
    assert outcome_of(rejected) == Outcome("rejected")


def _tallies(n_voters, n_grades):
    """Every per-grade tally of ``n_voters`` ballots on ``n_grades`` grades."""
    return [
        counts
        for counts in product(range(n_voters + 1), repeat=n_grades)
        if sum(counts) == n_voters
    ]


# (method, grades) -> voter cap for 1, 2 and 3 candidates; every election
# within the caps is checked (68,977 in all)
KERNEL_CASES = {
    ("mj3", 3): (5, 5, 5),
    ("approval3", 3): (5, 5, 5),
    ("mj", 2): (5, 5, 5),
    ("mj", 3): (5, 5, 5),
    ("mj", 4): (5, 5, 3),
    ("mj", 5): (5, 4, 2),
}


@pytest.mark.parametrize("method, n_grades", KERNEL_CASES)
def test_outcome_from_counts_matches_the_rankers_exhaustively(method, n_grades):
    ranker = {"mj3": mj3_rank, "mj": mj_rank, "approval3": approval_rank}[method]
    scale = (
        APPROVAL_SCALE if method == "approval3"
        else GradeScale(tuple(f"g{i}" for i in range(n_grades)))
    )
    seen = set()
    for n_cands, max_voters in enumerate(KERNEL_CASES[method, n_grades], start=1):
        candidates = [Candidate(f"c{i + 1}") for i in range(n_cands)]
        ids = [c.id for c in candidates]
        for n in range(1, max_voters + 1):
            for combo in product(_tallies(n, n_grades), repeat=n_cands):
                election = election_from_counts(scale, candidates, dict(zip(ids, combo)))
                expected = outcome_of(ranker(election))
                assert outcome_from_counts(method, ids, combo, n) == expected, combo
                seen.add(expected.kind)
    # rank-1 ties are covered everywhere, rejection where the method has it
    assert seen == ({"winner", "tie", "rejected"} if method == "approval3"
                    else {"winner", "tie"})


# ---------------------------------------------------------------------------
# weak consistency over electorate 2-partitions
# ---------------------------------------------------------------------------

def test_two_identical_ballots_have_one_partition():
    election, ballots = _election(
        [{"a": "positive", "b": "neutral"}, {"a": "positive", "b": "neutral"}]
    )
    report = check_consistency(election, ballots)
    assert report.ok
    assert report.n_partitions_checked == 1
    assert report.n_premise_satisfied == 1
    premise = report.premises[0]
    assert premise.part_sizes == (1, 1)
    assert premise.winner == "a"
    assert premise.scores_part1 == {"a": 1, "b": 0}
    assert premise.scores_part2 == {"a": 1, "b": 0}


def test_school_three_grade_is_consistent_across_all_splits():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    report = check_consistency_splits(election, fx.ballots)
    assert report.ok
    assert report.n_ballots == 21
    # 3 ballot kinds with multiplicities 10/10/1: 11*11*2 vectors, minus the
    # two empty-part ones, halved because splits are unordered
    assert report.n_partitions_checked == 120
    assert report.n_premise_satisfied == len(report.premises) > 0
    for premise in report.premises:
        assert premise.winner == "high-ropes"
        assert sum(premise.part_sizes) == 21
        assert premise.scores_part1["high-ropes"] > 0
        assert premise.scores_part2["high-ropes"] > 0


def test_premise_requires_every_score_to_keep_its_sign():
    # Both parts of the 6|2 split below elect a with positive scores, yet the
    # union elects b: b's three positives are cancelled inside part 1 (score
    # -3) but come back in the union (score 4 > a's 3).  Winner-side sign
    # agreement alone is therefore not enough for consistency; the checker
    # must also demand that no candidate's score switches strict sign.
    part1 = [
        {"a": "positive", "b": "positive"},
        {"a": "neutral", "b": "positive"},
        {"a": "neutral", "b": "positive"},
        {"a": "neutral", "b": "negative"},
        {"a": "neutral", "b": "negative"},
        {"a": "neutral", "b": "negative"},
    ]
    part2 = [
        {"a": "positive", "b": "positive"},
        {"a": "positive", "b": "neutral"},
    ]

    sub1, _ = _election(part1)
    sub2, _ = _election(part2)
    ranked1, ranked2 = mj3_rank(sub1), mj3_rank(sub2)
    assert ranked1.winner == ranked2.winner == "a"
    scores1 = {e.candidate: e.score for e in ranked1.entries}
    scores2 = {e.candidate: e.score for e in ranked2.entries}
    # the winner's scores agree in sign across the parts ...
    assert scores1["a"] == 1 and scores2["a"] == 2
    # ... but the loser's score switches sign, which breaks additivity
    assert scores1["b"] == -3 and scores2["b"] == 1

    election, ballots = _election(part1 + part2)
    assert mj3_rank(election).winner == "b"
    report = check_consistency(election, ballots)
    assert report.ok
    # the 6|2 split is rejected as a premise, and every accepted premise
    # names the union winner
    assert all(p.winner == "b" for p in report.premises)


def test_labeled_check_refuses_large_electorates():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    with pytest.raises(VoteError, match="samples"):
        check_consistency(election, fx.ballots)


def test_sampled_check_runs_large_electorates():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    report = check_consistency(election, fx.ballots, samples=200, seed=42)
    assert report.sampled
    assert report.n_partitions_checked == 200
    assert report.ok


def test_sampled_partitions_are_distinct():
    # 9 ballots have 2^8 - 1 = 255 partitions: 254 distinct draws miss one
    grades = MJ3_SCALE_LABELS
    election, ballots = _election(
        [
            {cid: grades[(v + c * (v % 2 + 1)) % 3] for c, cid in enumerate("abc")}
            for v in range(9)
        ],
        candidates=[Candidate(cid) for cid in "abc"],
    )
    exhaustive = check_consistency(election, ballots, limit=9)
    assert exhaustive.n_partitions_checked == 255
    every_premise = sorted(repr(p) for p in exhaustive.premises)
    for seed in range(3):
        report = check_consistency(election, ballots, samples=254, seed=seed)
        assert report.sampled and report.n_partitions_checked == 254
        premises = sorted(repr(p) for p in report.premises)
        assert len(premises) >= len(every_premise) - 1
        for premise in set(premises):
            assert premises.count(premise) <= every_premise.count(premise)
    report = check_consistency(election, ballots, samples=255, seed=0)
    assert not report.sampled
    assert sorted(repr(p) for p in report.premises) == every_premise


def _reference_premises(election, ballots, masks):
    """Premises and violations with every part recounted from its ballots and
    ranked by ``mj3_rank``, the reference for the incremental partition walk."""
    overall = mj3_rank(election).winner
    premises, violations = [], []
    for mask in masks:
        part1 = [b for i, b in enumerate(ballots) if mask >> i & 1]
        part2 = [b for i, b in enumerate(ballots) if not mask >> i & 1]
        ranked = [mj3_rank(build_profiles(SCALE3, election.candidates, part))
                  for part in (part1, part2)]
        winner = ranked[0].winner
        if winner is None or winner != ranked[1].winner:
            continue
        s1, s2 = ({e.candidate: e.score for e in r.entries} for r in ranked)
        if not (s1[winner] * s2[winner] > 0 or s1[winner] == s2[winner] == 0):
            continue
        if any(s1[c] * s2[c] < 0 for c in s1):
            continue
        sizes = (len(part1), len(part2))
        premises.append(PartitionPremise(sizes, winner, s1, s2))
        if winner != overall:
            violations.append(
                ConsistencyViolation(sizes, winner, overall, s1[winner], s2[winner])
            )
    return premises, violations


def test_partition_walk_matches_a_recount_of_every_part():
    rng = random.Random(2718)
    checked = {False: 0, True: 0}
    while min(checked.values()) < 12:
        n = rng.randint(2, 9)
        candidates = [Candidate(f"c{i + 1}") for i in range(rng.randint(1, 4))]
        election, ballots = _election(
            [{c.id: rng.choice(MJ3_SCALE_LABELS) for c in candidates} for _ in range(n)],
            candidates=candidates,
        )
        if mj3_rank(election).winner is None:
            continue
        space = 2 ** (n - 1) - 1
        sampled = n > 3 and rng.random() < 0.5
        if sampled:
            samples, seed = rng.randint(1, space - 1), rng.randint(0, 99)
            report = check_consistency(
                election, ballots, limit=n - 1, samples=samples, seed=seed
            )
            # the distinct draws check_consistency makes
            draw, masks = random.Random(seed), {}
            while len(masks) < samples:
                masks.setdefault(draw.randint(1, space))
        else:
            report = check_consistency(election, ballots, limit=n)
            masks = range(1, space + 1)
        premises, violations = _reference_premises(election, ballots, masks)
        assert report.sampled is sampled
        assert report.n_partitions_checked == len(masks)
        assert report.n_premise_satisfied == len(premises)
        assert report.premises == premises
        assert report.violations == violations
        checked[sampled] += 1


def test_check_requires_unique_combined_winner():
    election, ballots = _election(
        [{"a": "positive", "b": "neutral"}, {"a": "neutral", "b": "positive"}]
    )
    with pytest.raises(VoteError, match="unique winner"):
        check_consistency(election, ballots)


def test_check_requires_matching_ballots():
    election, _ = _election(
        [{"a": "positive", "b": "neutral"}, {"a": "neutral", "b": "negative"}]
    )
    wrong = [
        Ballot("v1", {"a": "negative", "b": "neutral"}),
        Ballot("v2", {"a": "neutral", "b": "negative"}),
    ]
    with pytest.raises(ValidationError, match="do not reproduce"):
        check_consistency(election, wrong)


def test_check_requires_three_grades():
    fx = school_outing()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    with pytest.raises(ConfigError, match="3-grade"):
        check_consistency(election, fx.ballots)


def test_check_requires_two_ballots():
    election, ballots = _election([{"a": "positive", "b": "neutral"}])
    with pytest.raises(VoteError, match="two ballots"):
        check_consistency(election, ballots)


def test_random_sweep_finds_no_violation():
    report = random_consistency_sweep(40, max_voters=6, seed=11)
    assert report.ok
    assert report.n_partitions_checked > 0


# ---------------------------------------------------------------------------
# participation (no-show) search
# ---------------------------------------------------------------------------

def test_four_grade_school_election_punishes_participation():
    fx = school_outing()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    found = search_no_show(election, fx.ballots)
    assert len(found) == 1
    case = found[0]
    assert case.kind == "removal"
    assert case.voter_id == "e01"  # first of the ten identical eager ballots
    assert case.grades == {"high-ropes": "Cool!", "zoo": "Nice"}
    assert case.before == Outcome("winner", winner="zoo")
    assert case.after == Outcome("winner", winner="high-ropes")


def test_three_grade_school_election_is_clean():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    assert search_no_show(election, fx.ballots) == []


def test_single_candidate_is_trivially_clean():
    election, ballots = _election(
        [{"a": "positive"}, {"a": "negative"}], candidates=[Candidate("a")]
    )
    assert search_no_show(election, ballots) == []


def test_addition_search_respects_its_cap():
    election, ballots = _election([{"a": "positive", "b": "neutral"}])
    with pytest.raises(VoteError, match="addition-search cap"):
        search_no_show(election, ballots, max_additions=5)


def test_exhaustive_two_candidate_search_is_clean():
    report = search_no_show_exhaustive(max_voters=3)
    assert report.ok
    # sum over n=1..3 of C(n+2,2)^2 tally pairs
    assert report.n_instances == 3**2 + 6**2 + 10**2 == 145
    assert report.n_additions_checked == 145 * 9


@pytest.mark.parametrize("method", ["mj", "approval3"])
def test_other_three_grade_methods_are_clean_too(method):
    report = search_no_show_exhaustive(max_voters=2, method=method)
    assert report.ok
    assert report.n_instances == 45


# ---------------------------------------------------------------------------
# the two three-grade formulations agree
# ---------------------------------------------------------------------------

def test_score_form_matches_iterated_removal_exhaustively():
    report = search_cross_method_disagreements(max_voters=3, max_candidates=2)
    assert report.ok
    assert report.n_instances == (3 + 6 + 10) + (3**2 + 6**2 + 10**2) == 164


# ---------------------------------------------------------------------------
# polarization shifts
# ---------------------------------------------------------------------------

def test_polarize_moves_weak_votes_both_ways():
    shift = polarize(ApprovalTally(7, 8, 5), 2)
    assert shift.after == ApprovalTally(9, 4, 7)
    assert shift.x == 2
    assert shift.before == ApprovalTally(7, 8, 5)


def test_polarize_edge_cases():
    assert polarize(ApprovalTally(10, 10, 0), 5).after == ApprovalTally(15, 0, 5)
    assert polarize(ApprovalTally(3, 4, 2), 0).after == ApprovalTally(3, 4, 2)
    with pytest.raises(VoteError, match="non-negative"):
        polarize(ApprovalTally(3, 4, 2), -1)
    with pytest.raises(VoteError, match="insufficient weak"):
        polarize(ApprovalTally(0, 3, 0), 2)


@given(
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
    st.integers(0, 15),
)
def test_polarize_preserves_margin_and_size(counts, x):
    before = ApprovalTally(*counts)
    if 2 * x > before.a_weak:
        with pytest.raises(VoteError):
            polarize(before, x)
        return
    after = polarize(before, x).after
    assert after.a_strong - after.n_none == before.a_strong - before.n_none
    assert after.n_total == before.n_total
    assert after.a_strong >= before.a_strong
    assert after.n_none >= before.n_none


def test_polarization_sweep_is_clean():
    assert polarization_sweep(500, seed=3) == []


# ---------------------------------------------------------------------------
# single-voter manipulation probe
# ---------------------------------------------------------------------------

def _inline_improving(election, ballots, voter_id):
    """Re-derive the improving deviations with a plain loop over all ballots."""
    scale = election.scale
    ids = [c.id for c in election.candidates]
    honest = next(b for b in ballots if b.voter_id == voter_id)
    honest_idx = {cid: honest.grade_index(cid, scale) for cid in ids}
    honest_winner = mj3_rank(election).winner
    others = [b for b in ballots if b.voter_id != voter_id]
    found = []
    for vector in product(scale.labels, repeat=len(ids)):
        grades = dict(zip(ids, vector))
        attempt = build_profiles(
            scale, election.candidates, others + [Ballot(voter_id, grades)]
        )
        winner = mj3_rank(attempt).winner
        if winner is None:
            continue
        if honest_idx[winner] < honest_idx[honest_winner]:
            found.append((tuple(sorted(grades.items())), winner))
    return sorted(found)


def test_probe_finds_the_upgrade_manipulation():
    # v1 honestly grades a "neutral"; exaggerating to "positive" flips the
    # winner from b to a, which v1 honestly prefers
    election, ballots = _election(
        [
            {"a": "neutral", "b": "negative"},
            {"a": "positive", "b": "positive"},
            {"a": "neutral", "b": "positive"},
        ]
    )
    report = manipulation_probe(election, ballots, "v1")
    assert report.honest_winner == "b"
    assert report.n_alternatives == 8
    assert [(tuple(sorted(d.grades.items())), d.winner) for d in report.improving] == [
        ((("a", "positive"), ("b", "negative")), "a")
    ]
    assert _inline_improving(election, ballots, "v1") == [
        ((("a", "positive"), ("b", "negative")), "a")
    ]


def test_probe_agrees_with_inline_enumeration_on_seeded_cases():
    import random

    rng = random.Random(517)
    for _ in range(25):
        n_voters = rng.randint(2, 5)
        grades = [
            {cid: rng.choice(SCALE3.labels) for cid in ("a", "b")}
            for _ in range(n_voters)
        ]
        election, ballots = _election(grades)
        if mj3_rank(election).winner is None:
            continue
        report = manipulation_probe(election, ballots, "v1")
        probe_found = sorted(
            (tuple(sorted(d.grades.items())), d.winner) for d in report.improving
        )
        assert probe_found == _inline_improving(election, ballots, "v1")


def test_probe_with_top_graded_winner_finds_nothing():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    report = manipulation_probe(election, fx.ballots, "e01")
    assert report.honest_winner == "high-ropes"
    assert report.improving == []
    assert report.n_alternatives == 8


def test_probe_skips_tied_honest_outcomes():
    election, ballots = _election(
        [{"a": "positive", "b": "positive"}, {"a": "neutral", "b": "neutral"}]
    )
    report = manipulation_probe(election, ballots, "v1")
    assert report.honest_winner is None
    assert report.improving == []
    assert report.n_alternatives == 0


def test_probe_requires_a_known_voter():
    election, ballots = _election([{"a": "positive", "b": "neutral"}])
    with pytest.raises(ValidationError, match="unknown voter_id"):
        manipulation_probe(election, ballots, "ghost")
