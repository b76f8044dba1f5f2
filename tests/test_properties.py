"""Brute-force property harness: consistency, participation, polarization."""

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cache, partial
from itertools import accumulate, combinations_with_replacement, product
from operator import itemgetter, sub

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
from gradevote import properties
from gradevote.core import ElectionProfile
from gradevote.fixtures import school_outing, school_outing_3grade
from gradevote.mj3 import MJ3_SCALE_LABELS
from gradevote.properties import (
    ConsistencyViolation,
    CrossMethodReport,
    Deviation,
    ManipulationReport,
    NoShowCounterexample,
    NoShowSweepReport,
    NoUniqueWinnerError,
    PartitionCheckReport,
    PartitionPremise,
    _addition_rows,
    _bump,
    _check_masks,
    _compositions,
    _cross_method_keys,
    _key_table,
    _outcome,
    _ranking,
    _top,
    _unique_tops,
    _unique_winners,
)
from gradevote.results import Tallies, require_rankable

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
            tallies = _tallies(n, n_grades)
            # one key table over every tally of n ballots: any selection from
            # it decides as the ranker does (the addition kernel's lookups)
            keys, approved = _key_table(method, tallies, n)
            for picks in product(range(len(tallies)), repeat=n_cands):
                combo = tuple(tallies[i] for i in picks)
                election = election_from_counts(scale, candidates, dict(zip(ids, combo)))
                expected = outcome_of(ranker(election))
                assert outcome_from_counts(method, ids, combo, n) == expected, combo
                looked_up = _top([keys[i] for i in picks],
                                 approved and [approved[i] for i in picks])
                assert _outcome(ids, looked_up) == expected, combo
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


def _labeled_parts(ballots, masks):
    """Both parts of each mask: bit ``i`` set puts ballot ``i`` in part 1."""
    for mask in masks:
        yield (
            [b for i, b in enumerate(ballots) if mask >> i & 1],
            [b for i, b in enumerate(ballots) if not mask >> i & 1],
        )


def _reference_premises(election, parts):
    """Premises and violations with both parts of every partition recounted
    from their ballots and ranked by ``mj3_rank``: the reference for the
    bitmask kernel."""
    overall = mj3_rank(election).winner
    premises, violations = [], []
    for part1, part2 in parts:
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
        premises, violations = _reference_premises(
            election, _labeled_parts(ballots, masks)
        )
        assert report.sampled is sampled
        assert report.n_partitions_checked == len(masks)
        assert report.n_premise_satisfied == len(premises)
        assert report.premises == premises
        assert report.violations == violations
        checked[sampled] += 1


def _split_parts(election, ballots):
    """Both parts of every multiset split, in the order of
    ``check_consistency_splits``: identical ballots grouped into kinds sorted
    by grade positions, and the number taken of each kind in ``product``
    order, each unordered split once."""
    kinds: dict[tuple, list] = {}
    for ballot in ballots:
        kind = tuple(SCALE3.index(ballot.grades[c.id]) for c in election.candidates)
        kinds.setdefault(kind, []).append(ballot)
    groups = [kinds[kind] for kind in sorted(kinds)]
    sizes = tuple(len(group) for group in groups)
    for taken in product(*(range(m + 1) for m in sizes)):
        rest = tuple(m - t for m, t in zip(sizes, taken))
        if 0 in (sum(taken), sum(rest)) or taken > rest:
            continue
        yield (
            [b for group, t in zip(groups, taken) for b in group[:t]],
            [b for group, t in zip(groups, taken) for b in group[t:]],
        )


def test_split_check_matches_a_recount_of_every_part():
    rng = random.Random(1618)
    hits = 0
    for _ in range(30):
        candidates = [Candidate(f"c{i + 1}") for i in range(rng.randint(1, 3))]
        kinds = [
            {c.id: rng.choice(MJ3_SCALE_LABELS) for c in candidates}
            for _ in range(rng.randint(1, 4))
        ]
        grades = [kind for kind in kinds for _ in range(rng.randint(1, 5))]
        rng.shuffle(grades)
        election, ballots = _election(grades, candidates=candidates)
        if len(ballots) < 2 or mj3_rank(election).winner is None:
            continue
        report = check_consistency_splits(election, ballots)
        parts = list(_split_parts(election, ballots))
        premises, violations = _reference_premises(election, parts)
        assert report.n_partitions_checked == len(parts)
        assert report.premises == premises
        assert report.violations == violations
        hits += len(premises)
    assert hits > 100


# The consistency check as it ran before the bitmask kernel: every part's
# tallies rebuilt (incrementally for labeled masks, from scratch for multiset
# splits) and decided by outcome_from_counts.  Kept verbatim as the reference.

def _scores(tallies):
    """The ``mj3`` score ``s`` of each three-grade tally."""
    return [p if p > q else -q for p, _, q in tallies]


def _check_partitions(
    election,
    partitions,
    *,
    sampled: bool,
) -> PartitionCheckReport:
    """Evaluate the consistency premise over (part1 counts, part1 size) pairs."""
    ids = [c.id for c in election.candidates]
    n = election.n_voters
    full = [p.counts for p in election.profiles]
    overall = outcome_from_counts("mj3", ids, full, n)
    if overall.kind != "winner":
        raise NoUniqueWinnerError("combined election has no unique winner")
    report = PartitionCheckReport(
        n_ballots=n,
        n_partitions_checked=0,
        n_premise_satisfied=0,
        sampled=sampled,
    )
    for part1, size1 in partitions:
        report.n_partitions_checked += 1
        first = outcome_from_counts("mj3", ids, part1, size1)
        if first.kind != "winner":
            continue
        part2 = [tuple(map(sub, f, a)) for f, a in zip(full, part1)]
        if outcome_from_counts("mj3", ids, part2, n - size1) != first:
            continue
        scores1, scores2 = _scores(part1), _scores(part2)
        w = ids.index(first.winner)
        s1, s2 = scores1[w], scores2[w]
        if not (s1 * s2 > 0 or (s1 == 0 and s2 == 0)):
            continue
        # A strict sign switch for *any* candidate breaks score additivity
        # across the parts (positives cancelled inside one part reappear in
        # the union), and with it the consistency guarantee.
        if any(a * b < 0 for a, b in zip(scores1, scores2)):
            continue
        report.n_premise_satisfied += 1
        report.premises.append(
            PartitionPremise(
                part_sizes=(size1, n - size1),
                winner=first.winner,
                scores_part1=dict(zip(ids, scores1)),
                scores_part2=dict(zip(ids, scores2)),
            )
        )
        if first != overall:
            report.violations.append(
                ConsistencyViolation(
                    part_sizes=(size1, n - size1),
                    winner_parts=first.winner,
                    winner_overall=overall.winner,
                    s_part1=s1,
                    s_part2=s2,
                )
            )
    return report


def _walk(
    vectors, masks: Iterable[int], n_grades: int
) -> Iterator[tuple[list[tuple[int, ...]], int]]:
    """Part-1 counts and size of each mask in turn (bit ``i`` set: ballot ``i``
    is in part 1).  Each step moves only the ballots whose bits differ from
    the previous mask: about two per step when the masks increase by one."""
    counts = [[0] * n_grades for _ in vectors[0]]
    prev = members = 0
    for mask in masks:
        flips, prev = mask ^ prev, mask
        while flips:
            low = flips & -flips
            flips ^= low
            step = 1 if mask & low else -1
            members += step
            for row, g in zip(counts, vectors[low.bit_length() - 1]):
                row[g] += step
        yield [tuple(row) for row in counts], members


def _splits(election, vectors) -> Iterator[tuple[list[tuple[int, ...]], int]]:
    kinds = sorted(Counter(vectors).items())
    size = election.scale.size
    n_cands = len(election.candidates)
    multiplicities = [m for _, m in kinds]
    for taken in product(*(range(m + 1) for m in multiplicities)):
        complement = tuple(m - t for m, t in zip(multiplicities, taken))
        if sum(taken) == 0 or sum(complement) == 0:
            continue
        if taken > complement:  # each unordered split once
            continue
        counts = [[0] * size for _ in range(n_cands)]
        for (vec, _), t in zip(kinds, taken):
            for ci, gi in enumerate(vec):
                counts[ci][gi] += t
        yield [tuple(c) for c in counts], sum(taken)


def _consistency_reference(election, vectors, masks=None, *, sampled=False):
    """The report of the labeled check over ``masks``, or of the multiset
    split check when ``masks`` is None, from rebuilt tallies of the ballots'
    grade positions ``vectors``; a tied top is reported as a string."""
    if masks is None:
        partitions = _splits(election, vectors)
    else:
        partitions = _walk(vectors, masks, election.scale.size)
    try:
        return _check_partitions(election, partitions, sampled=sampled)
    except NoUniqueWinnerError:
        return "no unique winner"


def _assert_kernel_matches_reference(vectors, candidates, masks, **kwargs):
    """Both checks on the ballots with grade positions ``vectors`` report
    what the reference reports.  Returns the labeled report."""
    election, ballots = _election(
        [{c.id: MJ3_SCALE_LABELS[g] for c, g in zip(candidates, vector)}
         for vector in vectors],
        candidates=candidates,
    )
    reports = []
    for check in (partial(check_consistency, **kwargs), check_consistency_splits):
        try:
            reports.append(check(election, ballots))
        except NoUniqueWinnerError:
            reports.append("no unique winner")
    labeled, splits = reports
    assert labeled == _consistency_reference(
        election, vectors, masks, sampled=kwargs.get("samples") is not None
    )
    assert splits == _consistency_reference(election, vectors)
    return labeled


@pytest.mark.parametrize("n_cands, max_voters", [(1, 5), (2, 5), (3, 3)])
def test_consistency_kernel_matches_the_reference_on_every_multiset(
    n_cands, max_voters
):
    candidates = [Candidate(f"c{i + 1}") for i in range(n_cands)]
    kinds = list(product(range(3), repeat=n_cands))
    seen = Counter()
    for n in range(2, max_voters + 1):
        masks = range(1, 2 ** (n - 1))
        for vectors in combinations_with_replacement(kinds, n):
            labeled = _assert_kernel_matches_reference(
                list(vectors), candidates, masks, limit=n
            )
            seen["tied top" if labeled == "no unique winner" else "premise"
                 if labeled.premises else "no premise"] += 1
    # one candidate always has a unique top
    assert len(seen) == (2 if n_cands == 1 else 3)


def test_consistency_kernel_matches_the_reference_on_seeded_elections():
    rng = random.Random(3141)
    seen = Counter()
    while min(seen[sampled] for sampled in (False, True)) < 10:
        n = rng.randint(2, 12)
        candidates = [Candidate(f"c{i + 1}") for i in range(rng.randint(1, 5))]
        vectors = [tuple(rng.randrange(3) for _ in candidates) for _ in range(n)]
        space = 2 ** (n - 1) - 1
        sampled = n > 3 and rng.random() < 0.5
        if sampled:
            samples, seed = rng.randint(1, space - 1), rng.randint(0, 99)
            kwargs = {"limit": n - 1, "samples": samples, "seed": seed}
            draw, masks = random.Random(seed), {}
            while len(masks) < samples:
                masks.setdefault(draw.randint(1, space))
        else:
            kwargs, masks = {"limit": n}, range(1, space + 1)
        labeled = _assert_kernel_matches_reference(vectors, candidates, masks, **kwargs)
        if labeled != "no unique winner":
            seen[sampled] += 1


# Before the block kernel, _check_masks built a list of every candidate's key
# per mask and per part and took its min, count and index.  Kept verbatim as
# the reference.

def _reference_check_masks(
    election: ElectionProfile,
    vectors: Sequence[tuple[int, ...]],
    masks: Iterable[int],
    *,
    sampled: bool,
) -> PartitionCheckReport:
    """Evaluate the consistency premise over 2-partitions given as bitmasks.

    Bit ``i`` of a mask puts ballot ``vectors[i]`` in part 1, the rest are in
    part 2.  A part's ``(p, q)`` for a candidate are popcounts against that
    candidate's positive and negative ballot bitmasks.
    """
    require_rankable(election)
    ids = [c.id for c in election.candidates]
    n = len(vectors)
    everyone = (1 << n) - 1
    signs = [
        [sum(1 << i for i, vec in enumerate(vectors) if vec[c] == g) for g in (0, 2)]
        for c in range(len(ids))
    ]
    span = 2 * n + 1  # t lies in [-n, n], so s * span + t orders (s, t) lexicographically

    def keys(part: int) -> list[int]:
        # -(s * span + t) for each candidate's mj3 pair (s, t): the key
        # (-p, q) if p > q else (q, -p) of mj3_keys as one integer
        return [
            q - p * span if p > q else q * span - p
            for pos, neg in signs
            for p in ((part & pos).bit_count(),)
            for q in ((part & neg).bit_count(),)
        ]

    overall = keys(everyone)
    top = min(overall)
    if overall.count(top) != 1:
        raise NoUniqueWinnerError("combined election has no unique winner")
    winner_overall = ids[overall.index(top)]
    report = PartitionCheckReport(
        n_ballots=n,
        n_partitions_checked=0,
        n_premise_satisfied=0,
        sampled=sampled,
    )
    for mask in masks:
        report.n_partitions_checked += 1
        keys1 = keys(mask)
        top = min(keys1)
        if keys1.count(top) != 1:
            continue
        w = keys1.index(top)
        keys2 = keys(everyone ^ mask)
        top = min(keys2)
        if keys2[w] != top or keys2.count(top) != 1:
            continue
        # |t| <= n, so each key gives back its score s exactly
        scores1, scores2 = ([-((k + n) // span) for k in ks] for ks in (keys1, keys2))
        s1, s2 = scores1[w], scores2[w]
        if not (s1 * s2 > 0 or (s1 == 0 and s2 == 0)):
            continue
        # A strict sign switch for *any* candidate breaks score additivity
        # across the parts (positives cancelled inside one part reappear in
        # the union), and with it the consistency guarantee.
        if any(a * b < 0 for a, b in zip(scores1, scores2)):
            continue
        size1 = mask.bit_count()
        report.n_premise_satisfied += 1
        report.premises.append(
            PartitionPremise(
                part_sizes=(size1, n - size1),
                winner=ids[w],
                scores_part1=dict(zip(ids, scores1)),
                scores_part2=dict(zip(ids, scores2)),
            )
        )
        if ids[w] != winner_overall:
            report.violations.append(
                ConsistencyViolation(
                    part_sizes=(size1, n - size1),
                    winner_parts=ids[w],
                    winner_overall=winner_overall,
                    s_part1=s1,
                    s_part2=s2,
                )
            )
    return report


def _leaning_election(rng, n, n_cands, lean):
    """``n`` random ballots over ``n_cands`` candidates and their grade
    positions.  With ``lean``, c1 is graded positive and the others negative
    half the time, so fewer partitions switch a score's sign and many
    meet the premise."""
    candidates = [Candidate(f"c{i + 1}") for i in range(n_cands)]
    vectors = [
        tuple(
            (0 if c == 0 else 2) if lean and rng.random() < 0.5 else rng.randrange(3)
            for c in range(n_cands)
        )
        for _ in range(n)
    ]
    election, ballots = _election(
        [{c.id: MJ3_SCALE_LABELS[g] for c, g in zip(candidates, vec)} for vec in vectors],
        candidates=candidates,
    )
    return election, ballots, vectors


def _reference_report(election, vectors, masks, sampled=False):
    """The reference's report, or None when it refuses a tied combined top."""
    try:
        return _reference_check_masks(election, vectors, masks, sampled=sampled)
    except NoUniqueWinnerError:
        return None


# (ballots, candidates, lean): ranges of 4,095 to 32,767 masks, so 4 to 32
# blocks of the kernel
BLOCK_CASES = [
    (13, 1, False), (13, 2, True), (14, 3, True), (13, 5, False),
    (14, 8, False), (16, 4, False), (15, 2, False),
]


def test_block_kernel_matches_the_reference_on_labeled_ranges():
    rng = random.Random(1729)
    premises = Counter()
    for n, n_cands, lean in BLOCK_CASES:
        expected = None
        while expected is None:  # redraw a tied combined top
            election, ballots, vectors = _leaning_election(rng, n, n_cands, lean)
            expected = _reference_report(election, vectors, range(1, 2 ** (n - 1)))
        assert check_consistency(election, ballots, limit=n) == expected
        premises[n_cands] += expected.n_premise_satisfied
    # the 2- and 3-candidate cases reach the premise code often
    assert premises[1] > 0 and premises[2] > 500 and premises[3] > 500


def test_block_kernel_matches_the_reference_on_sampled_masks():
    rng = random.Random(4242)
    for n, n_cands, samples in ((16, 3, 2500), (15, 5, 1100), (16, 2, 1)):
        expected = None
        while expected is None:
            election, ballots, vectors = _leaning_election(rng, n, n_cands, lean=True)
            # the distinct draws check_consistency makes, in draw order
            draw, masks = random.Random(n), {}
            while len(masks) < samples:
                masks.setdefault(draw.randint(1, 2 ** (n - 1) - 1))
            expected = _reference_report(election, vectors, masks, sampled=True)
        assert _check_masks(election, vectors, masks, sampled=True) == expected
        assert check_consistency(
            election, ballots, limit=n - 1, samples=samples, seed=n
        ) == expected
        assert expected.n_partitions_checked == samples


def test_block_kernel_matches_the_reference_on_split_prefix_masks():
    rng = random.Random(577)
    checked = 0
    for multiplicities in ((10, 8, 6, 5), (3, 2), (12,)):
        candidates = [Candidate(f"c{i + 1}") for i in range(3)]
        kinds = set()
        while len(kinds) < len(multiplicities):
            kinds.add(tuple(rng.randrange(3) for _ in candidates))
        vectors = [vec for vec, m in zip(sorted(kinds), multiplicities) for _ in range(m)]
        rng.shuffle(vectors)
        election, ballots = _election(
            [{c.id: MJ3_SCALE_LABELS[g] for c, g in zip(candidates, vec)}
             for vec in vectors],
            candidates=candidates,
        )
        # the kernel's input: ballots sorted kind by kind
        masks = list(_reference_splits(multiplicities))
        expected = _reference_report(election, sorted(vectors), masks)
        if expected is None:
            with pytest.raises(NoUniqueWinnerError):
                check_consistency_splits(election, ballots)
        else:
            assert check_consistency_splits(election, ballots) == expected
            checked += expected.n_partitions_checked
    assert checked > 2 * 1024  # the largest case spans three blocks


# Before the split masks were taken from the first half of one product of
# per-kind prefix masks, check_consistency_splits made them in this generator.
# Kept verbatim as the reference.

def _reference_splits(multiplicities: Sequence[int]) -> Iterator[int]:
    offsets = list(accumulate(multiplicities, initial=0))
    for taken in product(*(range(m + 1) for m in multiplicities)):
        complement = tuple(m - t for m, t in zip(multiplicities, taken))
        # skip an empty part, and each unordered split's mirror image
        if sum(taken) == 0 or sum(complement) == 0 or taken > complement:
            continue
        yield sum(((1 << t) - 1) << at for t, at in zip(taken, offsets))


def test_split_masks_match_the_reference_generator(monkeypatch):
    seen = []
    monkeypatch.setattr(
        properties, "_check_masks",
        lambda election, vectors, masks, sampled: seen.append(list(masks)),
    )
    candidates = [Candidate(f"c{i + 1}") for i in range(3)]
    kinds = list(product(range(3), repeat=3))  # sorted, as the check sorts them
    cases = [(1,) * 12] + [
        ms for k in range(1, 5) for ms in product(range(1, 5), repeat=k) if sum(ms) > 1
    ]
    for multiplicities in cases:
        vectors = [vec for vec, m in zip(kinds, multiplicities) for _ in range(m)]
        election, ballots = _election(
            [{c.id: MJ3_SCALE_LABELS[g] for c, g in zip(candidates, vec)}
             for vec in reversed(vectors)],
            candidates=candidates,
        )
        check_consistency_splits(election, ballots)
        assert seen.pop() == list(_reference_splits(multiplicities)), multiplicities
    assert len(cases) == 1 + 4 + 16 + 64 + 256 - 1


def test_part_keys_match_the_integer_key_rule():
    # the rule _check_masks stated itself before it took the keys from
    # mj3_keys: -(s * span + t) of the mj3 pair (s, t) at index p * (n + 1) + q
    for n in range(25):
        span = 2 * n + 1
        pairs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        expected = [q - p * span if p > q else q * span - p for p, q in pairs]
        assert properties._part_keys(n, [(p, 0, q) for p, q in pairs]) == expected


def test_block_kernel_on_one_candidate_and_on_a_tied_top():
    rng = random.Random(99)
    election, ballots, vectors = _leaning_election(rng, 14, 1, lean=False)
    expected = _reference_report(election, vectors, range(1, 2 ** 13))
    assert check_consistency(election, ballots, limit=14) == expected
    assert expected.premises
    # c1 and c2 graded alike on every ballot: their keys tie in every part
    vectors = [(g, g, (g + 1) % 3) for g in (0, 0, 1, 2, 0, 1, 0, 2, 0, 0, 1, 0, 2)]
    candidates = [Candidate(cid) for cid in ("c1", "c2", "c3")]
    election, ballots = _election(
        [{c.id: MJ3_SCALE_LABELS[g] for c, g in zip(candidates, vec)} for vec in vectors],
        candidates=candidates,
    )
    assert _reference_report(election, vectors, range(1, 2 ** 12)) is None
    with pytest.raises(NoUniqueWinnerError):
        check_consistency(election, ballots, limit=13)


def test_rival_filter_keeps_exactly_the_shared_unique_tops(monkeypatch):
    blocks = []

    def spy(keys1, keys2, strongest):
        found = _unique_tops(keys1, keys2, strongest)
        blocks.append((keys1, keys2, found))
        return found

    monkeypatch.setattr(properties, "_unique_tops", spy)
    rng = random.Random(8128)
    shared = 0  # blocks with more than one top, which must come out interleaved
    while shared < 4 or len(blocks) < 24:
        n, n_cands = rng.randint(11, 13), rng.randint(2, 4)
        election, ballots, vectors = _leaning_election(rng, n, n_cands, lean=False)
        if _reference_report(election, vectors, ()) is None:  # a tied combined top
            continue
        start = len(blocks)
        check_consistency(election, ballots, limit=n)
        check_consistency(election, ballots, limit=n - 1, samples=2 ** n // 5, seed=n)
        for keys1, keys2, found in blocks[start:]:
            expected = []
            for i, (part1, part2) in enumerate(zip(zip(*keys1), zip(*keys2))):
                top1, top2 = min(part1), min(part2)
                w = part1.index(top1)
                if part1.count(top1) == part2.count(top2) == 1 and part2[w] == top2:
                    expected.append((i, w))
            assert found == expected
            shared += len({w for _, w in found}) > 1


def test_sample_count_must_be_positive():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    for samples in (0, -5):
        with pytest.raises(ConfigError, match="samples must be at least 1"):
            check_consistency(election, fx.ballots, samples=samples)


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


@pytest.mark.parametrize("max_voters", [1, 0, -3])
def test_random_sweep_refuses_a_cap_below_two_voters(max_voters):
    # a one-ballot election has no 2-partition; rng.randint(2, 1) used to
    # end in a ValueError
    with pytest.raises(ConfigError, match="max_voters must be at least 2"):
        random_consistency_sweep(5, max_voters=max_voters, seed=0)


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


def _twelve_candidates():
    """A 12-candidate three-grade election with a unique winner: 3^12 =
    531,441 grade vectors, above the searches' cap of 250,000."""
    candidates = [Candidate(f"c{i + 1}") for i in range(12)]
    return _election([{"c1": "positive"}, {"c2": "neutral"}], candidates=candidates)


def test_addition_search_respects_its_cap():
    election, ballots = _twelve_candidates()
    with pytest.raises(VoteError, match="531441 .* exceed the addition-search cap"):
        search_no_show(election, ballots)


def test_probe_respects_the_same_cap():
    election, ballots = _twelve_candidates()
    with pytest.raises(VoteError, match="531441 .* exceed the probe cap"):
        manipulation_probe(election, ballots, "v1")


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


C123 = [Candidate("c1"), Candidate("c2"), Candidate("c3")]


@cache
def _full_rankings(combo):
    """The order and tie groups of ``mj3_rank`` and of ``mj_rank`` on the
    three-grade election with tallies ``combo`` (candidates ``c1``, ``c2``,
    ... in that order).  Cached: the key test below ranks every election the
    reference needs."""
    candidates = C123[:len(combo)]
    counts = {c.id: tallies for c, tallies in zip(candidates, combo)}
    election = election_from_counts(SCALE3, candidates, counts)
    return tuple(
        (result.order, result.tie_groups)
        for result in (mj3_rank(election), mj_rank(election))
    )


def _cross_method_reference(*, max_voters, max_candidates):
    """The cross-method search as it ran on profiles: both full rankings of
    every election, diffed by order and tie groups."""
    report = CrossMethodReport(n_instances=0)
    for n_cands in range(1, max_candidates + 1):
        ids = [f"c{i + 1}" for i in range(n_cands)]
        for n in range(1, max_voters + 1):
            for combo in product(_tallies(n, 3), repeat=n_cands):
                report.n_instances += 1
                counts = dict(zip(ids, combo))
                by_score, by_removal = _full_rankings(combo)
                if by_score != by_removal:
                    report.disagreements.append(
                        f"counts {counts}: score order {by_score[0]} "
                        f"vs removal order {by_removal[0]}"
                    )
    return report


def _as_indices(ranking):
    """An order and its tie groups of candidate ids as candidate positions."""
    order, groups = ranking
    position = {f"c{i + 1}": i for i in range(3)}
    return (
        [position[cid] for cid in order],
        [[position[cid] for cid in group] for group in groups],
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cross_method_keys_rank_every_election_like_the_rankers(n):
    tallies, score_keys, removal_keys = _cross_method_keys(n)
    assert tallies == _tallies(n, 3)
    seen_ties = False
    for n_cands in (1, 2, 3):
        for combo in product(range(len(tallies)), repeat=n_cands):
            by_score, by_removal = _full_rankings(tuple(tallies[i] for i in combo))
            assert _ranking([score_keys[i] for i in combo]) == _as_indices(by_score)
            assert _ranking([removal_keys[i] for i in combo]) == _as_indices(by_removal)
            seen_ties = seen_ties or bool(by_score[1])
    assert seen_ties


@pytest.mark.parametrize("max_voters", [1, 2, 3, 4])
def test_cross_method_search_matches_the_full_rankers(max_voters):
    for max_candidates in (1, 2, 3):
        assert search_cross_method_disagreements(
            max_voters=max_voters, max_candidates=max_candidates
        ) == _cross_method_reference(
            max_voters=max_voters, max_candidates=max_candidates
        )


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


# ---------------------------------------------------------------------------
# the addition kernel against the searches as they ran before it
# ---------------------------------------------------------------------------

# Before the addition kernel, every extra ballot's tallies were gathered from
# pre-bumped rows and decided by outcome_from_counts, and the flip was tested
# on a grade dict.  _with_each_ballot, _flips_against and _additions are kept
# verbatim as the reference; the three _reference_* searches call them as the
# searches did.

def _with_each_ballot(
    method: str, ids: Sequence[str], base: Tallies, n_voters: int, n_grades: int
) -> Iterator[tuple[tuple[int, ...], Outcome]]:
    """Every grade vector one more ballot could carry, in ``product`` order,
    with the outcome once that ballot joins ``base``."""
    bumped = [[_bump(c, g, 1) for g in range(n_grades)] for c in base]
    for vector in product(range(n_grades), repeat=len(ids)):
        tallies = [row[g] for row, g in zip(bumped, vector)]
        yield vector, outcome_from_counts(method, ids, tallies, n_voters + 1)


def _flips_against(before: Outcome, after: Outcome, grade_of: Mapping[str, int]) -> bool:
    """Whether ``after`` elects a unique winner graded worse (a larger
    position) than ``before``'s winner or than a candidate ``before`` ties."""
    if after.kind != "winner":
        return False
    if before.kind == "winner" and before.winner != after.winner:
        return grade_of[after.winner] > grade_of[before.winner]
    if before.kind == "tie":
        return any(grade_of[x] < grade_of[after.winner] for x in before.tied)
    return False


def _additions(
    method: str, ids, labels, base: Tallies, n_voters: int, before: Outcome
) -> list[NoShowCounterexample]:
    """Every extra ballot whose casting flips ``before`` against its own grades."""
    found = []
    for vector, after in _with_each_ballot(method, ids, base, n_voters, len(labels)):
        if _flips_against(before, after, dict(zip(ids, vector))):
            found.append(
                NoShowCounterexample(
                    kind="addition",
                    grades={cid: labels[g] for cid, g in zip(ids, vector)},
                    voter_id=None,
                    before=before,
                    after=after,
                )
            )
    return found


def _reference_no_show(election, ballots, method):
    """``search_no_show(election, ballots, method=method)`` as it ran before."""
    scale = election.scale
    ids = [c.id for c in election.candidates]
    base = [p.counts for p in election.profiles]
    before = outcome_from_counts(method, ids, base, election.n_voters)
    found = _additions(method, ids, scale.labels, base, election.n_voters, before)
    vectors = [tuple(b.grade_index(cid, scale) for cid in ids) for b in ballots]
    seen = set()
    for ballot, vector in zip(ballots, vectors):
        if vector in seen or election.n_voters == 1:
            continue
        seen.add(vector)
        reduced = [_bump(c, g, -1) for c, g in zip(base, vector)]
        without = outcome_from_counts(method, ids, reduced, election.n_voters - 1)
        reversed_grades = {cid: -g for cid, g in zip(ids, vector)}
        if _flips_against(before, without, reversed_grades):
            found.append(
                NoShowCounterexample(
                    kind="removal",
                    grades={cid: scale.labels[g] for cid, g in zip(ids, vector)},
                    voter_id=ballot.voter_id,
                    before=before,
                    after=without,
                )
            )
    return found


def _reference_no_show_exhaustive(max_voters, method):
    """``search_no_show_exhaustive`` as it ran before."""
    scale = APPROVAL_SCALE if method == "approval3" else SCALE3
    ids = ("a", "b")
    report = NoShowSweepReport(n_instances=0, n_additions_checked=0)
    for n in range(1, max_voters + 1):
        for base in product(_tallies(n, 3), repeat=2):
            report.n_instances += 1
            report.n_additions_checked += scale.size ** len(ids)
            before = outcome_from_counts(method, ids, base, n)
            report.counterexamples += _additions(
                method, ids, scale.labels, base, n, before
            )
    return report


def _reference_probe(election, ballots, voter_id, method):
    """``manipulation_probe(election, ballots, voter_id, method=method)`` as
    it ran before."""
    scale = election.scale
    ids = [c.id for c in election.candidates]
    honest = next(b for b in ballots if b.voter_id == voter_id)
    honest_vector = tuple(honest.grade_index(cid, scale) for cid in ids)
    full = [p.counts for p in election.profiles]
    honest_outcome = outcome_from_counts(method, ids, full, election.n_voters)
    report = ManipulationReport(
        voter_id=voter_id, honest_winner=honest_outcome.winner, n_alternatives=0
    )
    if honest_outcome.kind != "winner":
        return report
    honest_grade = dict(zip(ids, honest_vector))
    others = [_bump(c, g, -1) for c, g in zip(full, honest_vector)]
    n_others = election.n_voters - 1
    for vector, outcome in _with_each_ballot(method, ids, others, n_others, scale.size):
        if vector == honest_vector:
            continue
        report.n_alternatives += 1
        if outcome.kind != "winner":
            continue
        if honest_grade[outcome.winner] < honest_grade[honest_outcome.winner]:
            grades = {cid: scale.labels[g] for cid, g in zip(ids, vector)}
            report.improving.append(Deviation(grades=grades, winner=outcome.winner))
    return report


@pytest.mark.parametrize("method", ["mj3", "mj", "approval3"])
def test_exhaustive_no_show_matches_the_reference(method):
    # the report lists every instance with up to five ballots in order
    assert search_no_show_exhaustive(
        max_voters=5, method=method
    ) == _reference_no_show_exhaustive(5, method)


@pytest.mark.parametrize("method", ["mj3", "mj", "approval3"])
def test_exhaustive_tables_decide_every_vector_like_the_reference(method):
    # On three grades the exhaustive search finds no counterexample, so its
    # report cannot show a wrongly decided vector.  Every instance up to 4
    # voters, from the tables built as the search builds them, must elect
    # the reference's winner, and skip its ties and rejections.
    ids = ("a", "b")
    seen = Counter()
    for n in range(1, 5):
        tallies = list(_compositions(n, 3))
        key_rows, approved_rows = _addition_rows(method, tallies, n, 3)
        for pair in product(range(len(tallies)), repeat=len(ids)):
            pick = itemgetter(*pair)
            rows = (pick(key_rows), approved_rows and pick(approved_rows))
            base = [tallies[i] for i in pair]
            outcomes = list(_with_each_ballot(method, ids, base, n, 3))
            assert list(_unique_winners(*rows)) == [
                (vector, ids.index(after.winner))
                for vector, after in outcomes
                if after.kind == "winner"
            ]
            seen.update(after.kind for _, after in outcomes)
    assert seen["winner"] and seen["tie"]
    assert bool(seen["rejected"]) is (method == "approval3")


SCALE4 = GradeScale(("g0", "g1", "g2", "g3"))

# (method, scale) -> voter cap for 1, 2 and 3 candidates; every ballot
# multiset within the caps is searched (2,259 elections in all)
ADDITION_CASES = {
    ("mj3", SCALE3): (4, 3, 2),
    ("approval3", APPROVAL_SCALE): (4, 3, 2),
    ("mj", SCALE3): (4, 3, 2),
    ("mj", SCALE4): (4, 2, 1),
}


@pytest.mark.parametrize("method, scale", ADDITION_CASES)
def test_no_show_and_probe_match_the_reference_on_every_small_election(method, scale):
    seen = Counter()
    for n_cands, max_voters in enumerate(ADDITION_CASES[method, scale], start=1):
        candidates = [Candidate(f"c{i + 1}") for i in range(n_cands)]
        ids = [c.id for c in candidates]
        kinds = list(product(scale.labels, repeat=n_cands))
        for n in range(1, max_voters + 1):
            for combo in combinations_with_replacement(kinds, n):
                election, ballots = _election(
                    [dict(zip(ids, kind)) for kind in combo],
                    candidates=candidates, scale=scale,
                )
                found = search_no_show(election, ballots, method=method)
                assert found == _reference_no_show(election, ballots, method), combo
                probe = manipulation_probe(election, ballots, f"v{n}", method=method)
                assert probe == _reference_probe(election, ballots, f"v{n}", method)
                tallies = [p.counts for p in election.profiles]
                seen[outcome_from_counts(method, ids, tallies, n).kind] += 1
                seen["improving"] += bool(probe.improving)
                seen.update(ce.kind for ce in found)
    assert seen["winner"] and seen["tie"] and seen["improving"]
    if method == "approval3":
        assert seen["rejected"]
    if scale is SCALE4:  # the removal case is the school fixture's, below
        assert seen["addition"]
    else:  # three grades never punish participation
        assert not seen["addition"] and not seen["removal"]


def test_no_show_and_probe_match_the_reference_on_the_school_fixture():
    fx = school_outing()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    found = search_no_show(election, fx.ballots)
    assert found == _reference_no_show(election, fx.ballots, "mj")
    assert [ce.kind for ce in found] == ["removal"]
    for ballot in fx.ballots:
        probe = manipulation_probe(election, fx.ballots, ballot.voter_id)
        assert probe == _reference_probe(election, fx.ballots, ballot.voter_id, "mj")
