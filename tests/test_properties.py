"""Brute-force property harness: consistency, participation, polarization."""

import ast
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, combinations_with_replacement, product
from math import comb, prod
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
from gradevote.mj3 import MJ3_SCALE_LABELS, Tally3, score3
from gradevote.properties import (
    ConsistencyViolation,
    CrossMethodReport,
    Deviation,
    ManipulationReport,
    NoShowCounterexample,
    NoShowSweepReport,
    NoUniqueWinnerError,
    OutputCapError,
    PartitionCheckReport,
    _addition_counterexamples,
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
)
from gradevote.results import Tallies, require_rankable

SCALE3 = GradeScale(MJ3_SCALE_LABELS)
AB = [Candidate("a"), Candidate("b")]


@dataclass(frozen=True)
class PartitionPremise:
    """A partition where both parts elect the same candidate, that winner's
    scores keep the same sign, and no candidate's score strictly changes sign
    between the parts: the record the recount references keep of each
    premise hit.  The kernel only counts them."""

    part_sizes: tuple[int, int]
    winner: str
    scores_part1: Mapping[str, int]
    scores_part2: Mapping[str, int]


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

@pytest.mark.parametrize("check", [check_consistency, check_consistency_splits])
def test_a_one_ballot_election_has_no_partition_to_check(check):
    election, ballots = _election([{"a": "positive", "b": "neutral"}])
    with pytest.raises(VoteError, match="partition check needs at least two ballots"):
        check(election, ballots)


def test_two_identical_ballots_have_one_partition():
    election, ballots = _election(
        [{"a": "positive", "b": "neutral"}, {"a": "positive", "b": "neutral"}]
    )
    report = check_consistency(election, ballots)
    assert report.ok
    assert report.n_partitions_checked == 1
    assert report.n_premise_satisfied == 1
    premises, _ = _reference_premises(election, _labeled_parts(ballots, [1]))
    assert premises == [PartitionPremise((1, 1), "a", {"a": 1, "b": 0}, {"a": 1, "b": 0})]


def test_school_three_grade_is_consistent_across_all_splits():
    fx = school_outing_3grade()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    report = check_consistency_splits(election, fx.ballots)
    assert report.ok
    assert report.n_ballots == 21
    # 3 ballot kinds with multiplicities 10/10/1: 11*11*2 vectors, minus the
    # two empty-part ones, halved because splits are unordered
    assert report.n_partitions_checked == 120
    premises, violations = _reference_premises(
        election, _split_parts(election, fx.ballots))
    assert report.n_premise_satisfied == len(premises) > 0
    assert report.violations == violations == []
    for premise in premises:
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
    premises, _ = _reference_premises(
        election, _labeled_parts(ballots, range(1, 2 ** 7)))
    assert report.n_premise_satisfied == len(premises)
    assert all(p.winner == "b" for p in premises)


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


def test_sampled_check_builds_no_table_of_every_part_index(monkeypatch):
    # a sampled check of n ballots must not key all (n + 1)² part tallies:
    # at 10,000 ballots that table would hold 100 M entries
    sizes = []

    def spy(n, tallies):
        tallies = list(tallies)
        sizes.append(len(tallies))
        return part_keys(n, tallies)

    part_keys = properties._part_keys
    monkeypatch.setattr(properties, "_part_keys", spy)
    rng = random.Random(60)
    election, ballots, _ = _leaning_election(rng, 400, 3, lean=True)
    report = check_consistency(election, ballots, samples=1500, seed=1)
    assert report.sampled and report.n_partitions_checked == 1500
    assert max(sizes) == 1024  # one block of masks


def test_sampled_partitions_are_distinct(monkeypatch):
    # 9 ballots have 2^8 - 1 = 255 partitions: 254 distinct draws miss one
    seen = []

    def spy(election, vectors, copies, masks, sampled):
        seen.append(list(masks))
        return check_masks(election, vectors, copies, seen[-1], sampled=sampled)

    check_masks = properties._check_masks
    monkeypatch.setattr(properties, "_check_masks", spy)
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
    assert seen.pop() == list(range(1, 256))
    for seed in range(3):
        report = check_consistency(election, ballots, samples=254, seed=seed)
        assert report.sampled and report.n_partitions_checked == 254
        masks = seen.pop()
        assert len(masks) == len(set(masks)) == 254
        (missing,) = set(range(1, 256)) - set(masks)
        premises, _ = _reference_premises(election, _labeled_parts(ballots, [missing]))
        assert report.n_premise_satisfied + len(premises) == exhaustive.n_premise_satisfied
    report = check_consistency(election, ballots, samples=255, seed=0)
    assert not report.sampled
    assert seen.pop() == list(range(1, 256))
    assert report == exhaustive


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
        assert report.n_premise_satisfied == len(premises)
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
) -> tuple[PartitionCheckReport, list[PartitionPremise]]:
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
    premises = []
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
        premises.append(
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
    return report, premises


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
        return _check_partitions(election, partitions, sampled=sampled)[0]
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
                 if labeled.n_premise_satisfied else "no premise"] += 1
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
    signless: bool = False,
) -> tuple[PartitionCheckReport, list[PartitionPremise]]:
    """Evaluate the consistency premise over 2-partitions given as bitmasks.

    Bit ``i`` of a mask puts ballot ``vectors[i]`` in part 1, the rest are in
    part 2.  A part's ``(p, q)`` for a candidate are popcounts against that
    candidate's positive and negative ballot bitmasks.

    ``signless`` (for tests only) weakens the premise as the kernel is
    weakened with ``properties._sign_table`` patched to keep every sign: no
    candidate's sign switch is tested, and the winner's scores need only be
    both zero or both not.
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
    premises = []
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
        if signless:
            if (s1 == 0) != (s2 == 0):
                continue
        else:
            if not (s1 * s2 > 0 or (s1 == 0 and s2 == 0)):
                continue
            # A strict sign switch for *any* candidate breaks score additivity
            # across the parts (positives cancelled inside one part reappear in
            # the union), and with it the consistency guarantee.
            if any(a * b < 0 for a, b in zip(scores1, scores2)):
                continue
        size1 = mask.bit_count()
        report.n_premise_satisfied += 1
        premises.append(
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
    return report, premises


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
        return _reference_check_masks(election, vectors, masks, sampled=sampled)[0]
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
        assert _check_masks(election, vectors, (1,) * n, masks, sampled=True) == expected
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


def test_kernel_violations_match_the_reference_without_the_sign_filter(monkeypatch):
    # weak consistency holds for three grades, so only a weakened premise
    # finds violations: with every sign kept, both the walk and the
    # per-block filter keep every mask, as the signless reference does
    monkeypatch.setattr(properties, "_sign_table", lambda k1, k2: [True] * len(k1))
    rng = random.Random(6174)
    violations = Counter()
    for _ in range(150):
        n, n_cands = rng.randint(2, 12), rng.randint(1, 6)
        election, ballots, vectors = _leaning_election(rng, n, n_cands, rng.random() < 0.5)
        labeled = range(1, 2 ** (n - 1))
        drawn = rng.sample(labeled, min(64, len(labeled)))  # not in mask order
        kinds = sorted(Counter(vectors).items())
        splits = list(_reference_splits([m for _, m in kinds]))
        try:
            expected = [
                _reference_check_masks(election, by, masks, sampled=sampled, signless=True)[0]
                for by, masks, sampled in ((vectors, labeled, False), (vectors, drawn, True),
                                           (sorted(vectors), splits, False))
            ]
        except NoUniqueWinnerError:
            continue
        got = [
            check_consistency(election, ballots, limit=n),  # the range path
            _check_masks(election, vectors, (1,) * n, drawn, sampled=True),
            check_consistency_splits(election, ballots),  # the per-block path
        ]
        assert got == expected
        for path, report in zip(("labeled", "sampled", "splits"), expected):
            violations[path] += len(report.violations)
    assert min(violations.values()) > 0, violations


def _walk_masks(kinds, copies, positions) -> Iterator[int]:
    """The bitmask of each of the walk's ``positions`` over the ballots
    sorted kind by kind: digit ``k`` of a position, least significant first,
    is how many of the ``copies[k]`` ballots of kind ``kinds[k]`` part 1
    takes, a prefix of that kind's bits."""
    ordered = sorted(zip(kinds, copies))
    offsets = dict(zip((vec for vec, _ in ordered),
                       accumulate((m for _, m in ordered), initial=0)))
    for position in positions:
        mask = 0
        for vec, m in zip(kinds, copies):
            position, taken = divmod(position, m + 1)
            mask |= ((1 << taken) - 1) << offsets[vec]
        yield mask


def test_split_masks_match_the_reference_generator(monkeypatch):
    # the split check walks positions over kinds, not masks: each position
    # is read back as the mask of the ballots it puts in part 1
    seen = []
    monkeypatch.setattr(
        properties, "_check_masks",
        lambda election, kinds, copies, positions, sampled: seen.append(
            list(_walk_masks(kinds, copies, positions))),
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
    assert expected.n_premise_satisfied
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


def _mask_keys(vectors: Sequence[tuple[int, ...]]):
    """The reference's key rule: each candidate's integer ``mj3`` key of the
    part of ``vectors`` that a bitmask selects, recounted per mask."""
    span = 2 * len(vectors) + 1
    signs = [
        [sum(1 << i for i, vec in enumerate(vectors) if vec[c] == g) for g in (0, 2)]
        for c in range(len(vectors[0]))
    ]

    def keys(part: int) -> list[int]:
        return [
            q - p * span if p > q else q * span - p
            for pos, neg in signs
            for p in ((part & pos).bit_count(),)
            for q in ((part & neg).bit_count(),)
        ]

    return keys


def test_rival_filter_keeps_exactly_the_shared_unique_tops():
    rng = random.Random(8128)
    blocks = shared = 0  # shared: blocks with more than one top, interleaved
    for _ in range(60):  # a bounded draw: too few blocks fails, it never hangs
        if shared >= 4 and blocks >= 24:
            break
        n, n_cands = rng.randint(11, 13), rng.randint(2, 4)
        _, _, vectors = _leaning_election(rng, n, n_cands, lean=False)
        keys, everyone = _mask_keys(vectors), (1 << n) - 1
        overall = keys(everyone)
        if overall.count(min(overall)) != 1:  # a tied combined top
            continue
        strongest = sorted(range(n_cands), key=overall.__getitem__)
        labeled = list(range(1, 2 ** (n - 1)))
        drawn = rng.sample(range(1, everyone), 1024)
        for block in (*(labeled[i:i + 1024] for i in range(0, len(labeled), 1024)),
                      drawn):
            # full key columns, one row per mask: no mask filtered out first
            keys1 = [list(column) for column in zip(*map(keys, block))]
            keys2 = [list(column) for column in
                     zip(*(keys(everyone ^ mask) for mask in block))]
            found = [(w, list(at), w1, w2)
                     for w, at, w1, w2 in _unique_tops(keys1, keys2, strongest)]
            tops = {w: [] for w in strongest}
            for i, (part1, part2) in enumerate(zip(zip(*keys1), zip(*keys2))):
                top1, top2 = min(part1), min(part2)
                w = part1.index(top1)
                if part1.count(top1) == part2.count(top2) == 1 and part2[w] == top2:
                    tops[w].append(i)
            # strongest first, each top with its positions and key columns
            expected = [(w, at, [keys1[w][i] for i in at], [keys2[w][i] for i in at])
                        for w, at in tops.items() if at]
            assert found == expected
            blocks += 1
            shared += len(found) > 1
    assert shared >= 4 and blocks >= 24


def test_sign_tables_follow_the_recount_rule():
    # ok[j] holds exactly when the two parts' scores (score3's s) are not of
    # strict opposite signs
    for n in range(13):
        side = n + 1
        table = properties._part_keys(
            n, [(p, 0, q) for p in range(side) for q in range(side)])
        for tp, tq in ((tp, tq) for tp in range(side) for tq in range(side - tp)):
            end = tp * side + tq
            ok = properties._sign_table(table[:end + 1], table[end::-1])
            assert len(ok) == end + 1
            for p, q in product(range(tp + 1), range(tq + 1)):
                s1 = score3(Tally3(p, n - tp - tq, q)).s
                s2 = score3(Tally3(tp - p, 0, tq - q)).s
                assert ok[p * side + q] == (s1 * s2 >= 0), (n, tp, tq, p, q)


def test_sign_kept_part_keys_add_up_to_the_key_of_the_totals():
    # the lemma _check_masks rests on: once no strict sign switch is left,
    # the packed keys of the two parts add exactly, k1 + k2 == key(totals)
    kept = 0
    for n in range(17):
        for tp, tq in ((tp, tq) for tp in range(n + 1) for tq in range(n + 1 - tp)):
            (total,) = properties._part_keys(n, [(tp, 0, tq)])
            for p, q in product(range(tp + 1), range(tq + 1)):
                k1, k2 = properties._part_keys(n, [(p, 0, q), (tp - p, 0, tq - q)])
                if k1 * k2 >= 0:
                    assert k1 + k2 == total, (n, tp, tq, p, q)
                    kept += 1
    assert kept == 11_205  # of the 20,349 part-tally pairs


def test_reach_keys_cover_exactly_the_reachable_part_tallies():
    for n, most_p, most_q in ((0, 0, 0), (7, 3, 4), (12, 12, 0), (16, 5, 9)):
        table, back = properties._reach_keys(n, most_p, most_q)
        pairs = list(product(range(most_p + 1), range(most_q + 1)))
        assert table == tuple(properties._part_keys(n, [(p, 0, q) for p, q in pairs]))
        assert back == table[::-1]
        # index j of the reverse holds the key of the other part
        for j, (p, q) in enumerate(pairs):
            assert back[j] == properties._part_keys(n, [(most_p - p, 0, most_q - q)])[0]
        assert properties._reach_keys(n, most_p, most_q)[0] is table  # cached


@pytest.mark.parametrize("multiplicities, hits", [((20_000,), 10_000), ((300, 299), 44_850)])
def test_large_kinds_are_walked_in_chunks(monkeypatch, multiplicities, hits):
    # a kind with more than _BLOCK ballots is walked a chunk of its digit
    # range at a time, never one position per block
    sizes = []
    walk_columns = properties._walk_columns

    def spy(*args):
        for block in walk_columns(*args):
            sizes.append(block[0])
            yield block

    monkeypatch.setattr(properties, "_walk_columns", spy)
    kinds = [{"a": "positive", "b": "negative"}, {"a": "neutral", "b": "negative"}]
    election, ballots = _election(
        [kind for kind, m in zip(kinds, multiplicities) for _ in range(m)])
    report = check_consistency_splits(election, ballots)
    splits = (prod(m + 1 for m in multiplicities) + 1) // 2 - 1
    assert report.n_partitions_checked == sum(sizes) == splits
    assert max(sizes) <= properties._BLOCK
    assert len(sizes) <= splits // (properties._BLOCK // 2) + 1
    # a tops both parts of every split, and its two scores are both non-zero
    # unless part 1 takes no ballot of the first kind (299 splits of the second)
    assert report.ok and report.n_premise_satisfied == hits


def _sign_survivors(vectors, masks):
    """The masks where no candidate's score strictly switches sign."""
    keys, everyone = _mask_keys(vectors), (1 << len(vectors)) - 1
    return [mask for mask in masks
            if all(a * b >= 0 for a, b in zip(keys(mask), keys(everyone ^ mask)))]


def test_block_kernel_on_blocks_with_no_and_with_one_sign_survivor():
    rng = random.Random(3141)
    n, labeled = 13, range(1, 2 ** 12)
    for _ in range(20):  # a bounded draw
        election, _, vectors = _leaning_election(rng, n, 3, lean=False)
        if _reference_report(election, vectors, ()) is None:  # a tied combined top
            continue
        survivors = _sign_survivors(vectors, labeled)
        # a premise mask with at least one non-survivor on each side
        found = next((
            (before, mask, after)
            for before, mask, after in zip(survivors, survivors[1:], survivors[2:])
            if mask - before > 1 and after - mask > 1 and _reference_check_masks(
                election, vectors, [mask], sampled=False)[1]
        ), None)
        if found:
            break
    else:
        pytest.fail("no premise mask between two non-survivors drawn")
    before, mask, after = found
    others = sorted(set(labeled) - set(survivors))
    cases = {
        "none": range(before + 1, mask),
        "one": range(before + 1, after),
        "alone": range(mask, mask + 1),
        # one whole block of the per-block path
        "block": [mask] + rng.sample(others, 1023),
    }
    for name, masks in cases.items():
        for masks in (masks, list(masks)):  # a range, and the per-block path
            got = _check_masks(election, vectors, (1,) * n, masks, sampled=False)
            assert got == _reference_check_masks(election, vectors, masks, sampled=False)[0]
            assert got.n_partitions_checked == len(masks)
            assert got.n_premise_satisfied == (name != "none"), name
    assert len(cases["none"]) and len(cases["one"]) > 2


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


def test_ballot_vectors_name_the_first_unknown_label_as_the_scale_does():
    election, ballots = _election(
        [{"a": "positive", "b": "neutral"}, {"b": "negative"}, {"a": "neutral"}]
    )
    assert properties._ballot_vectors(election, ballots) == [(0, 1), (2, 2), (1, 2)]
    for label in ("great", ["x"], 0):
        wrong = [ballots[0], Ballot("v2", {"a": "neutral", "b": label}),
                 Ballot("v3", {"a": "bad"})]
        with pytest.raises(ValidationError) as raised:
            properties._ballot_vectors(election, wrong)
        assert str(raised.value) == f"unknown grade label {label!r}"
        with pytest.raises(ValidationError, match="unknown grade label"):
            search_no_show(election, wrong)


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
    531,441 grade vectors, more than a search lists at most."""
    candidates = [Candidate(f"c{i + 1}") for i in range(12)]
    return _election([{"c1": "positive"}, {"c2": "neutral"}], candidates=candidates)


def test_twelve_candidates_are_searched_exactly():
    election, ballots = _twelve_candidates()
    assert search_no_show(election, ballots) == []
    probe = manipulation_probe(election, ballots, "v1")
    assert (probe.honest_winner, probe.improving) == ("c1", [])
    assert probe.n_alternatives == 3**12 - 1


def _padded_mj(n_weak):
    """A 4-grade ``mj`` election where the extra ballot (a: g1, b: g0) elects
    a over b, with ``n_weak`` more candidates that both voters grade worst:
    whatever that ballot grades them, it stays a counterexample."""
    weak = [f"w{i + 1}" for i in range(n_weak)]
    candidates = [Candidate(cid) for cid in ("a", "b", *weak)]
    grades = [{"a": "g0", "b": "g2"}, {"a": "g3", "b": "g2"}]
    return _election([{**g, **dict.fromkeys(weak, "g3")} for g in grades],
                     candidates=candidates, scale=SCALE4)


def test_addition_counterexamples_are_listed_up_to_the_output_cap():
    election, ballots = _padded_mj(4)
    found = search_no_show(election, ballots)
    assert found == _reference_no_show(election, ballots, "mj")
    assert len(found) == 4**4
    assert {(ce.grades["a"], ce.grades["b"], ce.after.winner) for ce in found} == {
        ("g1", "g0", "a")
    }
    election, ballots = _padded_mj(9)
    with pytest.raises(OutputCapError, match=(
        "262144 addition counterexamples exceed the output cap of 250000"
    )) as raised:
        search_no_show(election, ballots)
    assert raised.value.count == 4**9


def _padded_removal(n_weak):
    """A 4-grade ``mj`` election with four addition counterexamples (extra
    ballots that elect c or a over b) and one removal counterexample (v1
    leaving elects a, which v1 grades above b), padded with ``n_weak``
    candidates that every voter grades worst.  Found among the elections of
    three candidates and six ballots by ``_reference_no_show``."""
    weak = [f"w{i + 1}" for i in range(n_weak)]
    candidates = [Candidate(cid) for cid in ("a", "b", "c", *weak)]
    vectors = [(0, 1, 1), (2, 0, 1), (2, 2, 1), (2, 2, 3), (2, 2, 3), (2, 3, 3)]
    return _election(
        [{**{cid: f"g{g}" for cid, g in zip("abc", v)}, **dict.fromkeys(weak, "g3")}
         for v in vectors],
        candidates=candidates, scale=SCALE4,
    )


def test_removal_counterexamples_are_listed_past_the_addition_cap():
    election, ballots = _padded_removal(2)
    found = search_no_show(election, ballots)
    assert found == _reference_no_show(election, ballots, "mj")
    assert [ce.kind for ce in found] == ["addition"] * 4 * 4**2 + ["removal"]
    election, ballots = _padded_removal(8)
    with pytest.raises(OutputCapError, match=(
        "262144 addition counterexamples exceed the output cap of 250000"
    )) as raised:
        search_no_show(election, ballots)
    assert raised.value.count == 4 * 4**8
    assert raised.value.listed == [
        NoShowCounterexample(
            kind="removal",
            grades={"a": "g0", "b": "g1", "c": "g1", **{f"w{i}": "g3" for i in range(1, 9)}},
            voter_id="v1",
            before=Outcome("winner", winner="b"),
            after=Outcome("winner", winner="a"),
        )
    ]
    # without ballots there is no removal form
    with pytest.raises(OutputCapError) as raised:
        search_no_show(election)
    assert raised.value.listed == []


def test_probe_lists_up_to_the_output_cap():
    # v1 grades a best: a deviation improves when it elects a
    election, ballots = _padded_mj(12)
    with pytest.raises(OutputCapError, match=(
        "535537 improving deviations exceed the output cap of 250000"
    )) as raised:
        manipulation_probe(election, ballots, "v1")
    assert raised.value.count == 3**12 + 2**12
    probe = manipulation_probe(election, ballots, "v2")
    assert (probe.improving, probe.n_alternatives) == ([], 4**14 - 1)


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


def _per_combo_search(*, max_voters, max_candidates):
    """The cross-method search as it ran before the pair kernel: both
    rankings of every election, each from the key table of
    ``properties._cross_method_keys``, diffed by order and tie groups."""
    report = CrossMethodReport(n_instances=0)
    for n_cands in range(1, max_candidates + 1):
        ids = [f"c{i + 1}" for i in range(n_cands)]
        for n in range(1, max_voters + 1):
            tallies, score_keys, removal_keys = properties._cross_method_keys(n)
            for combo in product(range(len(tallies)), repeat=n_cands):
                report.n_instances += 1
                by_score = _ranking([score_keys[i] for i in combo])
                by_removal = _ranking([removal_keys[i] for i in combo])
                if by_score != by_removal:
                    counts = {cid: tallies[i] for cid, i in zip(ids, combo)}
                    score_order = tuple(ids[i] for i in by_score[0])
                    removal_order = tuple(ids[i] for i in by_removal[0])
                    report.disagreements.append(
                        f"counts {counts}: score order {score_order} "
                        f"vs removal order {removal_order}"
                    )
    return report


def _perturbed_keys(seed):
    """``_cross_method_keys`` with each removal key replaced by its rank in
    the table, moved by a seeded offset: some distinct tallies then tie
    and some swap places, the same way for every call with the same ``n``."""
    def keys(n):
        tallies, score_keys, removal_keys = _cross_method_keys(n)
        rng = random.Random(seed * 1000 + n)
        rank = {key: 2 * i for i, key in enumerate(sorted(set(removal_keys)))}
        offsets = (-3, -2, -1, 0, 0, 0, 0, 0, 0, 1, 2, 3)
        return tallies, score_keys, [rank[key] + rng.choice(offsets) for key in removal_keys]
    return keys


def test_pair_kernel_lists_disagreements_like_the_per_combo_search(monkeypatch):
    # three-grade agreement holds, so only patched keys make disagreements
    blocks = set()
    for seed in range(8):
        monkeypatch.setattr(properties, "_cross_method_keys", _perturbed_keys(seed))
        for max_voters, max_candidates in product(range(1, 5), range(1, 4)):
            sizes = {"max_voters": max_voters, "max_candidates": max_candidates}
            report = search_cross_method_disagreements(**sizes)
            assert report == _per_combo_search(**sizes)
        # the last report, of up to 4 voters and 3 candidates, spans every block
        for line in report.disagreements:
            counts = ast.literal_eval(line[len("counts "):line.index(": score")])
            blocks.add((len(counts), sum(next(iter(counts.values())))))
    # every block of two or more candidates had a disagreement to list
    assert blocks == set(product((2, 3), range(1, 5)))


def test_cross_method_search_reaches_twelve_voters_and_five_candidates():
    report = search_cross_method_disagreements(max_voters=12, max_candidates=5)
    assert report.ok
    assert report.n_instances == sum(
        comb(n + 2, 2) ** k for k in range(1, 6) for n in range(1, 13)
    ) == 11_292_518_414


_EMPTY_SWEEPS = [
    (search_cross_method_disagreements, "max_voters", 0),
    (search_cross_method_disagreements, "max_candidates", 0),
    (search_cross_method_disagreements, "max_voters", -2),
    (search_no_show_exhaustive, "max_voters", 0),
    (search_no_show_exhaustive, "max_voters", -1),
    (random_consistency_sweep, "n_instances", 0),
    (random_consistency_sweep, "n_instances", -4),
    (polarization_sweep, "n_cases", 0),
    (polarization_sweep, "n_cases", -1),
]


@pytest.mark.parametrize("search, name, value", _EMPTY_SWEEPS, ids=[
    f"{search.__name__}-{name}={value}" for search, name, value in _EMPTY_SWEEPS
])
def test_a_sweep_of_nothing_is_refused(search, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be at least 1, got {value}$"):
        search(**{name: value})


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


def _unique_winners(
    key_rows: Sequence[Sequence], approved_rows: Sequence[Sequence[bool]] | None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every grade vector (one entry of each row, in ``product`` order) whose
    looked-up keys elect a unique winner, with that winner's position.
    Vectors that leave a tie at the top or no tally approved are skipped.
    The per-vector addition kernel, kept as the product-set kernel's oracle."""
    cases = zip(product(*(range(len(row)) for row in key_rows)), product(*key_rows))
    if approved_rows is not None:
        cases = (case for case, approved in zip(cases, product(*approved_rows))
                 if any(approved))
    for vector, keys in cases:
        top = min(keys)
        if keys.count(top) == 1:
            yield vector, keys.index(top)


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


# ---------------------------------------------------------------------------
# the product-set kernel against the per-vector kernel
# ---------------------------------------------------------------------------

def _per_vector_additions(method, election):
    """The addition counterexamples of ``search_no_show``, as ``(grade
    vector, winner)`` from every vector of the per-vector kernel."""
    base = [p.counts for p in election.profiles]
    n, n_grades = election.n_voters, election.scale.size
    before = _top(*_key_table(method, base, n))
    return [
        (vector, w)
        for vector, w in _unique_winners(*_addition_rows(method, base, n, n_grades))
        if any(vector[x] < vector[w] for x in before)
    ]


def _per_vector_improving(method, election, ballots, voter_id):
    """The improving deviations of ``manipulation_probe``, as ``(grade
    vector, winner)`` from every vector of the per-vector kernel."""
    scale = election.scale
    ids = [c.id for c in election.candidates]
    honest = next(b for b in ballots if b.voter_id == voter_id)
    honest_vector = [honest.grade_index(cid, scale) for cid in ids]
    full = [p.counts for p in election.profiles]
    top = _top(*_key_table(method, full, election.n_voters))
    if len(top) != 1:
        return []
    others = [_bump(c, g, -1) for c, g in zip(full, honest_vector)]
    rows = _addition_rows(method, others, election.n_voters - 1, scale.size)
    return [(vector, w) for vector, w in _unique_winners(*rows)
            if honest_vector[w] < honest_vector[top[0]]]


def _listed_count(search, *args, **kwargs):
    """The exact count of items ``search`` lists, read from the output-cap
    error it raises with the cap set below zero."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properties, "_MAX_LISTED", -1)
        try:
            search(*args, **kwargs)
        except OutputCapError as exc:
            return exc.count
    return 0  # the search listed nothing it had to count


@st.composite
def _small_elections(draw):
    """A method, its scale (3 to 5 grades for ``mj``), 1 to 7 candidates
    with at most 5,000 grade vectors, and 1 to 6 ballots."""
    method = draw(st.sampled_from(["mj3", "mj", "approval3"]))
    n_grades = draw(st.integers(3, 5)) if method == "mj" else 3
    scale = {"mj3": SCALE3, "approval3": APPROVAL_SCALE}.get(
        method, GradeScale(tuple(f"g{g}" for g in range(n_grades)))
    )
    k_max = max(k for k in range(1, 8) if n_grades**k <= 5000)
    n_cands = draw(st.integers(1, k_max))
    rng = draw(st.randoms(use_true_random=False))  # grades drawn evenly
    vectors = [[rng.randrange(n_grades) for _ in range(n_cands)]
               for _ in range(rng.randint(1, 6))]
    candidates = [Candidate(f"c{i + 1}") for i in range(n_cands)]
    election, ballots = _election(
        [{c.id: scale.labels[g] for c, g in zip(candidates, v)} for v in vectors],
        candidates=candidates, scale=scale,
    )
    return method, election, ballots


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_elections())
def test_product_set_kernel_matches_the_per_vector_kernel(case):
    method, election, ballots = case
    ids = [c.id for c in election.candidates]
    index = dict(zip(election.scale.labels, range(election.scale.size)))

    def listed(grades, winner):
        return tuple(index[grades[cid]] for cid in ids), ids.index(winner)

    expected = _per_vector_additions(method, election)
    found = search_no_show(election, method=method)
    assert [listed(ce.grades, ce.after.winner) for ce in found] == expected
    assert _listed_count(search_no_show, election, method=method) == len(expected)
    voter = ballots[-1].voter_id
    expected = _per_vector_improving(method, election, ballots, voter)
    probe = manipulation_probe(election, ballots, voter, method=method)
    assert [listed(d.grades, d.winner) for d in probe.improving] == expected
    assert _listed_count(
        manipulation_probe, election, ballots, voter, method=method
    ) == len(expected)


@pytest.mark.parametrize("method, n_grades", [
    ("mj3", 3), ("mj", 3), ("approval3", 3), ("mj", 4),
])
def test_three_candidate_elections_keep_the_three_grade_claim(method, n_grades):
    # every triple of tallies with 1 to 3 ballots, with every extra ballot
    ids = ("a", "b", "c")
    labels = tuple(f"g{g}" for g in range(n_grades))
    found = 0
    for n in range(1, 4):
        tallies = list(_compositions(n, n_grades))
        keys, approved = _key_table(method, tallies, n)
        key_rows, approved_rows = _addition_rows(method, tallies, n, n_grades)
        for triple in product(range(len(tallies)), repeat=len(ids)):
            pick = itemgetter(*triple)
            before = _top(pick(keys), approved and pick(approved))
            rows = (pick(key_rows), approved_rows and pick(approved_rows))
            found += len(_addition_counterexamples(ids, labels, rows, before))
    assert (found == 0) is (n_grades == 3), found
