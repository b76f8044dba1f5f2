"""Brute-force property harness.

Desk-scale elections are small enough to check theoretical properties by
exhaustive enumeration instead of trusting proofs:

* :func:`check_consistency` — weak consistency on a three-grade election:
  whenever both parts of a 2-partition of the electorate elect the same
  candidate W, W's part scores have the same sign (or are both zero), and no
  candidate's score switches strict sign between the parts, the combined
  electorate must elect W too.  The no-sign-switch condition is what makes
  every candidate's (score, tiebreak) pair add across the parts; without it
  the implication is false — a loser whose positives are cancelled by
  negatives inside one part gets them all back in the union.
* :func:`search_no_show` — participation failures: ballots whose addition (or
  a voter whose removal) flips the winner against the ballot's own grading.
  Three-grade elections must never produce one; four-grade majority judgement
  can.
* :func:`polarize` — the symmetric shift of weak approvals into strong
  approvals and explicit non-approvals, which preserves ``a_strong - n_none``.
* :func:`manipulation_probe` — informational single-voter deviation search.

The exhaustive generators (:func:`search_no_show_exhaustive`,
:func:`search_cross_method_disagreements`, :func:`random_consistency_sweep`,
:func:`polarization_sweep`) drive whole instance families and are what the
``check`` command and the test suite run.  Every search that needs only a
decision takes it from :func:`outcome_from_counts`, on raw count tuples;
:func:`search_cross_method_disagreements` alone runs the full rankers, as it
compares whole orders.
"""

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import product
from operator import sub

from .approval import APPROVAL_SCALE, ApprovalTally, _block_key, classify_block
from .core import (
    Ballot,
    Candidate,
    ConfigError,
    ElectionProfile,
    GradeScale,
    ValidationError,
    VoteError,
    build_profiles,
    election_from_counts,
)
from .mj import _rank_keys, mj_rank
from .mj3 import MJ3_SCALE, mj3_rank
from .results import Block, RankedResult

#: Per-candidate counts, best grade first, in registration order.
Tallies = Sequence[Sequence[int]]


# --------------------------------------------------------------------------
# outcome plumbing shared by all searches
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    """The decision of one tally: a unique winner, a rank-1 tie, or rejection."""

    kind: str  # "winner" | "tie" | "rejected"
    winner: str | None = None
    tied: tuple[str, ...] = ()


def _method(method: str, scale: GradeScale) -> str:
    """Resolve ``auto`` and refuse a scale the method's ranker would refuse."""
    if method == "auto":
        method = "mj3" if scale.size == 3 and scale != APPROVAL_SCALE else (
            "approval3" if scale == APPROVAL_SCALE else "mj"
        )
    if method not in ("mj", "mj3", "approval3"):
        raise ConfigError(f"unknown ranking method {method!r}")
    if (method == "mj3" and scale.size != 3
            or method == "approval3" and scale != APPROVAL_SCALE):
        raise ConfigError(f"method {method} cannot rank the scale {scale.labels!r}")
    return method


def outcome_of(result: RankedResult) -> Outcome:
    """Collapse a ranking into its decision."""
    if result.rejected:
        return Outcome("rejected")
    top = result.entries[0].candidate
    for group in result.tie_groups:
        if top in group:
            return Outcome("tie", tied=group)
    return Outcome("winner", winner=top)


def outcome_from_counts(
    method: str, ids: Sequence[str], tallies: Tallies, n_voters: int
) -> Outcome:
    """The decision of ``method`` (``mj3``, ``mj`` or ``approval3``) on raw counts.

    Equal to ``outcome_of(ranker(election_from_counts(...)))`` without the
    profile or the ranking: each key below sorts as the ranker sorts and is
    equal exactly for the candidates it ties, and ``tied`` lists the
    candidates of the top key in registration order.  ``tallies`` must each
    sum to ``n_voters`` > 0; that is not checked here.
    """
    if method == "mj3":
        # the (s, t) pair, negated: s, t = p, -q if p > q else -q, p
        keys = [(-p, q) if p > q else (q, -p) for p, _, q in tallies]
    elif method == "mj":
        keys = _rank_keys(tallies, n_voters)
    elif not any(2 * (strong + weak) > n_voters for strong, weak, _ in tallies):
        return Outcome("rejected")
    else:
        keys = [_block_key(counts) for counts in tallies]
    top = min(keys)
    if keys.count(top) == 1:
        return Outcome("winner", winner=ids[keys.index(top)])
    return Outcome("tie", tied=tuple(c for c, key in zip(ids, keys) if key == top))


def _bump(counts: tuple[int, ...], grade: int, step: int) -> tuple[int, ...]:
    """``counts`` with ``step`` (1 or -1) ballots more at position ``grade``."""
    return counts[:grade] + (counts[grade] + step,) + counts[grade + 1:]


def _with_each_ballot(
    method: str, ids: Sequence[str], base: Tallies, n_voters: int, n_grades: int
) -> Iterator[tuple[tuple[int, ...], Outcome]]:
    """Every grade vector one more ballot could carry, in ``product`` order,
    with the outcome once that ballot joins ``base``."""
    bumped = [[_bump(c, g, 1) for g in range(n_grades)] for c in base]
    for vector in product(range(n_grades), repeat=len(ids)):
        tallies = [row[g] for row, g in zip(bumped, vector)]
        yield vector, outcome_from_counts(method, ids, tallies, n_voters + 1)


# --------------------------------------------------------------------------
# weak consistency under 2-partitions of the electorate
# --------------------------------------------------------------------------

class NoUniqueWinnerError(VoteError):
    """The combined election's ``(S, T)`` top is tied, so the consistency
    premise has no winner to hold the parts to."""


@dataclass(frozen=True)
class PartitionPremise:
    """A partition where both parts elect the same candidate, that winner's
    scores keep the same sign, and no candidate's score strictly changes sign
    between the parts (so all scores are additive across the split)."""

    part_sizes: tuple[int, int]
    winner: str
    scores_part1: Mapping[str, int]
    scores_part2: Mapping[str, int]


@dataclass(frozen=True)
class ConsistencyViolation:
    """A premise-satisfying partition whose combined election disagrees."""

    part_sizes: tuple[int, int]
    winner_parts: str
    winner_overall: str
    s_part1: int
    s_part2: int


@dataclass
class PartitionCheckReport:
    """Outcome of one consistency check over a family of partitions."""

    n_ballots: int
    n_partitions_checked: int
    n_premise_satisfied: int
    premises: list[PartitionPremise] = field(default_factory=list)
    violations: list[ConsistencyViolation] = field(default_factory=list)
    sampled: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _scores(tallies: Tallies) -> list[int]:
    """The ``mj3`` score ``s`` of each three-grade tally."""
    return [p if p > q else -q for p, _, q in tallies]


def _ballot_vectors(
    election: ElectionProfile, ballots: Sequence[Ballot]
) -> list[tuple[int, ...]]:
    """Completed grade-position vectors, one per ballot, checked against the tally."""
    ids = [c.id for c in election.candidates]
    vectors = [
        tuple(b.grade_index(cid, election.scale) for cid in ids) for b in ballots
    ]
    rebuilt = [[0] * election.scale.size for _ in ids]
    for vec in vectors:
        for ci, gi in enumerate(vec):
            rebuilt[ci][gi] += 1
    if [tuple(r) for r in rebuilt] != [p.counts for p in election.profiles]:
        raise ValidationError("ballots do not reproduce the election profile")
    return vectors


def _check_partitions(
    election: ElectionProfile,
    partitions: Iterable[tuple[Tallies, int]],
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
    vectors: Sequence[tuple[int, ...]], masks: Iterable[int], n_grades: int
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


def _require_3grade(election: ElectionProfile) -> None:
    if election.scale.size != 3:
        raise ConfigError(
            f"consistency check needs a 3-grade scale, got {election.scale.size} grades"
        )


def check_consistency(
    election: ElectionProfile,
    ballots: Sequence[Ballot],
    *,
    limit: int = 8,
    samples: int | None = None,
    seed: int | None = None,
) -> PartitionCheckReport:
    """Check weak consistency over 2-partitions of a labeled ballot list.

    All unordered partitions into two non-empty parts are enumerated
    (``2^(n-1) - 1`` of them).  Above ``limit`` ballots that blows up, so an
    instance with more ballots raises unless ``samples`` asks for that many
    distinct randomly drawn partitions instead (seeded by ``seed``).  When
    ``samples`` reaches the number of partitions, all of them are checked and
    the report is not marked sampled.
    """
    _require_3grade(election)
    vectors = _ballot_vectors(election, ballots)
    n = len(vectors)
    if n < 2:
        raise VoteError("partition check needs at least two ballots")
    if n > limit and samples is None:
        raise VoteError(
            f"{n} ballots exceed the exhaustive partition limit of {limit}; "
            f"pass samples= to check randomly sampled partitions instead"
        )

    space = (1 << (n - 1)) - 1
    if n <= limit or samples >= space:
        masks: Iterable[int] = range(1, space + 1)
        sampled = False
    else:
        # distinct masks, so the partitions counted are partitions covered
        rng = random.Random(seed)
        drawn: dict[int, None] = {}
        while len(drawn) < samples:
            drawn.setdefault(rng.randint(1, space))
        masks = drawn
        sampled = True
    return _check_partitions(
        election, _walk(vectors, masks, election.scale.size), sampled=sampled
    )


def check_consistency_splits(
    election: ElectionProfile, ballots: Sequence[Ballot]
) -> PartitionCheckReport:
    """Exhaustive consistency check over multiset splits.

    Identical ballots are grouped first, and every distinct split of the
    ballot *multiset* into two non-empty parts is checked once.  Much cheaper
    than the labeled enumeration when ballots repeat, so profiles well beyond
    the labeled limit (e.g. 21 ballots of 3 kinds) stay exhaustive.
    """
    _require_3grade(election)
    vectors = _ballot_vectors(election, ballots)
    if len(vectors) < 2:
        raise VoteError("partition check needs at least two ballots")
    kinds = sorted(Counter(vectors).items())
    size = election.scale.size
    n_cands = len(election.candidates)

    def splits() -> Iterator[tuple[list[tuple[int, ...]], int]]:
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

    return _check_partitions(election, splits(), sampled=False)


def random_consistency_sweep(
    n_instances: int,
    *,
    max_voters: int = 8,
    candidate_range: tuple[int, int] = (2, 3),
    seed: int | None = None,
) -> PartitionCheckReport:
    """Exhaustive partition checks over many random three-grade elections.

    Instances without a unique combined winner are redrawn.  Returns one
    aggregated report (premise details are dropped to keep it light).
    """
    rng = random.Random(seed)
    total = PartitionCheckReport(n_ballots=0, n_partitions_checked=0, n_premise_satisfied=0)
    done = 0
    while done < n_instances:
        n_voters = rng.randint(2, max_voters)
        n_cands = rng.randint(*candidate_range)
        candidates = [Candidate(f"c{i + 1}") for i in range(n_cands)]
        ballots = [
            Ballot(
                f"v{i + 1}",
                {c.id: rng.choice(MJ3_SCALE.labels) for c in candidates},
            )
            for i in range(n_voters)
        ]
        election = build_profiles(MJ3_SCALE, candidates, ballots)
        try:
            report = check_consistency(election, ballots, limit=max_voters)
        except NoUniqueWinnerError:  # no unique combined winner: redraw
            continue
        done += 1
        total.n_ballots += report.n_ballots
        total.n_partitions_checked += report.n_partitions_checked
        total.n_premise_satisfied += report.n_premise_satisfied
        total.violations.extend(report.violations)
    return total


# --------------------------------------------------------------------------
# participation (no-show) search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NoShowCounterexample:
    """A ballot whose participation hurts its own grading.

    ``kind`` is ``"addition"`` (casting this extra ballot flips the outcome to
    a candidate it graded below the previous outcome) or ``"removal"``
    (a voter's existing ballot: leaving would have produced a candidate they
    graded above the actual outcome).
    """

    kind: str
    grades: Mapping[str, str]
    voter_id: str | None
    before: Outcome
    after: Outcome


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


def search_no_show(
    election: ElectionProfile,
    ballots: Sequence[Ballot] | None = None,
    *,
    method: str = "auto",
    max_additions: int = 250_000,
) -> list[NoShowCounterexample]:
    """Search one election for participation failures.

    The addition form enumerates every possible extra ballot (every grade
    vector over the candidates) and needs only the tallies.  The removal form
    re-tallies the election without each distinct existing ballot and runs
    only when ``ballots`` are supplied, since per-candidate tallies do not
    determine them.  Returns all counterexamples found, additions first.
    Every outcome is decided from counts (:func:`outcome_from_counts`).
    """
    scale = election.scale
    method = _method(method, scale)
    ids = [c.id for c in election.candidates]
    n_vectors = scale.size ** len(ids)
    if n_vectors > max_additions:
        raise VoteError(
            f"{n_vectors} candidate grade vectors exceed the addition-search cap"
        )
    if election.n_voters == 0:
        raise VoteError("cannot rank an election without ballots")
    base = [p.counts for p in election.profiles]
    before = outcome_from_counts(method, ids, base, election.n_voters)
    found = _additions(method, ids, scale.labels, base, election.n_voters, before)

    if ballots:
        vectors = _ballot_vectors(election, ballots)
        seen: set[tuple[int, ...]] = set()
        for ballot, vector in zip(ballots, vectors):
            if vector in seen or election.n_voters == 1:
                continue  # a repeated ballot, or removal would empty the election
            seen.add(vector)
            reduced = [_bump(c, g, -1) for c, g in zip(base, vector)]
            without = outcome_from_counts(method, ids, reduced, election.n_voters - 1)
            # leaving helps when the outcome without the ballot is graded
            # better, i.e. worse by the ballot's grades reversed
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


@dataclass
class NoShowSweepReport:
    """Aggregate of an exhaustive addition-form no-show search."""

    n_instances: int
    n_additions_checked: int
    counterexamples: list[NoShowCounterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def search_no_show_exhaustive(
    *,
    max_voters: int = 4,
    method: str = "mj3",
) -> NoShowSweepReport:
    """Addition-form no-show search over *all* 2-candidate 3-grade elections.

    Every pair of per-candidate tallies with 1..max_voters ballots is
    combined with every one of the 9 possible extra ballots.  ``method`` picks
    the winner rule (``mj3``, ``mj``, or ``approval3``); all of them must come
    back clean on three grades.
    """
    scale = APPROVAL_SCALE if method == "approval3" else MJ3_SCALE
    method = _method(method, scale)
    ids = ("a", "b")
    report = NoShowSweepReport(n_instances=0, n_additions_checked=0)
    for n in range(1, max_voters + 1):
        tallies = list(_compositions(n, 3))
        for base in product(tallies, repeat=2):
            report.n_instances += 1
            report.n_additions_checked += scale.size ** len(ids)
            before = outcome_from_counts(method, ids, base, n)
            report.counterexamples += _additions(
                method, ids, scale.labels, base, n, before
            )
    return report


# --------------------------------------------------------------------------
# cross-method agreement of the two 3-grade formulations
# --------------------------------------------------------------------------

@dataclass
class CrossMethodReport:
    """Exhaustive comparison of the score form against iterated tie-break."""

    n_instances: int
    disagreements: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def search_cross_method_disagreements(
    *, max_voters: int = 4, max_candidates: int = 3
) -> CrossMethodReport:
    """Compare mj3 (score form) with general majority judgement exhaustively.

    Enumerates every 3-grade election with up to ``max_voters`` ballots and up
    to ``max_candidates`` candidates (by per-candidate tallies, which is all
    either method reads) and diffs the two full rankings including tie groups.
    """
    report = CrossMethodReport(n_instances=0)
    for n_cands in range(1, max_candidates + 1):
        candidates = [Candidate(f"c{i + 1}") for i in range(n_cands)]
        for n in range(1, max_voters + 1):
            tallies = list(_compositions(n, 3))
            for combo in product(tallies, repeat=n_cands):
                report.n_instances += 1
                counts = {c.id: combo[i] for i, c in enumerate(candidates)}
                election = election_from_counts(MJ3_SCALE, candidates, counts)
                by_score = mj3_rank(election)
                by_removal = mj_rank(election)
                if (
                    by_score.order != by_removal.order
                    or by_score.tie_groups != by_removal.tie_groups
                ):
                    report.disagreements.append(
                        f"counts {counts}: score order {by_score.order} "
                        f"vs removal order {by_removal.order}"
                    )
    return report


# --------------------------------------------------------------------------
# polarization shifts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarizationShift:
    """A symmetric shift of ``x`` weak approvals each way."""

    x: int
    before: ApprovalTally
    after: ApprovalTally


def polarize(tally: ApprovalTally, x: int) -> PolarizationShift:
    """Shift ``x`` weak approvals up to strong and ``x`` down to none.

    Preserves the electorate size and the difference a_strong - n_none.
    """
    if x < 0:
        raise VoteError("shift magnitude must be non-negative")
    if 2 * x > tally.a_weak:
        raise VoteError("insufficient weak-approval votes")
    after = ApprovalTally(tally.a_strong + x, tally.a_weak - 2 * x, tally.n_none + x)
    return PolarizationShift(x=x, before=tally, after=after)


def polarization_sweep(
    n_cases: int, *, max_count: int = 30, seed: int | None = None
) -> list[str]:
    """Random polarization shifts, asserting the preserved-margin invariants.

    Returns violation descriptions (expected empty): the a_strong - n_none
    difference and the electorate size must be preserved exactly; a
    strong-majority candidate must stay strong-majority with strictly more
    strong approvals for x >= 1; a candidate with a_strong <= n_none must lose
    approval margin (n_none strictly up, a_any strictly down) for x >= 1.
    """
    rng = random.Random(seed)
    problems: list[str] = []
    for _ in range(n_cases):
        before = ApprovalTally(
            rng.randint(0, max_count), rng.randint(0, max_count), rng.randint(0, max_count)
        )
        x = rng.randint(0, before.a_weak // 2)
        after = polarize(before, x).after
        if after.a_strong - after.n_none != before.a_strong - before.n_none:
            problems.append(f"{before} x={x}: margin changed")
        if after.n_total != before.n_total:
            problems.append(f"{before} x={x}: electorate size changed")
        if classify_block(before) is Block.STRONG_MAJORITY:
            if classify_block(after) is not Block.STRONG_MAJORITY:
                problems.append(f"{before} x={x}: lost strong majority")
            if x >= 1 and after.a_strong <= before.a_strong:
                problems.append(f"{before} x={x}: a_strong did not increase")
        elif before.a_strong <= before.n_none and x >= 1:
            if not (after.n_none > before.n_none and after.a_any < before.a_any):
                problems.append(f"{before} x={x}: rejection margin did not weaken")
    return problems


# --------------------------------------------------------------------------
# single-voter manipulation probe (informational)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Deviation:
    """One alternative ballot and the winner it produces."""

    grades: Mapping[str, str]
    winner: str


@dataclass
class ManipulationReport:
    """Deviations that improve the outcome by the voter's own honest grading."""

    voter_id: str
    honest_winner: str | None
    n_alternatives: int
    improving: list[Deviation] = field(default_factory=list)


def manipulation_probe(
    election: ElectionProfile,
    ballots: Sequence[Ballot],
    voter_id: str,
    *,
    method: str = "auto",
    max_alternatives: int = 100_000,
) -> ManipulationReport:
    """Try every alternative ballot for one voter.

    A deviation improves the outcome when it produces a unique winner whose
    grade *on the voter's honest ballot* is strictly better than the honest
    winner's.  Informational only: outcomes without a unique winner are
    skipped, not scored.
    """
    scale = election.scale
    method = _method(method, scale)
    ids = [c.id for c in election.candidates]
    honest = next((b for b in ballots if b.voter_id == voter_id), None)
    if honest is None:
        raise ValidationError(f"unknown voter_id {voter_id!r}")
    _ballot_vectors(election, ballots)  # integrity check
    honest_vector = tuple(honest.grade_index(cid, scale) for cid in ids)
    full = [p.counts for p in election.profiles]
    honest_outcome = outcome_from_counts(method, ids, full, election.n_voters)
    report = ManipulationReport(
        voter_id=voter_id,
        honest_winner=honest_outcome.winner,
        n_alternatives=0,
    )
    if honest_outcome.kind != "winner":
        return report
    n_vectors = scale.size ** len(ids)
    if n_vectors > max_alternatives:
        raise VoteError(f"{n_vectors} alternative ballots exceed the probe cap")
    honest_grade = dict(zip(ids, honest_vector))
    # the honest ballot comes out of the counts once; each alternative goes in
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
