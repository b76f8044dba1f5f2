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
decision takes it from per-tally sort keys on raw count tuples, with no
profile or ranking built; :func:`outcome_from_counts` decides one election.
The addition kernel behind :func:`search_no_show`,
:func:`search_no_show_exhaustive` and :func:`manipulation_probe` builds one
table per base tally, each candidate's key once one more ballot grades it
``g``, and decides every extra ballot from lookups alone: the smallest
looked-up key, its count and its position.  The exhaustive search builds the
table once per tally and electorate size.  Both consistency checks decide
their partitions, given as bitmasks over the ballots, by popcounts, with no
tally rebuilt per partition: :func:`_check_masks` decides a block of masks
at a time from per-candidate key columns and a strongest-rival filter.
:func:`search_cross_method_disagreements` compares whole orders and tie
groups, taken from each method's sort key computed once per tally; the full
rankers remain its test oracle.
"""

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice, product, repeat
from math import prod
from operator import add, and_, itemgetter, lt

from .approval import ApprovalTally, classify_block
from .core import (
    Ballot,
    Candidate,
    ConfigError,
    ElectionProfile,
    ValidationError,
    VoteError,
    build_profiles,
)
from .methods import KEYS, method_scale, resolve_method
from .mj3 import MJ3_SCALE, mj3_keys
from .results import (  # Outcome and outcome_of are re-exported from here too
    Block,
    Outcome,
    Tallies,
    competition_ranks,
    outcome_of,
    require_rankable,
)


# --------------------------------------------------------------------------
# outcome plumbing shared by all searches
# --------------------------------------------------------------------------

def _key_table(
    method: str, tallies: Tallies, n_voters: int
) -> tuple[list, list[bool] | None]:
    """The sort key of every tally under ``method``, and for a method that can
    reject, whether a strict majority approves each tally (None otherwise).

    The key rule of :data:`gradevote.methods.KEYS` runs once over all of
    ``tallies``, so any selection of them orders and ties as the ranker would
    order and tie those tallies: ``mj``'s gauge shortcut extends a whole gauge
    group of the call or none of it.  The rejection rule rejects an election
    exactly when it would reject each of its tallies alone, so a selection is
    rejected exactly when none of its tallies is approved.
    """
    try:
        keys_fn, rejects = KEYS[method]
    except KeyError:
        raise ConfigError(f"unknown ranking method {method!r}") from None
    keys = keys_fn(tallies, n_voters)
    if rejects is None:
        return keys, None
    return keys, [not rejects((counts,), n_voters) for counts in tallies]


def _top(keys: Sequence, approved: Sequence[bool] | None) -> list[int]:
    """Positions of the smallest key: one for a unique winner, several for a
    tie, none when ``approved`` marks no tally approved (a rejection)."""
    if approved is not None and not any(approved):
        return []
    top = min(keys)
    return [i for i, key in enumerate(keys) if key == top]


def _outcome(ids: Sequence[str], top: Sequence[int]) -> Outcome:
    """The :class:`Outcome` of the candidates at positions ``top``."""
    if not top:
        return Outcome("rejected")
    if len(top) == 1:
        return Outcome("winner", winner=ids[top[0]])
    return Outcome("tie", tied=tuple(ids[i] for i in top))


def outcome_from_counts(
    method: str, ids: Sequence[str], tallies: Tallies, n_voters: int
) -> Outcome:
    """The decision of ``method`` (``mj3``, ``mj`` or ``approval3``) on raw counts.

    Equal to ``outcome_of(ranker(election_from_counts(...)))`` without the
    profile or the ranking: it applies the ranker's own rejection rule and
    key function from :data:`gradevote.methods.KEYS`, and ``tied`` lists the
    candidates of the top key in registration order.  ``tallies`` must each
    sum to ``n_voters`` > 0; that is not checked here.
    """
    return _outcome(ids, _top(*_key_table(method, tallies, n_voters)))


_MAX_VECTORS = 250_000  # grade vectors the no-show search and the probe try at most


def _bump(counts: tuple[int, ...], grade: int, step: int) -> tuple[int, ...]:
    """``counts`` with ``step`` (1 or -1) ballots more at position ``grade``."""
    return counts[:grade] + (counts[grade] + step,) + counts[grade + 1:]


def _addition_rows(
    method: str, base: Tallies, n_voters: int, n_grades: int
) -> tuple[list, list | None]:
    """The addition kernel's table: row ``c``, entry ``g`` is the key of
    tally ``base[c]`` once one more ballot grades it ``g``, and for a method
    that can reject, whether a strict majority approves that tally (None
    otherwise).  Every extra ballot is then decided by lookups alone
    (:func:`_unique_winners`)."""
    bumped = [_bump(counts, g, 1) for counts in base for g in range(n_grades)]
    keys, approved = _key_table(method, bumped, n_voters + 1)
    starts = range(0, len(bumped), n_grades)
    return (
        [keys[i:i + n_grades] for i in starts],
        None if approved is None else [approved[i:i + n_grades] for i in starts],
    )


def _unique_winners(
    key_rows: Sequence[Sequence], approved_rows: Sequence[Sequence[bool]] | None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every grade vector (one entry of each row, in ``product`` order) whose
    looked-up keys elect a unique winner, with that winner's position.
    Vectors that leave a tie at the top or no tally approved are skipped."""
    cases = zip(product(*(range(len(row)) for row in key_rows)), product(*key_rows))
    if approved_rows is not None:
        cases = (case for case, approved in zip(cases, product(*approved_rows))
                 if any(approved))
    for vector, keys in cases:
        top = min(keys)
        if keys.count(top) == 1:
            yield vector, keys.index(top)


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


_BLOCK = 1 << 10  # masks decided together; a range block shares its high bits


def _part_keys(n: int, tallies: Iterable[tuple[int, int, int]]) -> list[int]:
    """The ``mj3`` key of each part tally ``(p, _, q)`` of ``n`` grades: the
    pair ``(a, b)`` of :func:`gradevote.mj3.mj3_keys` as the one integer
    ``a * (2n + 1) + b``, which orders as the pair since ``|b| <= n``."""
    span = 2 * n + 1
    return [a * span + b for a, b in mj3_keys(tallies, n)]


def _popcounts(bits: int, masks: Iterable[int]) -> list[int]:
    """How many of ``bits`` each mask has set."""
    return list(map(int.bit_count, map(bits.__and__, masks)))


def _key_columns(
    masks: Iterable[int], signs: list, totals: list[tuple[int, int, int]], n: int
) -> Iterator[tuple[Sequence[int], list[Sequence[int]], list[Sequence[int]]]]:
    """Each block of at most ``_BLOCK`` masks, in order, with per candidate a
    column of part-1 keys and one of part-2 keys (:func:`_part_keys`), from
    popcounts against the candidate's positive and negative ballot bitmasks.
    A range is cut at multiples of ``_BLOCK``: a candidate's part index ``p *
    (n + 1) + q`` is then a base per block plus a low-bits table built once,
    looked up in slices of one key list of every index, part 2's reversed
    (``table[total - base::-1][i]`` is the key at ``total - base - i``).
    Other masks have their part tallies counted per block."""
    side = n + 1
    if isinstance(masks, range) and masks.step == 1:
        table = _part_keys(n, [(p, 0, q) for p in range(side) for q in range(side)])
        first = range(min(_BLOCK, masks.stop))
        low = [itemgetter(*map(add, map(side.__mul__, _popcounts(pos, first)),
                               _popcounts(neg, first)))
               for pos, neg in signs]
        ends = [p * side + q for p, _, q in totals]
        for start in range(masks.start & -_BLOCK, masks.stop, _BLOCK):
            block = range(max(start, masks.start), min(start + _BLOCK, masks.stop))
            cut = slice(block.start - start, block.stop - start)
            bases = [(start & pos).bit_count() * side + (start & neg).bit_count()
                     for pos, neg in signs]
            yield (
                block,
                [get(table[b:])[cut] for b, get in zip(bases, low)],
                [get(table[e - b::-1])[cut] for b, e, get in zip(bases, ends, low)],
            )
        return
    masks = iter(masks)
    while block := list(islice(masks, _BLOCK)):
        ps = [_popcounts(pos, block) for pos, _ in signs]
        qs = [_popcounts(neg, block) for _, neg in signs]
        yield (
            block,
            [_part_keys(n, zip(p, repeat(0), q)) for p, q in zip(ps, qs)],
            [_part_keys(n, zip(map(tp.__sub__, p), repeat(0), map(tq.__sub__, q)))
             for p, q, (tp, _, tq) in zip(ps, qs, totals)],
        )


def _unique_tops(
    keys1: Sequence[Sequence[int]], keys2: Sequence[Sequence[int]], strongest: list[int]
) -> list[tuple[int, int]]:
    """``(position, w)`` for every mask of a block whose two parts have the
    same unique top ``w``, in block order.  For each ``w``, its rivals are
    tested strongest first, each keeping only the masks where ``w``'s key is
    strictly below the rival's in both parts."""
    found = []
    size = len(keys1[0])
    for w in strongest:
        at, w1, w2 = range(size), keys1[w], keys2[w]
        for r in strongest:
            if r == w:
                continue
            r1, r2 = keys1[r], keys2[r]
            if len(at) < size:
                r1, r2 = map(r1.__getitem__, at), map(r2.__getitem__, at)
            keep = list(map(and_, map(lt, w1, r1), map(lt, w2, r2)))
            at = list(compress(at, keep))
            if not at:
                break
            w1, w2 = list(compress(w1, keep)), list(compress(w2, keep))
        else:
            found.extend(zip(at, repeat(w)))
    found.sort()
    return found


def _check_masks(
    election: ElectionProfile,
    vectors: Sequence[tuple[int, ...]],
    masks: Iterable[int],
    *,
    sampled: bool,
) -> PartitionCheckReport:
    """Evaluate the consistency premise over 2-partitions given as bitmasks.

    Bit ``i`` of a mask puts ballot ``vectors[i]`` in part 1, the rest are in
    part 2.  A part's ``(p, q)`` for a candidate are popcounts against that
    candidate's positive and negative ballot bitmasks, taken as one ``mj3``
    key (:func:`_key_columns`), a block of masks at a time.  Only the masks whose
    parts share a unique top (:func:`_unique_tops`) reach the sign and
    premise tests, in mask order.
    """
    require_rankable(election)
    ids = [c.id for c in election.candidates]
    n = len(vectors)
    signs = [
        [sum(1 << i for i, vec in enumerate(vectors) if vec[c] == g) for g in (0, 2)]
        for c in range(len(ids))
    ]
    span = 2 * n + 1
    totals = [(pos.bit_count(), 0, neg.bit_count()) for pos, neg in signs]
    overall = _part_keys(n, totals)
    top = min(overall)
    if overall.count(top) != 1:
        raise NoUniqueWinnerError("combined election has no unique winner")
    winner_overall = ids[overall.index(top)]
    strongest = sorted(range(len(ids)), key=overall.__getitem__)
    report = PartitionCheckReport(
        n_ballots=n,
        n_partitions_checked=0,
        n_premise_satisfied=0,
        sampled=sampled,
    )
    for block, columns1, columns2 in _key_columns(masks, signs, totals, n):
        report.n_partitions_checked += len(block)
        for at, w in _unique_tops(columns1, columns2, strongest):
            mask = block[at]
            keys1 = [column[at] for column in columns1]
            keys2 = [column[at] for column in columns2]
            # a key's sign is minus its score's (s > 0 iff p > q, s = 0 iff
            # p = q = 0), so the sign tests read the keys
            k1, k2 = keys1[w], keys2[w]
            if not (k1 * k2 > 0 or (k1 == 0 and k2 == 0)):
                continue
            # A strict sign switch for *any* candidate breaks score additivity
            # across the parts (positives cancelled inside one part reappear in
            # the union), and with it the consistency guarantee.
            if any(a * b < 0 for a, b in zip(keys1, keys2)):
                continue
            # |t| <= n, so each key gives back its score s exactly
            scores1, scores2 = (
                [-((k + n) // span) for k in ks] for ks in (keys1, keys2)
            )
            s1, s2 = scores1[w], scores2[w]
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


def check_consistency(
    election: ElectionProfile,
    ballots: Sequence[Ballot],
    *,
    limit: int = 8,
    samples: int | None = None,
    seed: int | None = None,
) -> PartitionCheckReport:
    """Check weak consistency over 2-partitions of a labeled ballot list.

    All unordered partitions into two non-empty parts are enumerated as the
    bitmasks 1 to ``2^(n-1) - 1`` over the ballots (the last ballot stays in
    part 2).  Above ``limit`` ballots that blows up, so an instance with more
    ballots raises unless ``samples`` (at least 1) asks for that many
    distinct randomly drawn masks instead (seeded by ``seed``).  When
    ``samples`` reaches the number of partitions, all of them are checked
    and the report is not marked sampled.
    """
    method_scale("mj3", election.scale)  # partitions are decided by the mj3 key
    if samples is not None and samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
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
    return _check_masks(election, vectors, masks, sampled=sampled)


def check_consistency_splits(
    election: ElectionProfile, ballots: Sequence[Ballot]
) -> PartitionCheckReport:
    """Exhaustive consistency check over multiset splits.

    Identical ballots are grouped first, and every distinct split of the
    ballot *multiset* into two non-empty parts is checked once.  Much cheaper
    than the labeled enumeration when ballots repeat, so profiles well beyond
    the labeled limit (e.g. 21 ballots of 3 kinds) stay exhaustive.  With the
    ballots sorted kind by kind, each split is one mask of a prefix per kind.
    """
    method_scale("mj3", election.scale)  # partitions are decided by the mj3 key
    vectors = _ballot_vectors(election, ballots)
    if len(vectors) < 2:
        raise VoteError("partition check needs at least two ballots")
    kinds = sorted(Counter(vectors).items())
    offsets = accumulate((m for _, m in kinds), initial=0)
    prefixes = [[((1 << t) - 1) << at for t in range(m + 1)]
                for (_, m), at in zip(kinds, offsets)]
    # product order puts each split's mirror image at the mirrored position:
    # the first half, less the empty split at 0, holds every split once
    positions = prod(m + 1 for _, m in kinds)
    splits = map(sum, islice(product(*prefixes), 1, (positions + 1) // 2))
    by_kind = [vec for vec, m in kinds for _ in range(m)]
    return _check_masks(election, by_kind, splits, sampled=False)


def random_consistency_sweep(
    n_instances: int,
    *,
    max_voters: int = 8,
    seed: int | None = None,
) -> PartitionCheckReport:
    """Exhaustive partition checks over many random three-grade elections of
    2 to ``max_voters`` ballots and 2 or 3 candidates.

    Instances without a unique combined winner are redrawn.  Returns one
    aggregated report (premise details are dropped to keep it light).
    """
    if max_voters < 2:
        raise ConfigError(f"max_voters must be at least 2, got {max_voters}")
    rng = random.Random(seed)
    total = PartitionCheckReport(n_ballots=0, n_partitions_checked=0, n_premise_satisfied=0)
    done = 0
    while done < n_instances:
        n_voters = rng.randint(2, max_voters)
        n_cands = rng.randint(2, 3)
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


def _addition_counterexamples(
    ids: Sequence[str], labels: Sequence[str], rows: tuple, before: Sequence[int]
) -> list[NoShowCounterexample]:
    """Every extra ballot, decided from the table ``rows`` of
    :func:`_addition_rows`, whose casting elects a unique winner that the
    ballot grades worse (a larger position) than a candidate of ``before``,
    the positions of the top key before it was cast."""
    return [
        NoShowCounterexample(
            kind="addition",
            grades={cid: labels[g] for cid, g in zip(ids, vector)},
            voter_id=None,
            before=_outcome(ids, before),
            after=Outcome("winner", winner=ids[w]),
        )
        for vector, w in _unique_winners(*rows)
        if any(vector[x] < vector[w] for x in before)
    ]


def search_no_show(
    election: ElectionProfile,
    ballots: Sequence[Ballot] | None = None,
    *,
    method: str = "auto",
) -> list[NoShowCounterexample]:
    """Search one election for participation failures.

    The addition form enumerates every possible extra ballot (every grade
    vector over the candidates) and needs only the tallies.  The removal form
    re-tallies the election without each distinct existing ballot and runs
    only when ``ballots`` are supplied, since per-candidate tallies do not
    determine them.  Returns all counterexamples found, additions first.
    Every outcome is decided from per-tally keys on counts, each extra ballot
    by lookups in the addition kernel's table (:func:`_addition_rows`).
    """
    scale = election.scale
    method = resolve_method(method, scale)
    ids = [c.id for c in election.candidates]
    n_vectors = scale.size ** len(ids)
    if n_vectors > _MAX_VECTORS:
        raise VoteError(
            f"{n_vectors} candidate grade vectors exceed the addition-search cap"
        )
    require_rankable(election)
    base = [p.counts for p in election.profiles]
    n = election.n_voters
    before = _top(*_key_table(method, base, n))
    found = _addition_counterexamples(
        ids, scale.labels, _addition_rows(method, base, n, scale.size), before
    )

    if ballots:
        vectors = _ballot_vectors(election, ballots)
        seen: set[tuple[int, ...]] = set()
        for ballot, vector in zip(ballots, vectors):
            if vector in seen or n == 1:
                continue  # a repeated ballot, or removal would empty the election
            seen.add(vector)
            reduced = [_bump(c, g, -1) for c, g in zip(base, vector)]
            without = _top(*_key_table(method, reduced, n - 1))
            if len(without) != 1:
                continue
            # leaving helps when it elects a unique winner that the ballot
            # grades better (a smaller position) than a candidate of before
            if any(vector[x] > vector[without[0]] for x in before):
                found.append(
                    NoShowCounterexample(
                        kind="removal",
                        grades={cid: scale.labels[g] for cid, g in zip(ids, vector)},
                        voter_id=ballot.voter_id,
                        before=_outcome(ids, before),
                        after=_outcome(ids, without),
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
    the winner rule (``mj3``, ``mj``, or ``approval3``), on its default scale;
    all of them must come back clean on three grades.  The key tables are
    built once per tally and electorate size, so each instance only looks up.
    """
    scale = method_scale(method, None)
    ids = ("a", "b")
    report = NoShowSweepReport(n_instances=0, n_additions_checked=0)
    for n in range(1, max_voters + 1):
        tallies = list(_compositions(n, scale.size))
        keys, approved = _key_table(method, tallies, n)
        key_rows, approved_rows = _addition_rows(method, tallies, n, scale.size)
        for pair in product(range(len(tallies)), repeat=len(ids)):
            pick = itemgetter(*pair)
            report.n_instances += 1
            report.n_additions_checked += scale.size ** len(ids)
            before = _top(pick(keys), approved and pick(approved))
            rows = (pick(key_rows), approved_rows and pick(approved_rows))
            report.counterexamples += _addition_counterexamples(
                ids, scale.labels, rows, before
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


def _ranking(keys: Sequence) -> tuple[list[int], list[list[int]]]:
    """The stable index order of ``keys`` and its groups of equal keys (size
    >= 2, members in registration order): how a ranker sorting by ``keys``
    orders and ties its candidates."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    _, groups = competition_ranks([keys[i] for i in order])
    return order, [[order[pos] for pos in group] for group in groups]


def _cross_method_keys(n: int) -> tuple[list[tuple[int, ...]], list, list]:
    """Every three-grade tally of ``n`` ballots with its ``mj3`` key and its
    ``mj`` key, each from :func:`_key_table` over all of them, so any
    selection orders and ties as the rankers do."""
    tallies = list(_compositions(n, 3))
    return tallies, _key_table("mj3", tallies, n)[0], _key_table("mj", tallies, n)[0]


def search_cross_method_disagreements(
    *, max_voters: int = 4, max_candidates: int = 3
) -> CrossMethodReport:
    """Compare mj3 (score form) with general majority judgement exhaustively.

    Enumerates every 3-grade election with up to ``max_voters`` ballots and up
    to ``max_candidates`` candidates (by per-candidate tallies, which is all
    either method reads) and diffs the two rankings, tie groups included.
    Each ranking is taken from the sort key its ranker uses, computed once
    per tally and electorate size (:func:`_cross_method_keys`): the
    ``(s, t)`` pair of ``mj3_rank``, and the majority gauge of ``mj_rank``,
    extended by the removal key over every gauge group that distinct tallies
    share, so it is equal only for equal tallies.  No profile or ranking is built per election; the
    full rankers remain the test oracle of this search.
    """
    tables = {n: _cross_method_keys(n) for n in range(1, max_voters + 1)}
    report = CrossMethodReport(n_instances=0)
    for n_cands in range(1, max_candidates + 1):
        ids = [f"c{i + 1}" for i in range(n_cands)]
        for n in range(1, max_voters + 1):
            tallies, score_keys, removal_keys = tables[n]
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
    n_cases: int, *, seed: int | None = None
) -> list[str]:
    """Random polarization shifts of tallies with 0 to 30 ballots per grade,
    asserting the preserved-margin invariants.

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
            rng.randint(0, 30), rng.randint(0, 30), rng.randint(0, 30)
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
) -> ManipulationReport:
    """Try every alternative ballot for one voter.

    A deviation improves the outcome when it produces a unique winner whose
    grade *on the voter's honest ballot* is strictly better than the honest
    winner's.  Informational only: outcomes without a unique winner are
    skipped, not scored.
    """
    scale = election.scale
    method = resolve_method(method, scale)
    ids = [c.id for c in election.candidates]
    honest = next((i for i, b in enumerate(ballots) if b.voter_id == voter_id), None)
    if honest is None:
        raise ValidationError(f"unknown voter_id {voter_id!r}")
    honest_vector = _ballot_vectors(election, ballots)[honest]  # checks the tally too
    require_rankable(election)
    full = [p.counts for p in election.profiles]
    honest_top = _top(*_key_table(method, full, election.n_voters))
    report = ManipulationReport(
        voter_id=voter_id,
        honest_winner=_outcome(ids, honest_top).winner,
        n_alternatives=0,
    )
    if len(honest_top) != 1:
        return report
    n_vectors = scale.size ** len(ids)
    if n_vectors > _MAX_VECTORS:
        raise VoteError(f"{n_vectors} alternative ballots exceed the probe cap")
    report.n_alternatives = n_vectors - 1  # every ballot but the honest one
    honest_best = honest_vector[honest_top[0]]
    # the honest ballot comes out of the counts once; each alternative goes
    # in.  The honest ballot itself re-elects the honest winner, so it never
    # counts as improving.
    others = [_bump(c, g, -1) for c, g in zip(full, honest_vector)]
    rows = _addition_rows(method, others, election.n_voters - 1, scale.size)
    for vector, w in _unique_winners(*rows):
        if honest_vector[w] < honest_best:
            grades = {cid: scale.labels[g] for cid, g in zip(ids, vector)}
            report.improving.append(Deviation(grades=grades, winner=ids[w]))
    return report
