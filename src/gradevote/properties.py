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
``g``, and decides the extra ballots per winner ``w`` and grade ``g`` with no
grade vector enumerated: those that elect ``w`` at ``g`` give every other
candidate a grade whose key is above ``w``'s, a product of sets, and the
ones a search reports are counted from products of those sets.  Vectors are
listed only from a count that is not zero, and a search that would list
more than 250,000 raises :class:`OutputCapError` with the exact count.  The
exhaustive search builds the table once per tally and electorate size.
Both exhaustive consistency checks walk one little-endian mixed-radix count
over ballot kinds, with no tally rebuilt per partition: digit ``k`` of a
position is how many ballots of kind ``k`` part 1 takes.  The labeled check
walks each ballot as a kind of its own, so a position is its bitmask; the
split check walks the sorted kinds last first, so positions count in
``product`` order.  A candidate's part-1 index into a cached table of the
keys it can reach is a base per block plus a low index built once, and part
2's is the last index less it, so :func:`_check_masks` decides a block of
positions by lookups, with no popcount or key computed per position; sampled
masks are decided by popcounts instead.  Per-candidate sign tables first
drop every partition where some candidate's score strictly switches sign,
which can never meet the premise; key columns are built for the rest
only, a strongest-rival filter keeps the partitions whose parts share a
unique top, and the premise hits are counted per top over its key columns.  A
report holds counts and violations only, no record per premise hit.
:func:`search_cross_method_disagreements` finds, once per electorate size,
the tally pairs whose two sort keys compare differently, and ranks only the
elections that hold one; the full rankers remain its test oracle.
"""

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations, compress, islice, product, repeat
from math import prod
from operator import and_, eq, itemgetter, lt, mul, ne
from typing import NamedTuple

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

def _require_at_least(least: int, **sizes: int) -> None:
    """Refuse the first of ``sizes`` below ``least``: a search of nothing is not clean."""
    for name, value in sizes.items():
        if value < least:
            raise ConfigError(f"{name} must be at least {least}, got {value}")


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


_MAX_LISTED = 250_000  # counterexamples or deviations one search lists at most


class OutputCapError(VoteError):
    """A search would list more than ``_MAX_LISTED`` items; ``count`` is
    their exact number, ``listed`` the removal counterexamples of :func:`search_no_show`."""

    def __init__(self, count: int, items: str) -> None:
        super().__init__(f"{count} {items} exceed the output cap of {_MAX_LISTED}")
        self.count = count
        self.listed: list = []


def _bump(counts: tuple[int, ...], grade: int, step: int) -> tuple[int, ...]:
    """``counts`` with ``step`` (1 or -1) ballots more at position ``grade``."""
    return counts[:grade] + (counts[grade] + step,) + counts[grade + 1:]


def _addition_rows(
    method: str, base: Tallies, n_voters: int, n_grades: int
) -> tuple[list, list | None]:
    """The addition kernel's table: row ``c``, entry ``g`` is the key of
    tally ``base[c]`` once one more ballot grades it ``g``, and for a method
    that can reject, whether a strict majority approves that tally (None
    otherwise).  Every extra ballot is then decided from the table alone
    (:func:`_winning_vectors`)."""
    bumped = [_bump(counts, g, 1) for counts in base for g in range(n_grades)]
    keys, approved = _key_table(method, bumped, n_voters + 1)
    starts = range(0, len(bumped), n_grades)
    return (
        [keys[i:i + n_grades] for i in starts],
        None if approved is None else [approved[i:i + n_grades] for i in starts],
    )


# need mask -> each subset t of it with its inclusion-exclusion sign
_SIGNED = {
    0: ((0, 1),),
    1: ((0, 1), (1, -1)),
    2: ((0, 1), (2, -1)),
    3: ((0, 1), (1, -1), (2, -1), (3, 1)),
}


def _suffix_sizes(options: Sequence[Sequence[tuple[int, int]]]) -> list[list[int]]:
    """``sizes[i][t]``: how many grade vectors over coordinates ``i`` on carry
    no bit of ``t``; ``options[i]`` lists coordinate ``i``'s ``(grade, bits)``.
    Those that cover a need mask ``r`` number ``sum(sign * sizes[i][t] for
    t, sign in _SIGNED[r])``."""
    sizes = [[1, 1, 1, 1]]
    for opts in reversed(options):
        sizes.append([n * sum(not b & t for _, b in opts) for t, n in enumerate(sizes[-1])])
    return sizes[::-1]


def _covering(
    options: Sequence[Sequence[tuple[int, int]]], sizes: list[list[int]], need: int
) -> list[tuple[int, ...]]:
    """Every vector of one grade per coordinate, in ``product`` order, whose
    grades' bits together cover ``need``.  A prefix is extended only while
    some vector completes it (:func:`_suffix_sizes`), so the walk costs in
    proportion to what it lists."""
    found = []

    def walk(i: int, prefix: tuple, need: int) -> None:
        if not need:
            rest = ([h for h, _ in opts] for opts in options[i:])
            found.extend(prefix + tail for tail in product(*rest))
            return
        for h, b in options[i]:
            left = need & ~b
            if sum(sign * sizes[i + 1][t] for t, sign in _SIGNED[left]):
                walk(i + 1, prefix + (h,), left)

    walk(0, (), need)
    return found


def _winning_vectors(
    key_rows: Sequence[Sequence],
    approved_rows: Sequence[Sequence[bool]] | None,
    cases: Iterable[tuple[int, int, Sequence[int] | None]],
    items: str,
) -> list[tuple[tuple[int, ...], int]]:
    """The extra ballots of ``cases``, decided from the table of
    :func:`_addition_rows`, as ``(grade vector, winner)`` in ``product``
    order.

    A case ``(w, g, marked)`` takes the ballots that grade ``w`` at ``g``
    and elect ``w`` uniquely: those that give every other candidate ``d`` a
    grade of ``S_d``, the grades whose looked-up key is strictly above
    ``w``'s, and for a method that can reject, some approved tally.  Unless
    ``marked`` is None, a ballot must also grade some candidate of ``marked``
    better (a smaller position) than ``g``.  Each condition is a bit a grade
    may carry, and the ballots that meet them all are counted by
    inclusion-exclusion over products of ``|S_d|``-sized sets, with no
    vector built; different ``(w, g)`` share no ballot.  Vectors are listed
    only for the cases whose count is not zero, and not at all when the
    counts add up to more than ``_MAX_LISTED`` (:class:`OutputCapError`,
    naming ``items``).
    """
    total, found = 0, []
    for w, g, marked in cases:
        top = key_rows[w][g]
        need = (marked is not None) | (
            approved_rows is not None and not approved_rows[w][g]) << 1
        options = []
        for d, row in enumerate(key_rows):
            if d == w:
                options.append(((g, 0),))
                continue
            cut = g if marked and d in marked else 0
            ok = approved_rows[d] if need & 2 else (False,) * len(row)
            opts = [(h, (h < cut) | ok[h] << 1) for h, key in enumerate(row) if key > top]
            if not opts:
                break
            options.append(opts)
        else:
            sizes = _suffix_sizes(options)
            count = sum(sign * sizes[0][t] for t, sign in _SIGNED[need])
            if count:
                total += count
                found.append((w, options, sizes, need))
    if total > _MAX_LISTED:
        raise OutputCapError(total, items)
    listed = [(vector, w) for w, *cover in found for vector in _covering(*cover)]
    listed.sort()
    return listed


# --------------------------------------------------------------------------
# weak consistency under 2-partitions of the electorate
# --------------------------------------------------------------------------

class NoUniqueWinnerError(VoteError):
    """The combined election's ``(S, T)`` top is tied, so the consistency
    premise has no winner to hold the parts to."""


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
    """Outcome of one consistency check over a family of partitions: how many
    were checked and met the premise, and the violations in the order the
    partitions were checked."""

    n_ballots: int
    n_partitions_checked: int = 0
    n_premise_satisfied: int = 0
    violations: list[ConsistencyViolation] = field(default_factory=list)
    sampled: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _ballot_vectors(
    election: ElectionProfile, ballots: Sequence[Ballot]
) -> list[tuple[int, ...]]:
    """Completed grade-position vectors, one per ballot, checked against the
    tally.  A missing grade completes to the worst position, as
    :meth:`Ballot.grade_index` does."""
    ids = [c.id for c in election.candidates]
    scale = election.scale
    position: dict[str | None, int] = {label: g for g, label in enumerate(scale.labels)}
    position[None] = scale.size - 1
    try:
        vectors = [tuple(map(position.__getitem__, map(b.grades.get, ids)))
                   for b in ballots]
    except (KeyError, TypeError):  # the scale names the first unknown label
        for b in ballots:
            for cid in ids:
                b.grade_index(cid, scale)
        raise
    columns = [list(map(itemgetter(c), vectors)) for c in range(len(ids))]
    rebuilt = [tuple(map(column.count, range(scale.size))) for column in columns]
    if rebuilt != [p.counts for p in election.profiles]:
        raise ValidationError("ballots do not reproduce the election profile")
    return vectors


_BLOCK = 1 << 10  # positions or sampled masks decided together


def _part_keys(n: int, tallies: Iterable[tuple[int, int, int]]) -> list[int]:
    """The ``mj3`` key of each part tally ``(p, _, q)`` of ``n`` grades: the
    pair ``(a, b)`` of :func:`gradevote.mj3.mj3_keys` as the one integer
    ``a * (2n + 1) + b``, which orders as the pair since ``|b| <= n``."""
    span = 2 * n + 1
    return [a * span + b for a, b in mj3_keys(tallies, n)]


@lru_cache(maxsize=256)
def _reach_keys(n: int, most_p: int, most_q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The key (:func:`_part_keys`) of every part tally ``(p, _, q)`` with
    ``p <= most_p`` and ``q <= most_q`` out of ``n`` ballots, at index ``p *
    (most_q + 1) + q``, and the same keys in reverse order: index ``j`` of the
    reverse is the key of the other part, whose index is ``e - j`` for the
    last index ``e``.  Cached per ``(n, most_p, most_q)``, so never mutated."""
    table = tuple(_part_keys(
        n, [(p, 0, q) for p in range(most_p + 1) for q in range(most_q + 1)]))
    return table, table[::-1]


def _popcounts(bits: int, masks: Iterable[int]) -> list[int]:
    """How many of ``bits`` each mask has set."""
    return list(map(int.bit_count, map(bits.__and__, masks)))


def _sign_table(table: Sequence[int], end: int) -> list[bool]:
    """``ok[j]`` for each part-1 index ``j <= end`` of a candidate whose
    totals sit at index ``end`` of the key list ``table``: whether the keys of
    part 1 and of part 2 (index ``end - j``) keep their sign, that is, have no
    strict sign switch.  A key's sign is minus its score's."""
    # a whole-tuple slice is the tuple itself: a cached table is not copied
    return list(map((0).__le__, map(mul, table, reversed(table[:end + 1]))))


class _Walk(NamedTuple):
    """Positions of a little-endian mixed-radix count over ballot kinds:
    digit ``k`` of a position, from 0 to ``copies[k]``, is how many ballots
    of kind ``k`` part 1 takes."""

    copies: tuple[int, ...]
    positions: range


def _digits(position: int, copies: Sequence[int]) -> list[int]:
    """The digits of ``position`` in a walk over kinds of ``copies``, least
    significant first."""
    digits = []
    for m in copies:
        position, digit = divmod(position, m + 1)
        digits.append(digit)
    return digits


_Columns = Iterator[tuple[int, list[int], list[list[int]], list[list[int]]]]


def _walk_columns(
    kinds: Sequence[tuple[int, ...]], walk: _Walk, totals: list[tuple[int, int, int]], n: int
) -> _Columns:
    """Each block of at most ``_BLOCK`` of ``walk``'s positions over
    ``kinds``, in order, as its size, the positions of it where no
    candidate's key strictly switches sign between the parts (a key's sign is
    minus its score's: ``s > 0`` iff ``p > q``, ``s = 0`` iff ``p = q = 0``),
    and per candidate a column of part-1 keys and one of part-2 keys for
    those positions only.

    A candidate with totals ``(P, _, Q)`` has the part-1 index ``j = p * (Q
    + 1) + q`` in its key table (:func:`_reach_keys`), and part 2 the index
    ``e - j`` of its last index ``e``: the table and its reverse give both
    keys at ``j``, and one sign table per candidate (:func:`_sign_table`)
    each position's flag.  Each ballot a kind puts in part 1 steps ``j`` by
    ``Q + 1`` if it grades the candidate positive, by 1 if negative.  A block
    spans the low digits, whose radices multiply to at most ``_BLOCK``, and a
    chunk of the next digit, so ``j`` is a base per block plus a low index
    built once.  The first candidate's flags are looked up over the whole
    block, each other candidate's only at the positions still kept, and keys
    at the positions every flag keeps.
    """
    copies = walk.copies
    start, stop = walk.positions.start, walk.positions.stop
    tables = [_reach_keys(n, p, q) for p, _, q in totals]
    oks = [_sign_table(table, len(table) - 1) for table, _ in tables]
    # steps[c][k]: how far each ballot of kind k in part 1 moves c's index
    steps = [list(map([q + 1, 0, 1].__getitem__, column))
             for column, (_, _, q) in zip(zip(*kinds), totals)]
    room, cut, width = min(_BLOCK, stop), 0, 1
    for m in copies:
        if width * (m + 1) > room:
            break
        width *= m + 1
        cut += 1
    radix = copies[cut] + 1 if cut < len(copies) else 1
    chunk = max(1, min(radix, _BLOCK // width, -(-stop // width)))
    spans = [m + 1 for m in copies[:cut]] + [chunk] * (chunk > 1)
    lows = []
    for col in steps:
        low = [0]
        for r, s in zip(spans, col):
            low += [j + d for d in range(s, r * s, s) for j in low] if s else low * (r - 1)
        lows.append(low)
    # a block is a chunk of digit cut, so its low digits are all 0
    low_width, group, width = width, width * radix, width * chunk
    getters: dict[int, itemgetter] = {}
    x = start - start % group
    x += (start - x) // width * width
    while x < stop:
        end = min(x + width, x - x % group + group)  # a chunk never crosses a group
        high = _digits(x // low_width, copies[cut:]) if x else ()
        lo, hi = max(start, x) - x, min(end, stop) - x
        bases = [sum(d * s for d, s in zip(high, col[cut:])) for col in steps]
        b = bases[0]
        if hi not in getters:  # a trailing index 0 keeps the getter's result a tuple
            getters[hi] = itemgetter(*lows[0][:hi], 0)
        at = list(compress(range(lo, hi), getters[hi](oks[0][b:b + lows[0][-1] + 1])[lo:hi]))
        for ok, b, low in zip(oks[1:], bases[1:], lows[1:]):
            if not at:
                break
            ok = ok[b:b + low[-1] + 1]
            at = list(compress(at, map(ok.__getitem__, map(low.__getitem__, at))))
        parts1 = [[b + low[i] for i in at] for b, low in zip(bases, lows)]
        yield (
            hi - lo,
            [x + i for i in at],
            [list(map(table.__getitem__, js)) for (table, _), js in zip(tables, parts1)],
            [list(map(back.__getitem__, js)) for (_, back), js in zip(tables, parts1)],
        )
        x = end


def _key_columns(
    masks: Iterable[int], signs: list, totals: list[tuple[int, int, int]], n: int
) -> _Columns:
    """Each block of at most ``_BLOCK`` masks, in order, as :func:`_walk_columns`
    gives a block of positions, for masks in any order (sampled ones).

    A part's ``(p, q)`` are popcounts against the candidate's positive and
    negative ballot bitmasks ``signs``, part 2's are the totals less part 1's,
    and both parts' keys are counted per block with :func:`_part_keys`, with
    no table of every index (that would hold ``(n + 1)²`` keys for a large
    sampled electorate).  A mask is kept by ``k1 * k2 >= 0`` for every
    candidate.
    """
    masks = iter(masks)
    while block := list(islice(masks, _BLOCK)):
        ps = [_popcounts(pos, block) for pos, _ in signs]
        qs = [_popcounts(neg, block) for _, neg in signs]
        columns1 = [_part_keys(n, zip(p, repeat(0), q)) for p, q in zip(ps, qs)]
        columns2 = [
            _part_keys(n, zip(map(tp.__sub__, p), repeat(0), map(tq.__sub__, q)))
            for p, q, (tp, _, tq) in zip(ps, qs, totals)
        ]
        at = range(len(block))
        for k1, k2 in zip(columns1, columns2):
            ok = list(map((0).__le__, map(mul, k1, k2)))
            if not (at := list(compress(at, map(ok.__getitem__, at)))):
                break
        yield (
            len(block),
            [block[i] for i in at],
            [[column[i] for i in at] for column in columns1],
            [[column[i] for i in at] for column in columns2],
        )


def _unique_tops(
    keys1: Sequence[Sequence[int]], keys2: Sequence[Sequence[int]], strongest: list[int]
) -> Iterator[tuple[int, Sequence[int], list[int], list[int]]]:
    """``(w, at, w1, w2)`` for each candidate ``w``, strongest first, that is
    the same unique top of both parts of some partitions of a block: ``at``
    are those partitions' indices in block order, ``w1`` and ``w2`` are
    ``w``'s key columns at them.  ``w``'s rivals are tested strongest first,
    each keeping only the partitions where ``w``'s key is strictly below the
    rival's in both parts."""
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
            yield w, at, w1, w2


def _check_masks(
    election: ElectionProfile,
    vectors: Sequence[tuple[int, ...]],
    masks: Iterable[int] | _Walk,
    *,
    sampled: bool,
) -> PartitionCheckReport:
    """Evaluate the consistency premise over 2-partitions.

    ``masks`` is a :class:`_Walk` over the kinds ``vectors``, a ``range`` of
    bitmasks, walked as the kinds of one ballot each (bit ``i`` puts ballot
    ``vectors[i]`` in part 1, so a position is its mask), or any other
    bitmasks, decided by popcounts (:func:`_key_columns`).  Either source
    gives blocks of positions with, per candidate, the ``mj3`` keys of both
    parts, and drops first every position where some candidate's score
    strictly switches sign: that breaks score additivity across the parts
    (positives cancelled inside one part reappear in the union), and with it
    the consistency guarantee.  On the positions left the packed keys add
    exactly, ``k1 + k2 == key(totals)``: each candidate's ``(p, q)`` add, a
    key is ``q - p * span`` where ``p > q`` and ``q * span - p`` elsewhere,
    both linear, and two parts of one sign take the same form as their totals
    (a zero key, ``p = q = 0``, is 0 in both).  Keys that add keep any strict
    order both parts agree on, so a unique top ``w`` of both parts stays
    below each rival's key in the union too.  Of the positions whose parts
    share a unique top ``w`` (:func:`_unique_tops`), the premise hits, where
    ``w``'s two keys are both zero or both not, are counted over ``w``'s key
    columns.  A hit of a ``w``
    that is not the combined winner is a violation, listed in position order
    with part 1's size read from the position's digits (or mask bits).
    """
    require_rankable(election)
    ids = [c.id for c in election.candidates]
    if isinstance(masks, range) and masks.step == 1:
        masks = _Walk((1,) * len(vectors), masks)
    walked = isinstance(masks, _Walk)
    copies = masks.copies if walked else (1,) * len(vectors)
    n = sum(copies)
    totals = [
        (sum(compress(copies, map((0).__eq__, column))), 0,
         sum(compress(copies, map((2).__eq__, column))))
        for column in zip(*vectors)
    ]
    span = 2 * n + 1
    overall = _part_keys(n, totals)
    top = min(overall)
    if overall.count(top) != 1:
        raise NoUniqueWinnerError("combined election has no unique winner")
    winner = overall.index(top)
    strongest = sorted(range(len(ids)), key=overall.__getitem__)
    if walked:
        blocks = _walk_columns(vectors, masks, totals, n)
    else:
        signs = [
            [sum(1 << i for i, vec in enumerate(vectors) if vec[c] == g) for g in (0, 2)]
            for c in range(len(ids))
        ]
        blocks = _key_columns(masks, signs, totals, n)
    report = PartitionCheckReport(n_ballots=n, sampled=sampled)
    for size, kept, columns1, columns2 in blocks:
        report.n_partitions_checked += size
        if not kept:
            continue
        found = []
        for w, at, w1, w2 in _unique_tops(columns1, columns2, strongest):
            # no strict sign switch is left, so w's scores keep their sign
            # unless exactly one of them is zero
            hits = list(map(eq, map((0).__eq__, w1), map((0).__eq__, w2)))
            report.n_premise_satisfied += hits.count(True)
            if w != winner:
                found += zip(compress(at, hits), compress(w1, hits),
                             compress(w2, hits), repeat(w))
        found.sort()  # each position has one top, so no tie reaches a key
        for at, k1, k2, w in found:
            size1 = sum(_digits(kept[at], copies)) if walked else kept[at].bit_count()
            report.violations.append(
                ConsistencyViolation(
                    part_sizes=(size1, n - size1),
                    winner_parts=ids[w],
                    winner_overall=ids[winner],
                    # |t| <= n, so each key gives back its score s exactly
                    s_part1=-((k1 + n) // span),
                    s_part2=-((k2 + n) // span),
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
    if samples is not None:
        _require_at_least(1, samples=samples)
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
    the labeled limit (e.g. 21 ballots of 3 kinds) stay exhaustive.  A split
    is a position of one walk over the kinds (:func:`_walk_columns`), each
    digit the number of one kind's ballots part 1 takes.  The kinds are
    sorted and walked last first, so positions count in ``product`` order over
    the sorted kinds, which puts each split's mirror image at the mirrored
    position: the first half, less the empty split at 0, holds every split
    once.
    """
    method_scale("mj3", election.scale)  # partitions are decided by the mj3 key
    vectors = _ballot_vectors(election, ballots)
    if len(vectors) < 2:
        raise VoteError("partition check needs at least two ballots")
    kinds = sorted(Counter(vectors).items(), reverse=True)
    copies = tuple(m for _, m in kinds)
    walk = _Walk(copies, range(1, (prod(m + 1 for m in copies) + 1) // 2))
    return _check_masks(election, [vec for vec, _ in kinds], walk, sampled=False)


def random_consistency_sweep(
    n_instances: int,
    *,
    max_voters: int = 8,
    seed: int | None = None,
) -> PartitionCheckReport:
    """Exhaustive partition checks over many random three-grade elections of
    2 to ``max_voters`` ballots and 2 or 3 candidates.

    Instances without a unique combined winner are redrawn.  Returns one
    report with the counts and violations of all instances added up.
    """
    _require_at_least(2, max_voters=max_voters)
    _require_at_least(1, n_instances=n_instances)
    rng = random.Random(seed)
    total = PartitionCheckReport(n_ballots=0)
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
    the positions of the top key before it was cast.  Only a winner ``w``
    with another candidate in ``before`` can be one, at a grade ``g`` where
    some such candidate has a better grade whose key is above ``w``'s."""
    key_rows = rows[0]
    cases = []
    for w, row in enumerate(key_rows):
        if marked := [x for x in before if x != w]:
            # for g = 1, 2, ...: their largest key at any grade better than g
            above = accumulate(map(max, zip(*map(key_rows.__getitem__, marked))), max)
            cases += [(w, g, marked) for g, key in zip(range(1, len(row)), above)
                      if key > row[g]]
    return [
        NoShowCounterexample(
            kind="addition",
            grades={cid: labels[g] for cid, g in zip(ids, vector)},
            voter_id=None,
            before=_outcome(ids, before),
            after=Outcome("winner", winner=ids[w]),
        )
        for vector, w in _winning_vectors(*rows, cases, "addition counterexamples")
    ]


def search_no_show(
    election: ElectionProfile,
    ballots: Sequence[Ballot] | None = None,
    *,
    method: str = "auto",
) -> list[NoShowCounterexample]:
    """Search one election for participation failures.

    The addition form covers every possible extra ballot (every grade
    vector over the candidates) and needs only the tallies.  The removal form
    re-tallies the election without each distinct existing ballot and runs
    only when ``ballots`` are supplied, since per-candidate tallies do not
    determine them.  Returns all counterexamples found, additions first.
    Every outcome is decided from per-tally keys on counts, the extra
    ballots by product sets over the addition kernel's table
    (:func:`_winning_vectors`), so the search never enumerates the grade
    vectors.  It raises :class:`OutputCapError` when there are more than
    ``_MAX_LISTED`` addition counterexamples to list; the error's ``listed``
    then holds the removal counterexamples.
    """
    scale = election.scale
    method = resolve_method(method, scale)
    ids = [c.id for c in election.candidates]
    require_rankable(election)
    base = [p.counts for p in election.profiles]
    n = election.n_voters
    before = _top(*_key_table(method, base, n))
    removals = []
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
                removals.append(
                    NoShowCounterexample(
                        kind="removal",
                        grades={cid: scale.labels[g] for cid, g in zip(ids, vector)},
                        voter_id=ballot.voter_id,
                        before=_outcome(ids, before),
                        after=_outcome(ids, without),
                    )
                )
    try:
        additions = _addition_counterexamples(
            ids, scale.labels, _addition_rows(method, base, n, scale.size), before
        )
    except OutputCapError as exc:
        exc.listed = removals
        raise
    return additions + removals


@dataclass
class NoShowSweepReport:
    """Aggregate of an exhaustive addition-form no-show search."""

    n_instances: int
    n_additions_checked: int
    counterexamples: list[NoShowCounterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``, in
    lexicographic order."""
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


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
    _require_at_least(1, max_voters=max_voters)
    scale = method_scale(method, None)
    ids = ("a", "b")
    report = NoShowSweepReport(n_instances=0, n_additions_checked=0)
    for n in range(1, max_voters + 1):
        tallies = _compositions(n, scale.size)
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
    tallies = _compositions(n, 3)
    return tallies, _key_table("mj3", tallies, n)[0], _key_table("mj", tallies, n)[0]


def _disagreeing_pairs(score_keys: Sequence, removal_keys: Sequence) -> set[tuple[int, int]]:
    """Each pair of tally positions, both ways round, whose score keys and
    removal keys compare differently (``<``, ``==`` or ``>``)."""
    signs = [[(k[i] > k[j]) - (k[i] < k[j]) for i, j in combinations(range(len(k)), 2)]
             for k in (score_keys, removal_keys)]
    pairs = compress(combinations(range(len(score_keys)), 2), map(ne, *signs))
    return {pair for i, j in pairs for pair in ((i, j), (j, i))}


def search_cross_method_disagreements(
    *, max_voters: int = 4, max_candidates: int = 3
) -> CrossMethodReport:
    """Compare mj3 (score form) with general majority judgement exhaustively.

    Covers every 3-grade election with up to ``max_voters`` ballots and up
    to ``max_candidates`` candidates (by per-candidate tallies, which is all
    either method reads) and diffs the two rankings, tie groups included,
    each sorted by its ranker's key (:func:`_cross_method_keys`).  A stable
    sort puts ``a`` before ``b`` exactly when ``a``'s key is smaller, or equal
    with ``a`` first, and ties them exactly when the keys are equal, so two
    such rankings are equal exactly when every pair of candidates compares
    alike (``<``, ``==``, ``>``) under both keys.  The search therefore finds
    the :func:`_disagreeing_pairs` of tallies once per electorate size,
    counts the elections it covers, and walks elections (in order) only in a
    block of candidates and voters that has such a pair, ranking and listing
    those that hold one.
    """
    _require_at_least(1, max_voters=max_voters, max_candidates=max_candidates)
    tables = {n: _cross_method_keys(n) for n in range(1, max_voters + 1)}
    pairs = {n: _disagreeing_pairs(*table[1:]) for n, table in tables.items()}
    report = CrossMethodReport(n_instances=0)
    for n_cands in range(1, max_candidates + 1):
        ids = [f"c{i + 1}" for i in range(n_cands)]
        for n in range(1, max_voters + 1):
            tallies, score_keys, removal_keys = tables[n]
            report.n_instances += len(tallies) ** n_cands
            if not pairs[n]:
                continue
            for combo in product(range(len(tallies)), repeat=n_cands):
                if pairs[n].isdisjoint(combinations(combo, 2)):
                    continue
                by_score = _ranking([score_keys[i] for i in combo])
                by_removal = _ranking([removal_keys[i] for i in combo])
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
    _require_at_least(1, n_cases=n_cases)
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
    skipped, not scored.  The alternatives are decided by the addition
    kernel's product sets (:func:`_winning_vectors`), which raise
    :class:`OutputCapError` when more than ``_MAX_LISTED`` improve.
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
    report.n_alternatives = scale.size ** len(ids) - 1  # all but the honest ballot
    honest_best = honest_vector[honest_top[0]]
    # the honest ballot comes out of the counts once; each alternative goes
    # in.  Only a winner the honest ballot grades better than the honest
    # winner improves, so the honest ballot itself never does.
    others = [_bump(c, g, -1) for c, g in zip(full, honest_vector)]
    rows = _addition_rows(method, others, election.n_voters - 1, scale.size)
    cases = [(w, g, None) for w in range(len(ids)) if honest_vector[w] < honest_best
             for g in range(scale.size)]
    for vector, w in _winning_vectors(*rows, cases, "improving deviations"):
        grades = {cid: scale.labels[g] for cid, g in zip(ids, vector)}
        report.improving.append(Deviation(grades=grades, winner=ids[w]))
    return report
