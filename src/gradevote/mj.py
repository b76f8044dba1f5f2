"""Majority judgement on an arbitrary ordered grade scale.

A candidate's majority grade is the lower middlemost of their ballots when
sorted best grade first (0-based position ``total // 2``).  Ties between
candidates sharing a majority grade are broken by iterated removal: repeatedly
take the current majority grade out of the profile and compare again.  The
whole removal sequence of one candidate is their *majority value*
(:func:`majority_value`); comparing majority values lexicographically (grade
positions, best = 0) is equivalent to running the pairwise iterated tie-break.

:func:`mj_rank` reaches the same order from the per-grade counts alone, in
O(grades) per candidate whatever the electorate size:

* every candidate is keyed first by the Balinski–Laraki *majority gauge*
  ``(α, -p if p > q else q)``, where ``p`` and ``q`` count the ballots
  strictly better and strictly worse than the majority grade ``α``;
* only candidates whose gauge is shared by a *different* tally also get the
  removal key of :func:`_removal_key`, a run-length form of the majority value
  that compares exactly as the full sequence does.

Candidates whose removal sequences are exhausted while still identical — i.e.
with fully identical grade profiles — are reported as a tie group.

:class:`MajorityGrade` is a frozen record (:func:`gradevote.core.record`).
"""

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate

from .core import ElectionProfile, GradeProfile, GradeScale, VoteError, record
from .results import RankedResult, ranked


@record(frozen=True)
class MajorityGrade:
    """A majority grade as scale position (0 = best) plus its label."""

    index: int
    label: str


def majority_grade(profile: GradeProfile, scale: GradeScale) -> MajorityGrade:
    """The majority (median) grade of one candidate.  Needs at least one ballot."""
    if profile.total == 0:
        raise VoteError("majority grade undefined without ballots")
    index = _gauge(profile.counts, profile.total)[0]
    return MajorityGrade(index, scale.labels[index])


def majority_value(profile: GradeProfile) -> tuple[int, ...]:
    """The full iterated-removal sequence of grade positions.

    Element 0 is the majority grade; each later element is the majority grade
    after removing all previous elements, one ballot at a time.  Smaller is
    better, so candidates compare by lexicographic order of these tuples.
    """
    counts = list(profile.counts)
    total = profile.total
    sequence = []
    while total > 0:
        position = _gauge(counts, total)[0]
        sequence.append(position)
        counts[position] -= 1
        total -= 1
    return tuple(sequence)


def _gauge(counts: Sequence[int], total: int) -> tuple[int, int]:
    """The majority gauge ``(α, -p if p > q else q)``; smaller is better.

    ``p`` ballots are strictly better than the majority grade ``α`` and ``q``
    strictly worse.  Sorting by it never contradicts :func:`majority_value`,
    but distinct tallies can share it.
    """
    # one pass finds α, p and q together: the property sweeps call this for
    # every candidate of thousands of tiny elections
    target = total // 2
    cumulative = 0
    for alpha, count in enumerate(counts):
        cumulative += count
        if cumulative > target:
            better = cumulative - count
            worse = total - cumulative
            return alpha, (-better if better > worse else worse)
    raise VoteError("profile counts do not cover the median position")


def _removal_key(counts: tuple[int, ...], total: int) -> tuple:
    """A key of O(grades) entries that compares like :func:`majority_value`.

    With the ballots sorted best first into ``x_0 .. x_{n-1}`` and
    ``m = n // 2``, iterated removal takes position ``m`` and then the pairs
    ``(m - j, m + j)`` (``n`` even) or ``(m + j, m - j)`` (``n`` odd) for
    ``j = 1 .. m``.  For even ``n`` the last pair's second slot is past the end
    and reads as the sentinel grade ``len(counts)``, the same for every
    candidate.  Each side of a pair is a step function of ``j``, so the pairs
    form at most ``2 * len(counts)`` runs.  The key is ``α`` followed by one
    entry per run: ``(pair, 0, r)`` when the next run's pair is better,
    ``(pair, 2, -r)`` when it is worse, and ``(pair, 1, 0)`` for the last run,
    ``r`` being the run length.  Within one election every candidate has the
    same ``n``, so comparing these keys is comparing the removal sequences.
    """
    bounds = list(accumulate(counts))
    m = total // 2
    key: list = [bisect_right(bounds, m)]
    if m == 0:
        return tuple(key)
    # a side changes grade at j exactly when its new position starts a grade
    starts = sorted(
        {1}.union(
            j for b in bounds for j in (b - m, m + 1 - b) if 1 < j <= m
        )
    )
    step = 1 if total % 2 else -1
    pairs = [
        (bisect_right(bounds, m + step * j), bisect_right(bounds, m - step * j))
        for j in starts
    ]
    starts.append(m + 1)
    for index in range(len(pairs) - 1):
        run = starts[index + 1] - starts[index]
        pair = pairs[index]
        key.append((pair, 0, run) if pairs[index + 1] < pair else (pair, 2, -run))
    key.append((pairs[-1], 1, 0))
    return tuple(key)


def _rank_keys(tallies: list[tuple[int, ...]], total: int) -> list[tuple]:
    """Sort keys for one election's tallies: equal exactly for equal tallies.

    Each key is the gauge, extended by the removal key only for candidates
    whose gauge another, different tally shares (so a whole gauge group is
    extended or none of it is).
    """
    gauges = [_gauge(counts, total) for counts in tallies]
    first: dict[tuple[int, int], tuple[int, ...]] = {}
    shared = set()
    for gauge, counts in zip(gauges, tallies):
        if first.setdefault(gauge, counts) != counts:
            shared.add(gauge)
    return [
        gauge + _removal_key(counts, total) if gauge in shared else gauge
        for gauge, counts in zip(gauges, tallies)
    ]


def mj_rank(election: ElectionProfile) -> RankedResult:
    """Rank all candidates by majority judgement with the iterated tie-break.

    Sorts by the majority gauge, refined by the exact removal key where
    gauges collide, so the cost does not grow with the number of voters.
    """
    labels = election.scale.labels
    return ranked(
        election, "mj", _rank_keys,
        lambda key, counts: {"majority_grade": labels[key[0]]},
    )
