"""Strong/weak approval election procedure.

Voters may mark each candidate with strong approval or weak approval; an
unmarked candidate counts as no explicit approval.  Per candidate:

* ``a_strong`` — strong approvals,
* ``a_any``   — strong plus weak approvals,
* ``n_none``  — ballots giving no explicit approval.

The whole election is *rejected* when no candidate is approved (strongly or
weakly) by a strict majority of the electorate; a rejected election elects
nobody and is expected to be repeated with new candidates.

Candidates fall into three blocks:

* STRONG_MAJORITY — ``a_strong > n_none``; strong approvals outnumber the
  indifferent-or-worse rest so decisively that the candidate clears the
  majority-approval threshold automatically.
* ELECTABLE — approved by a strict majority (``2 * a_any > n_total``).
* UNELECTABLE — everyone else.

The final order puts the whole STRONG_MAJORITY block first, sorted by
``a_strong`` (ties by ``a_any``); remaining candidates follow, sorted by
``a_any`` (ties by ``a_strong``).  Only non-negative counts ever appear in
results.
"""

from collections.abc import Sequence
from dataclasses import dataclass

from .core import ConfigError, ElectionProfile, GradeProfile, GradeScale, VoteError
from .results import Block, RankedEntry, RankedResult, competition_ranks

#: Canonical grade labels for this procedure, best first.
APPROVAL_SCALE = GradeScale(("strong", "weak", "none"))


@dataclass(frozen=True)
class ApprovalTally:
    """Approval counts of one candidate."""

    a_strong: int
    a_weak: int
    n_none: int

    def __post_init__(self) -> None:
        if min(self.a_strong, self.a_weak, self.n_none) < 0:
            raise VoteError("vote counts cannot be negative")

    @property
    def a_any(self) -> int:
        return self.a_strong + self.a_weak

    @property
    def n_total(self) -> int:
        return self.a_strong + self.a_weak + self.n_none

    @classmethod
    def from_profile(cls, profile: GradeProfile) -> "ApprovalTally":
        if len(profile.counts) != 3:
            raise ConfigError("approval tally needs the 3-grade strong/weak/none scale")
        return cls(*profile.counts)


def classify_block(tally: ApprovalTally) -> Block:
    """The block a candidate with this tally belongs to."""
    if tally.a_strong > tally.n_none:
        return Block.STRONG_MAJORITY
    if 2 * tally.a_any > tally.n_total:
        return Block.ELECTABLE
    return Block.UNELECTABLE


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


def approval_rank(election: ElectionProfile) -> RankedResult:
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


def borderline_candidates(result: RankedResult) -> tuple[str, ...]:
    """Candidates approved by exactly half the electorate.

    The majority-approval threshold is strict, so these candidates are *not*
    counted as majority-approved; they are surfaced so close results are
    visible.
    """
    out = []
    for entry in result.entries:
        a_any = entry.counts[0] + entry.counts[1]
        if 2 * a_any == result.n_voters:
            out.append(entry.candidate)
    return tuple(out)
