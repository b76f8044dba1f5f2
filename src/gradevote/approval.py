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
results.  :class:`ApprovalTally` is a frozen record
(:func:`gradevote.core.record`) that refuses a negative count.
"""


from .core import ConfigError, ElectionProfile, GradeProfile, VoteError, record
from .results import (  # APPROVAL_SCALE is re-exported from here too
    APPROVAL_SCALE,
    Block,
    RankedResult,
    Tallies,
    ranked,
)


@record(frozen=True)
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


def approval_keys(tallies: Tallies, n_voters: int) -> list[tuple[int, int, int]]:
    """Ascending sort keys of ``(strong, weak, none)`` tallies.

    The STRONG_MAJORITY block comes first, by ``a_strong`` then ``a_any``;
    everyone else follows by ``a_any`` then ``a_strong``.  Two keys are equal
    exactly when the tallies are (within one electorate).
    """
    return [(0, -s, -s - w) if s > none else (1, -s - w, -s) for s, w, none in tallies]


def approval_rejected(tallies: Tallies, n_voters: int) -> bool:
    """Whether no candidate is approved by a strict majority of ``n_voters``."""
    return not any(2 * (strong + weak) > n_voters for strong, weak, _ in tallies)


def approval_rank(election: ElectionProfile) -> RankedResult:
    """Rank an approval election; never elects anyone when rejected.

    Requires the canonical ``strong``/``weak``/``none`` scale
    (:func:`gradevote.results.method_scale`).
    """
    return ranked(
        election, "approval3", approval_keys,
        lambda key, counts: {"block": classify_block(ApprovalTally(*counts))},
        approval_rejected,
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
