"""Majority judgement on a three-grade scale, in raw-score form.

With exactly three grades (positive / neutral / negative, best first) the
median-and-tie-break machinery collapses into two integers per candidate:

* score ``s``:  ``n_positive``  if ``n_positive > n_negative``  else ``-n_negative``
* tie-break ``t``: ``-n_negative`` if ``n_positive > n_negative`` else ``n_positive``

Candidates are ranked by ``(s, t)`` in descending lexicographic order.  A
positive ``s`` says a candidate's majority grade is held up by the count of
positive votes; a non-positive ``s`` says it is dragged down by the count of
negative votes.  Two candidates with equal ``(s, t)`` (and equal electorate)
have fully identical tallies, so ``(s, t)`` ties are genuine ties.

:func:`alt_scores` computes three alternative single-number scores sometimes
used for diagnostics — vote difference over the electorate, over the number of
non-neutral votes, and over the number of neutral votes — as exact rationals,
with ``None`` marking an undefined value (zero denominator).
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import ConfigError, ElectionProfile, GradeProfile, VoteError
from .results import MJ3_SCALE, RankedResult, Tallies, ranked  # MJ3_SCALE re-exported

if TYPE_CHECKING:  # alt_scores imports it when called, so a tally never loads it
    from fractions import Fraction


@dataclass(frozen=True)
class Tally3:
    """Vote counts of one candidate on a three-grade scale."""

    n_positive: int
    n_neutral: int
    n_negative: int

    def __post_init__(self) -> None:
        if min(self.n_positive, self.n_neutral, self.n_negative) < 0:
            raise VoteError("vote counts cannot be negative")

    @property
    def n_total(self) -> int:
        return self.n_positive + self.n_neutral + self.n_negative

    @classmethod
    def from_profile(cls, profile: GradeProfile) -> "Tally3":
        if len(profile.counts) != 3:
            raise ConfigError(
                f"three-grade tally needs a 3-grade profile, got {len(profile.counts)} grades"
            )
        return cls(*profile.counts)


@dataclass(frozen=True)
class ScorePair:
    """Primary score and tie-break value of one candidate."""

    s: int
    t: int


@dataclass(frozen=True)
class AltScores:
    """Alternative diagnostic scores; ``None`` marks an undefined value."""

    vote_difference: "Fraction | None"   # (n_pos - n_neg) / n_total
    relative_margin: "Fraction | None"   # (n_pos - n_neg) / (n_pos + n_neg)
    neutral_normalized: "Fraction | None"  # (n_pos - n_neg) / n_neutral


MJ3_SCALE_LABELS = MJ3_SCALE.labels


def score3(tally: Tally3) -> ScorePair:
    """The (score, tie-break) pair of one candidate."""
    if tally.n_positive > tally.n_negative:
        return ScorePair(s=tally.n_positive, t=-tally.n_negative)
    return ScorePair(s=-tally.n_negative, t=tally.n_positive)


def alt_scores(tally: Tally3) -> AltScores:
    """The three alternative scores, exact, with undefined markers."""
    from fractions import Fraction

    difference = tally.n_positive - tally.n_negative
    non_neutral = tally.n_positive + tally.n_negative
    return AltScores(
        vote_difference=(
            Fraction(difference, tally.n_total) if tally.n_total else None
        ),
        relative_margin=(
            Fraction(difference, non_neutral) if non_neutral else None
        ),
        neutral_normalized=(
            Fraction(difference, tally.n_neutral) if tally.n_neutral else None
        ),
    )


def mj3_keys(tallies: Tallies, n_voters: int) -> list[tuple[int, int]]:
    """The ``(s, t)`` pair of :func:`score3` of every tally, negated, so that
    the smallest key is the best; straight from the counts."""
    return [(-p, q) if p > q else (q, -p) for p, _, q in tallies]


def mj3_rank(election: ElectionProfile) -> RankedResult:
    """Rank a three-grade election by (score, tie-break), best first.

    Raises :class:`ConfigError` on a scale that does not have exactly three
    grades (:func:`gradevote.results.method_scale`); use
    :func:`gradevote.mj.mj_rank` for other scales.
    """
    return ranked(
        election, "mj3", mj3_keys,
        lambda key, counts: {"score": -key[0], "tiebreak": -key[1]},
    )
