"""Shared ranking result model and the one ranking builder.

Every grade-based method (majority judgement, the three-grade score form, the
strong/weak approval procedure) returns a :class:`RankedResult`: candidates in
final order with competition-style ranks, raw per-grade counts, and explicit
tie groups.  Ties are never silently broken — candidates with fully identical
grade profiles share a rank and are reported as a tie group in registration
order.

:func:`ranked` builds every one from a method's key function (one key per
tally, smaller is better, equal exactly for equal tallies), sorting stably so
that equal keys keep registration order; ranks and tie groups are the runs of
equal keys.  ``gradevote.methods.KEYS`` holds the same key functions, so the
harness can decide outcomes from keys alone.  The builder first checks the
scale by :func:`method_scale`, the one rule for the scale each method ranks,
which the config loader and the harness share.
"""

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .core import ConfigError, ElectionProfile, GradeScale, VoteError

#: Per-candidate counts, best grade first, in registration order.
Tallies = Sequence[Sequence[int]]


#: The default scale of ``mj`` and ``mj3``, best grade first.
MJ3_SCALE = GradeScale(("positive", "neutral", "negative"))
#: The fixed scale of ``approval3``, best grade first.
APPROVAL_SCALE = GradeScale(("strong", "weak", "none"))


def method_scale(method: str, scale: GradeScale | None) -> GradeScale:
    """The scale ``method`` ranks: ``scale``, or the method's default if None.
    Raises :class:`ConfigError` for an unknown method or a scale it cannot rank."""
    if method == "approval3":
        if scale not in (None, APPROVAL_SCALE):
            raise ConfigError(
                f"method approval3 uses the fixed scale {APPROVAL_SCALE.labels!r}"
            )
        return APPROVAL_SCALE
    if method == "mj3":
        if scale is not None and scale.size != 3:
            raise ConfigError("method mj3 needs a 3-grade scale")
    elif method != "mj":
        raise ConfigError(f"unknown ranking method {method!r}")
    return MJ3_SCALE if scale is None else scale


class Block(Enum):
    """Approval-procedure blocks, best block first."""

    STRONG_MAJORITY = "strong_majority"
    ELECTABLE = "electable"
    UNELECTABLE = "unelectable"


@dataclass(frozen=True)
class RankedEntry:
    """One row of a ranking.

    ``counts`` are raw per-grade counts, best grade first.  The optional
    fields are method-specific: ``block`` for the approval procedure,
    ``majority_grade`` for majority judgement, ``score``/``tiebreak`` for the
    three-grade score form.
    """

    rank: int
    candidate: str
    name: str
    counts: tuple[int, ...]
    block: Block | None = None
    majority_grade: str | None = None
    score: int | None = None
    tiebreak: int | None = None


@dataclass(frozen=True)
class RankedResult:
    """Final ranking of one election.

    ``tie_groups`` lists every maximal group of candidates with identical
    grade profiles (groups of size >= 2 only), members in registration order.
    ``rejected`` is used by the approval procedure when no candidate clears
    the majority-approval threshold.
    """

    method: str
    scale: GradeScale
    n_voters: int
    entries: tuple[RankedEntry, ...]
    tie_groups: tuple[tuple[str, ...], ...] = field(default_factory=tuple)
    rejected: bool = False

    @property
    def order(self) -> tuple[str, ...]:
        """Candidate ids, best first (ties in registration order)."""
        return tuple(e.candidate for e in self.entries)

    @property
    def winner(self) -> str | None:
        """The unique rank-1 candidate, or None if rejected or tied at the top."""
        return outcome_of(self).winner


@dataclass(frozen=True)
class Outcome:
    """The decision of one tally: a unique winner, a rank-1 tie, or rejection."""

    kind: str  # "winner" | "tie" | "rejected"
    winner: str | None = None
    tied: tuple[str, ...] = ()


def outcome_of(result: RankedResult) -> Outcome:
    """Collapse a ranking into its decision."""
    if result.rejected:
        return Outcome("rejected")
    top = result.entries[0].candidate
    for group in result.tie_groups:
        if top in group:
            return Outcome("tie", tied=group)
    return Outcome("winner", winner=top)


def require_rankable(election: ElectionProfile) -> None:
    """Refuse an election no method can decide: no ballots, or no candidates."""
    if election.n_voters == 0:
        raise VoteError("cannot rank an election without ballots")
    if not election.candidates:
        raise VoteError("cannot rank an election without candidates")


def ranked(
    election: ElectionProfile, method: str, keys_fn: Callable[[Tallies, int], list],
    fields: Callable[[object, tuple[int, ...]], dict],
    rejects: Callable[[Tallies, int], bool] | None = None,
) -> RankedResult:
    """Rank ``election`` by ``keys_fn(tallies, n_voters)``, smallest key first,
    once :func:`method_scale` accepts its scale for ``method``.
    ``fields(key, counts)`` gives an entry's method-specific fields, and
    ``rejects(tallies, n_voters)``, if given, whether the result is rejected."""
    method_scale(method, election.scale)
    require_rankable(election)
    tallies = [p.counts for p in election.profiles]
    keys = keys_fn(tallies, election.n_voters)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks, groups = competition_ranks([keys[i] for i in order])
    cands = election.candidates
    entries = tuple(
        RankedEntry(ranks[pos], cands[i].id, cands[i].name, tallies[i],
                    **fields(keys[i], tallies[i]))
        for pos, i in enumerate(order)
    )
    return RankedResult(
        method, election.scale, election.n_voters, entries,
        tuple(tuple(cands[order[pos]].id for pos in group) for group in groups),
        rejects is not None and rejects(tallies, election.n_voters),
    )


def competition_ranks(tie_keys: Sequence[object]) -> tuple[list[int], list[list[int]]]:
    """Ranks ("1224" style) for an already-sorted sequence.

    ``tie_keys[i]`` identifies the equivalence class of position ``i``; equal
    adjacent keys share a rank.  Returns (ranks, tie groups as position lists,
    size >= 2 only).
    """
    ranks: list[int] = []
    groups: list[list[int]] = []
    current: list[int] = []
    for pos, key in enumerate(tie_keys):
        if pos > 0 and key == tie_keys[pos - 1]:
            ranks.append(ranks[-1])
            current.append(pos)
        else:
            if len(current) > 1:
                groups.append(current)
            current = [pos]
            ranks.append(pos + 1)
    if len(current) > 1:
        groups.append(current)
    return ranks, groups
