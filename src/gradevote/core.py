"""Core election types shared by every tallying method.

An election is a grade scale (ordered labels, best first), a registered
candidate list, and a pile of ballots.  A ballot maps candidate ids to grade
labels and may omit candidates; omitted candidates receive the worst grade at
tally time, so voters only ever write down approvals.
"""

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field


class VoteError(Exception):
    """Base class for all tallying errors."""


class ValidationError(VoteError):
    """Ballot data failed validation (unknown grade/candidate, duplicates)."""


class ConfigError(VoteError):
    """Election setup is unusable (bad scale, wrong method/scale pairing)."""


@dataclass(frozen=True)
class GradeScale:
    """An ordered grade scale.  ``labels[0]`` is the best grade, the last the worst."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ConfigError("a grade scale needs at least two grades")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError(f"duplicate grade labels in scale {self.labels!r}")
        if "" in self.labels:
            raise ConfigError(f"empty grade label in scale {self.labels!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def best(self) -> str:
        return self.labels[0]

    @property
    def worst(self) -> str:
        return self.labels[-1]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown grade label {label!r}") from None


@dataclass(frozen=True)
class Candidate:
    """A registered candidate.  ``id`` is the key used on ballots."""

    id: str
    name: str = ""
    party: str | None = None
    profession: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ConfigError("candidate id must be non-empty")
        if not self.name:
            object.__setattr__(self, "name", self.id)


@dataclass(frozen=True)
class Ballot:
    """One voter's graded ballot.

    ``grades`` maps candidate id -> grade label.  Candidates missing from the
    mapping are completed to the worst grade when profiles are built; an empty
    mapping is a valid (blank) ballot that still counts toward the electorate.
    """

    voter_id: str
    grades: Mapping[str, str] = field(default_factory=dict)

    def grade_index(self, candidate_id: str, scale: GradeScale) -> int:
        """The graded (or completed) position of ``candidate_id`` on ``scale``."""
        label = self.grades.get(candidate_id)
        return scale.size - 1 if label is None else scale.index(label)


@dataclass(frozen=True)
class GradeProfile:
    """Per-candidate tally: how many ballots gave each grade (best grade first)."""

    candidate: str
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValidationError(f"negative count in profile for {self.candidate!r}")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ElectionProfile:
    """All per-candidate grade profiles of one election, in registration order."""

    scale: GradeScale
    candidates: tuple[Candidate, ...]
    profiles: tuple[GradeProfile, ...]
    n_voters: int

    def __post_init__(self) -> None:
        ids = [c.id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate candidate ids registered")
        if len(self.profiles) != len(self.candidates):
            raise ValidationError("one grade profile per candidate required")
        for cand, prof in zip(self.candidates, self.profiles):
            if prof.candidate != cand.id:
                raise ValidationError(
                    f"profile order mismatch: {prof.candidate!r} != {cand.id!r}"
                )
            if len(prof.counts) != self.scale.size:
                raise ValidationError(
                    f"profile for {cand.id!r} has {len(prof.counts)} counts "
                    f"for a {self.scale.size}-grade scale"
                )
            if prof.total != self.n_voters:
                raise ValidationError(
                    f"profile for {cand.id!r} totals {prof.total}, "
                    f"expected {self.n_voters} ballots"
                )

    def profile_of(self, candidate_id: str) -> GradeProfile:
        for prof in self.profiles:
            if prof.candidate == candidate_id:
                return prof
        raise ValidationError(f"unknown candidate id {candidate_id!r}")


def build_profiles(
    scale: GradeScale,
    candidates: Sequence[Candidate],
    ballots: Iterable[Ballot],
) -> ElectionProfile:
    """Tally ballots into per-candidate grade profiles.

    Every ballot is completed first: candidates it does not grade count at the
    worst grade.  Raises :class:`ValidationError` for an unknown grade label,
    an unknown candidate id, or a duplicate voter_id.
    """
    candidates = tuple(candidates)
    known = {c.id for c in candidates}
    counts = {c.id: [0] * scale.size for c in candidates}
    seen_voters: set[str] = set()
    n_voters = 0
    for ballot in ballots:
        if ballot.voter_id in seen_voters:
            raise ValidationError(f"duplicate voter_id {ballot.voter_id!r}")
        seen_voters.add(ballot.voter_id)
        n_voters += 1
        for cid, label in ballot.grades.items():
            if cid not in known:
                raise ValidationError(
                    f"ballot {ballot.voter_id!r} grades unknown candidate {cid!r}"
                )
            counts[cid][scale.index(label)] += 1
        for cid in known:
            if cid not in ballot.grades:
                counts[cid][scale.size - 1] += 1
    profiles = tuple(GradeProfile(c.id, tuple(counts[c.id])) for c in candidates)
    return ElectionProfile(scale, candidates, profiles, n_voters)


def election_from_counts(
    scale: GradeScale,
    candidates: Sequence[Candidate],
    counts_by_id: Mapping[str, Sequence[int]],
) -> ElectionProfile:
    """Build an :class:`ElectionProfile` directly from per-candidate counts.

    All candidates must be present and their counts must sum to the same
    number of ballots.
    """
    candidates = tuple(candidates)
    known = {c.id for c in candidates}
    missing = [c.id for c in candidates if c.id not in counts_by_id]
    if missing:
        raise ValidationError(f"missing counts for candidates {missing!r}")
    unknown = [cid for cid in counts_by_id if cid not in known]
    if unknown:
        raise ValidationError(f"counts given for unknown candidates {unknown!r}")
    totals = {cid: sum(counts_by_id[cid]) for cid in counts_by_id}
    distinct = set(totals.values())
    if len(distinct) > 1:
        raise ValidationError(f"candidate totals differ: {sorted(distinct)!r}")
    n_voters = distinct.pop() if distinct else 0
    profiles = tuple(
        GradeProfile(c.id, tuple(counts_by_id[c.id])) for c in candidates
    )
    return ElectionProfile(scale, candidates, profiles, n_voters)
