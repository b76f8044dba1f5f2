"""Profile building and validation."""

import pytest
from hypothesis import given, strategies as st

from gradevote import (
    Ballot,
    Candidate,
    ConfigError,
    GradeProfile,
    GradeScale,
    ValidationError,
    build_profiles,
    election_from_counts,
)
from gradevote.fixtures import school_outing

THREE = GradeScale(("good", "ok", "bad"))


def test_school_outing_counts():
    fx = school_outing()
    election = build_profiles(fx.scale, fx.candidates, fx.ballots)
    assert election.n_voters == 21
    assert election.profile_of("high-ropes").counts == (10, 0, 11, 0)
    assert election.profile_of("zoo").counts == (0, 11, 0, 10)


def test_empty_election_is_all_zero():
    election = build_profiles(THREE, [Candidate("a"), Candidate("b")], [])
    assert election.n_voters == 0
    assert election.profile_of("a").counts == (0, 0, 0)
    assert election.profile_of("b").counts == (0, 0, 0)


def test_omitted_candidate_counts_at_worst_grade():
    # hand tally: v2 does not grade x, so x gets one completed "bad"
    candidates = [Candidate("x"), Candidate("y")]
    ballots = [
        Ballot("v1", {"x": "good", "y": "ok"}),
        Ballot("v2", {"y": "good"}),
        Ballot("v3", {"x": "ok", "y": "bad"}),
    ]
    election = build_profiles(THREE, candidates, ballots)
    assert election.profile_of("x").counts == (1, 1, 1)
    assert election.profile_of("y").counts == (1, 1, 1)


def test_blank_ballot_counts_worst_everywhere():
    election = build_profiles(
        THREE, [Candidate("a"), Candidate("b")], [Ballot("v1", {})]
    )
    assert election.profile_of("a").counts == (0, 0, 1)
    assert election.profile_of("b").counts == (0, 0, 1)


def test_unknown_grade_rejected():
    with pytest.raises(ValidationError, match="unknown grade"):
        build_profiles(THREE, [Candidate("a")], [Ballot("v1", {"a": "great"})])


def test_unknown_candidate_rejected():
    with pytest.raises(ValidationError, match="unknown candidate"):
        build_profiles(THREE, [Candidate("a")], [Ballot("v1", {"b": "good"})])


def test_duplicate_voter_rejected():
    ballots = [Ballot("v1", {"a": "good"}), Ballot("v1", {"a": "bad"})]
    with pytest.raises(ValidationError, match="duplicate voter_id"):
        build_profiles(THREE, [Candidate("a")], ballots)


def test_duplicate_candidate_registration_rejected():
    with pytest.raises(ConfigError, match="duplicate candidate"):
        build_profiles(THREE, [Candidate("a"), Candidate("a")], [])


def test_scale_needs_two_distinct_grades():
    with pytest.raises(ConfigError):
        GradeScale(("solo",))
    with pytest.raises(ConfigError):
        GradeScale(("a", "a"))
    with pytest.raises(ConfigError, match="empty grade label"):
        GradeScale(("good", "", "bad"))


def test_scale_lookup():
    assert THREE.index("ok") == 1
    assert THREE.best == "good"
    assert THREE.worst == "bad"
    with pytest.raises(ValidationError):
        THREE.index("meh")


def test_candidate_display_name_defaults_to_id():
    assert Candidate("x").name == "x"
    assert Candidate("x", "Xavier").name == "Xavier"


def test_election_from_counts_checks_totals():
    candidates = [Candidate("a"), Candidate("b")]
    election = election_from_counts(
        THREE, candidates, {"a": (2, 1, 0), "b": (0, 1, 2)}
    )
    assert election.n_voters == 3
    with pytest.raises(ValidationError, match="totals differ"):
        election_from_counts(THREE, candidates, {"a": (2, 1, 0), "b": (0, 1, 0)})
    with pytest.raises(ValidationError, match="missing counts"):
        election_from_counts(THREE, candidates, {"a": (2, 1, 0)})
    with pytest.raises(ValidationError, match="unknown candidates"):
        election_from_counts(
            THREE, [Candidate("a")], {"a": (1, 0, 0), "zz": (1, 0, 0)}
        )


class _Count:
    """An int-like that is not an int, as a NumPy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_profile_counts_must_be_integers():
    profile = GradeProfile("a", (_Count(2), 1, _Count(0)))
    assert profile.counts == (2, 1, 0) and set(map(type, profile.counts)) == {int}
    for counts in ((1.9, 2, 1), (1, "2", 1), (True, 1, 0), (2.0, 1.0, 0.0)):
        with pytest.raises(ValidationError, match="must be integers"):
            GradeProfile("a", counts)
    # counts are never rounded into a float number of voters
    with pytest.raises(ValidationError, match="must be integers"):
        election_from_counts(THREE, [Candidate("a")], {"a": (2.0, 1.0, 0.0)})
    election = election_from_counts(THREE, [Candidate("a")], {"a": (_Count(2), 1, 0)})
    assert type(election.n_voters) is int and election.n_voters == 3


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

candidate_ids = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True
)


@st.composite
def elections(draw):
    ids = draw(candidate_ids)
    n_voters = draw(st.integers(0, 8))
    ballots = []
    for v in range(n_voters):
        graded = draw(st.lists(st.sampled_from(ids), unique=True))
        grades = {cid: draw(st.sampled_from(THREE.labels)) for cid in graded}
        ballots.append(Ballot(f"v{v}", grades))
    return ids, ballots


@given(elections(), st.randoms())
def test_ballot_order_never_matters(data, rng):
    ids, ballots = data
    candidates = [Candidate(i) for i in ids]
    shuffled = list(ballots)
    rng.shuffle(shuffled)
    a = build_profiles(THREE, candidates, ballots)
    b = build_profiles(THREE, candidates, shuffled)
    assert a == b


@given(elections())
def test_counts_cover_every_ballot(data):
    ids, ballots = data
    election = build_profiles(THREE, [Candidate(i) for i in ids], ballots)
    for profile in election.profiles:
        assert profile.total == len(ballots)
        assert all(c >= 0 for c in profile.counts)


@given(elections(), st.sampled_from(THREE.labels))
def test_one_more_ballot_increments_one_count_per_candidate(data, grade):
    ids, ballots = data
    candidates = [Candidate(i) for i in ids]
    before = build_profiles(THREE, candidates, ballots)
    extra = Ballot("extra", {ids[0]: grade})
    after = build_profiles(THREE, candidates, ballots + [extra])
    assert after.n_voters == before.n_voters + 1
    for cid in ids:
        diff = [
            a - b
            for a, b in zip(after.profile_of(cid).counts, before.profile_of(cid).counts)
        ]
        assert sorted(diff) == [0] * (THREE.size - 1) + [1]
        expected = THREE.index(grade) if cid == ids[0] else THREE.size - 1
        assert diff[expected] == 1
