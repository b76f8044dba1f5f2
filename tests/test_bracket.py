"""Single-round halving-bracket election."""

import io
import json
import math
import sys
from collections.abc import Sequence
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from gradevote import (
    BracketBallot,
    BracketResult,
    Candidate,
    NodeDecision,
    ValidationError,
    VoteError,
    bracket,
    bracket_elect,
    bracket_tree,
    cli,
    parse_bracket_ballots,
    sincere_ballot,
)
from gradevote.ballot_io import count_bracket_ballots
from gradevote.bracket import LOWER, UPPER, bracket_from_counts
from gradevote.cli import main
from gradevote.fixtures import bracket_bias, bracket_preference_orders

SEVEN = [Candidate(f"c{i}") for i in range(1, 8)]


def _ballot(voter_id, accept, marks):
    return BracketBallot(
        voter_id, accept, tuple(UPPER if m == "U" else LOWER for m in marks)
    )


# ---------------------------------------------------------------------------
# tree shape
# ---------------------------------------------------------------------------

def test_seven_candidate_tree_spans():
    nodes = bracket_tree([c.id for c in SEVEN])
    spans = [node.candidates for node in nodes]
    assert spans == [
        ("c1", "c2", "c3", "c4", "c5", "c6", "c7"),
        ("c1", "c2", "c3", "c4"),
        ("c1", "c2"),
        ("c3", "c4"),
        ("c5", "c6", "c7"),
        ("c5", "c6"),
    ]
    root = nodes[0]
    assert root.upper == ("c1", "c2", "c3", "c4")
    assert root.lower == ("c5", "c6", "c7")
    odd = nodes[4]
    assert odd.upper == ("c5", "c6")  # upper half takes the extra name
    assert odd.lower == ("c7",)


@given(st.integers(2, 33))
def test_tree_always_has_one_node_per_elimination(k):
    ids = [f"c{i}" for i in range(k)]
    nodes = bracket_tree(ids)
    assert len(nodes) == k - 1
    for node in nodes:
        assert node.upper + node.lower == node.candidates
        assert len(node.upper) == math.ceil(len(node.candidates) / 2)


def test_tree_needs_two_candidates():
    with pytest.raises(VoteError):
        bracket_tree(["solo"])


def test_ballot_has_one_mark_per_candidate():
    ballot = _ballot("v1", True, "UUUUUU")
    assert ballot.n_marks == len(SEVEN)


# ---------------------------------------------------------------------------
# elections
# ---------------------------------------------------------------------------

def test_unanimous_upper_elects_first_candidate():
    ballots = [_ballot(f"v{i}", True, "UUUUUU") for i in range(3)]
    result = bracket_elect(SEVEN, ballots)
    assert result.ballot_accepted
    assert (result.accept_yes, result.accept_no) == (3, 0)
    assert result.winner == "c1"
    assert len(result.elimination_trace) == 3
    assert all(d.votes_upper == 3 and d.votes_lower == 0 for d in result.elimination_trace)
    assert not result.had_tie


def test_unanimous_lower_winner_sits_at_a_shallow_leaf():
    ballots = [_ballot(f"v{i}", True, "LLLLLL") for i in range(3)]
    result = bracket_elect(SEVEN, ballots)
    assert result.winner == "c7"
    assert len(result.elimination_trace) == 2  # c7 is alone after two halvings


def test_mixed_five_voter_election():
    ballots = [
        _ballot("v1", True, "UULUUU"),
        _ballot("v2", True, "LULLUL"),
        _ballot("v3", True, "ULLULU"),
        _ballot("v4", False, "UUUUUU"),
        _ballot("v5", True, "LLLLLU"),
    ]
    result = bracket_elect(SEVEN, ballots)
    assert result.ballot_accepted
    assert (result.accept_yes, result.accept_no) == (4, 1)
    assert result.winner == "c2"
    votes = [(d.votes_upper, d.votes_lower, d.chosen) for d in result.elimination_trace]
    assert votes == [(3, 2, UPPER), (3, 2, UPPER), (1, 4, LOWER)]
    # the rejecting voter's half marks were tallied like everyone else's
    assert result.elimination_trace[2].votes_upper == 1  # only v4 marked upper

    # independent replay: recount every winning-path node by hand
    span_to_index = {
        ("c1", "c2", "c3", "c4", "c5", "c6", "c7"): 0,
        ("c1", "c2", "c3", "c4"): 1,
        ("c1", "c2"): 2,
        ("c3", "c4"): 3,
        ("c5", "c6", "c7"): 4,
        ("c5", "c6"): 5,
    }
    for decision in result.elimination_trace:
        index = span_to_index[decision.node.candidates]
        upper = sum(1 for b in ballots if b.half_choices[index] == UPPER)
        assert decision.votes_upper == upper
        assert decision.votes_lower == len(ballots) - upper
        expected = UPPER if upper >= len(ballots) - upper else LOWER
        assert decision.chosen == expected


def test_rejected_ballot_elects_nobody_but_keeps_the_trace():
    ballots = [
        _ballot("v1", True, "UUUUUU"),
        _ballot("v2", True, "UUUUUU"),
        _ballot("v3", False, "LLLLLL"),
        _ballot("v4", False, "LLLLLL"),
    ]
    result = bracket_elect(SEVEN, ballots)  # 2 of 4 is not a strict majority
    assert not result.ballot_accepted
    assert result.winner is None
    assert len(result.elimination_trace) == 3
    assert result.elimination_trace[0].tie


def test_node_tie_keeps_upper_half_and_is_flagged():
    two = [Candidate("a"), Candidate("b")]
    ballots = [
        BracketBallot("v1", True, (UPPER,)),
        BracketBallot("v2", True, (LOWER,)),
    ]
    result = bracket_elect(two, ballots)
    assert result.ballot_accepted
    assert result.winner == "a"
    decision = result.elimination_trace[0]
    assert decision.tie
    assert decision.chosen == UPPER
    assert decision.surviving == ("a",)
    assert decision.eliminated == ("b",)
    assert result.had_tie


def test_ballot_validation():
    with pytest.raises(ValidationError, match="invalid half marks"):
        BracketBallot("v1", True, ("upper", "sideways"))
    with pytest.raises(ValidationError, match="marks 5 nodes"):
        bracket_elect(SEVEN, [_ballot("v1", True, "UUUUU")])
    with pytest.raises(ValidationError, match="duplicate voter_id"):
        bracket_elect(
            SEVEN, [_ballot("v1", True, "UUUUUU"), _ballot("v1", True, "LLLLLL")]
        )
    with pytest.raises(VoteError):
        bracket_elect(SEVEN, [])


# ---------------------------------------------------------------------------
# sincere ballots from full rankings
# ---------------------------------------------------------------------------

def test_sincere_ballot_marks_follow_the_favourite():
    order = ("c5", "c6", "c7", "c1", "c2", "c3", "c4")
    ballot = sincere_ballot("v4", order, SEVEN)
    assert ballot.half_choices == (LOWER, UPPER, UPPER, UPPER, UPPER, UPPER)


def test_sincere_ballot_requires_a_full_ranking():
    with pytest.raises(ValidationError):
        sincere_ballot("v1", ("c1", "c2"), SEVEN)
    with pytest.raises(ValidationError):
        sincere_ballot("v1", ("c1",) * 7, SEVEN)


@given(st.permutations([c.id for c in SEVEN]))
def test_sincere_unanimity_elects_the_shared_favourite(order):
    ballots = [sincere_ballot(f"v{i}", order, SEVEN) for i in range(3)]
    result = bracket_elect(SEVEN, ballots)
    assert result.winner == order[0]


@given(st.permutations([c.id for c in SEVEN]))
def test_winning_path_is_logarithmic(order):
    ballots = [sincere_ballot(f"v{i}", order, SEVEN) for i in range(3)]
    result = bracket_elect(SEVEN, ballots)
    assert len(result.elimination_trace) <= math.ceil(math.log2(len(SEVEN)))


# ---------------------------------------------------------------------------
# the bracket can bury a candidate who wins every head-to-head comparison
# ---------------------------------------------------------------------------

def _pairwise_beats_all(orders, target):
    ids = set(orders[0])
    for other in ids - {target}:
        prefer = sum(
            1 for order in orders if order.index(target) < order.index(other)
        )
        if 2 * prefer <= len(orders):
            return False
    return True


def test_bias_fixture_eliminates_the_head_to_head_champion_first():
    fx = bracket_bias()
    orders = [order for _voter, order in bracket_preference_orders()]
    assert _pairwise_beats_all(orders, "c5")  # c5 wins every pairing 4 to 1
    assert not _pairwise_beats_all(orders, "c1")

    result = bracket_elect(fx.candidates, fx.bracket_ballots)
    assert result.ballot_accepted
    assert (result.accept_yes, result.accept_no) == (5, 0)
    assert result.winner == "c1"
    first = result.elimination_trace[0]
    assert "c5" in first.eliminated  # champion gone at the very first split
    votes = [(d.votes_upper, d.votes_lower) for d in result.elimination_trace]
    assert votes == [(3, 2), (4, 1), (3, 2)]


# ---------------------------------------------------------------------------
# one outcome body: bracket_elect counts, bracket_from_counts decides
# ---------------------------------------------------------------------------

def _bracket_elect_reference(
    candidates: Sequence[Candidate], ballots: Sequence[BracketBallot]
) -> BracketResult:
    """``bracket_elect`` as it was before it counted first: every node vote
    summed over the ballots, kept as the reference."""
    ids = tuple(c.id for c in candidates)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate candidate ids registered")
    nodes = bracket_tree(ids)
    if not ballots:
        raise VoteError("cannot run a bracket election without ballots")
    seen: set[str] = set()
    for ballot in ballots:
        if ballot.voter_id in seen:
            raise ValidationError(f"duplicate voter_id {ballot.voter_id!r}")
        seen.add(ballot.voter_id)
        if len(ballot.half_choices) != len(nodes):
            raise ValidationError(
                f"ballot {ballot.voter_id!r} marks {len(ballot.half_choices)} nodes, "
                f"expected {len(nodes)}"
            )

    accept_yes = sum(1 for b in ballots if b.accept)
    accept_no = len(ballots) - accept_yes
    accepted = 2 * accept_yes > len(ballots)

    node_index = {node.candidates: i for i, node in enumerate(nodes)}
    trace: list[NodeDecision] = []
    span = ids
    while len(span) >= 2:
        node = nodes[node_index[span]]
        votes_upper = sum(
            1 for b in ballots if b.half_choices[node_index[span]] == UPPER
        )
        votes_lower = len(ballots) - votes_upper
        tie = votes_upper == votes_lower
        chosen = UPPER if votes_upper >= votes_lower else LOWER
        trace.append(NodeDecision(node, votes_upper, votes_lower, chosen, tie))
        span = node.upper if chosen == UPPER else node.lower

    return BracketResult(
        candidates=ids,
        accept_yes=accept_yes,
        accept_no=accept_no,
        ballot_accepted=accepted,
        elimination_trace=tuple(trace),
        winner=span[0] if accepted else None,
    )


def _outcome(run, *args):
    try:
        return run(*args)
    except VoteError as exc:
        return type(exc).__name__, str(exc)


VOTERS = [f"v{i}" for i in range(1, 7)]


@st.composite
def ballot_lists(draw):
    """``(candidates, ballots)``: mostly valid, with repeated voters, wrong
    lengths, repeated candidate ids and empty lists now and then."""
    k = draw(st.integers(1, 6))
    ids = [f"c{i}" for i in range(k)] + draw(st.sampled_from([[], [], [], ["c0"]]))
    n_nodes = max(k - 1, 0) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    ballots = [
        BracketBallot(voter, draw(st.booleans()),
                      tuple(draw(st.lists(st.sampled_from([UPPER, LOWER]),
                                          min_size=max(n_nodes, 0), max_size=max(n_nodes, 0)))))
        for voter in draw(st.lists(st.sampled_from(VOTERS), max_size=7,
                                   unique=draw(st.booleans())))
    ]
    return [Candidate(cid) for cid in ids], ballots


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ballot_lists())
def test_bracket_elect_matches_the_reference(case):
    assert _outcome(bracket_elect, *case) == _outcome(_bracket_elect_reference, *case)


def test_bracket_from_counts_decides_from_counts_alone():
    u, l = UPPER, LOWER
    kinds = {(u, u, u, l, l, l): 1, (u, l, l, u, l, l): 2, (l, l, u, l, l, u): 2}
    result = bracket_from_counts(SEVEN, 3, kinds)
    assert (result.accept_yes, result.accept_no, result.ballot_accepted) == (3, 2, True)
    assert [(d.votes_upper, d.votes_lower, d.chosen) for d in result.elimination_trace] \
        == [(3, 2, UPPER), (1, 4, LOWER), (2, 3, LOWER)]
    assert result.winner == "c4"


def test_bracket_from_counts_tallies_only_the_winning_path():
    class Marks(tuple):
        read: set[int] = set()

        def __getitem__(self, i):
            Marks.read.add(i)
            return super().__getitem__(i)

    result = bracket_from_counts(SEVEN, 1, {Marks((UPPER,) * 6): 1})
    assert result.winner == "c1"
    assert Marks.read == {0, 1, 2}  # root, then c1-c4, then c1-c2


def test_bracket_from_counts_refuses_counts_that_cannot_be():
    with pytest.raises(VoteError, match="without ballots"):
        bracket_from_counts(SEVEN, 0, {})
    with pytest.raises(ValidationError, match="must mark 6 nodes"):
        bracket_from_counts(SEVEN, 1, {(UPPER,) * 6: 2, (UPPER,) * 5: 1})
    for accept_yes in (4, -1):
        with pytest.raises(ValidationError, match="between 0 and 3"):
            bracket_from_counts(SEVEN, accept_yes, {(UPPER,) * 6: 3})
    with pytest.raises(ValidationError, match="duplicate candidate ids"):
        bracket_from_counts([Candidate("a"), Candidate("a")], 1, {(UPPER,): 1})


# ---------------------------------------------------------------------------
# bracket documents: counted from their columns, or read entry by entry
# ---------------------------------------------------------------------------

#: entries that each keep a document off the counted path; the dict ones are
#: merged over a valid entry, so that only the named key is wrong (a bad mark
#: sits in a list of the length a three-candidate bracket needs)
DIRTY_ENTRIES = {
    "not an object": (3, "v1", None, []),
    "voter missing": ({"voter_id": ...},),
    "voter not a string": ({"voter_id": 1}, {"voter_id": None}),
    "accept missing": ({"accept": ...},),
    "accept not a boolean": ({"accept": 1}, {"accept": 0}, {"accept": "true"},
                             {"accept": None}),
    "choices missing": ({"choices": ...},),
    "choices not a list": ({"choices": "upper"}, {"choices": {"upper": 1}},
                           {"choices": {"upper": 1, "lower": 0}}, {"choices": None}),
    "bad mark": ({"choices": ["sideways", UPPER]}, {"choices": [LOWER, 1]},
                 {"choices": [True, UPPER]}, {"choices": [None, None]}),
    "unhashable mark": ({"choices": [["upper"]]}, {"choices": [{"upper": 1}]}),
    "too few marks": ({"choices": []},),
    "too many marks": ({"choices": ["upper"] * 7},),
}
CLEAN_EXTRAS = ({}, {}, {"note": "ignored"})


@st.composite
def bracket_documents(draw):
    """``(text, candidates, dirt)``: a bracket ballot document, clean when
    ``dirt`` is empty, else with each kind of dirt named."""
    k = draw(st.integers(2, 5))
    marks = st.lists(st.sampled_from([UPPER, LOWER]), min_size=k - 1, max_size=k - 1)
    entries = [
        {"voter_id": voter, "accept": draw(st.booleans()), "choices": draw(marks),
         **draw(st.sampled_from(CLEAN_EXTRAS))}
        for voter in draw(st.lists(st.sampled_from(VOTERS), max_size=6, unique=True))
    ]
    dirt = draw(st.lists(st.sampled_from([*DIRTY_ENTRIES, "repeated voter"]),
                         max_size=2, unique=True))
    for kind in dirt:
        base = {"voter_id": draw(st.sampled_from(["w1", "w2"])), "accept": True,
                "choices": [UPPER] * (k - 1)}
        if kind == "repeated voter" and entries:
            entry = {**base, "voter_id": draw(st.sampled_from(entries))["voter_id"]}
        elif kind == "repeated voter":
            entry = [base, base]
        else:
            bad = draw(st.sampled_from(DIRTY_ENTRIES[kind]))
            entry = bad if not isinstance(bad, dict) else {
                key: value for key, value in {**base, **bad}.items() if value is not ...}
        entries[draw(st.integers(0, len(entries))):0] = (
            entry if kind == "repeated voter" and not entries else [entry])
    return json.dumps(entries), [Candidate(f"c{i}") for i in range(k)], dirt


def _counted(text, candidates):
    counts, report = count_bracket_ballots(io.StringIO(text), candidates)
    return _outcome(bracket_from_counts, candidates, *counts), report


def _read_entry_by_entry(text, candidates):
    ballots, report = parse_bracket_ballots(io.StringIO(text), candidates)
    return _outcome(_bracket_elect_reference, candidates, ballots), report


def _ballots_in_place_of_counts(source, candidates):
    ballots, report = parse_bracket_ballots(source, candidates)
    return (ballots,), report


def _cli_tally(config, text, old_path=False):
    """Exit code, stdout and stderr of ``gradevote tally`` with ``text`` on
    stdin; ``old_path`` runs it as it ran before the counted reader: the
    per-entry reader, then the reference election on its ballots."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.StringIO(text))
        if old_path:
            patch.setattr(cli, "count_bracket_ballots", _ballots_in_place_of_counts)
            patch.setattr(bracket, "bracket_from_counts", _bracket_elect_reference)
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["tally", "--config", config, "--ballots", "-"])
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def bracket_configs(tmp_path_factory):
    """A bracket config path for each candidate count the documents use."""
    root = tmp_path_factory.mktemp("bracket")
    paths = {}
    for k in range(2, 6):
        paths[k] = str(root / f"bracket{k}.json")
        with open(paths[k], "w", encoding="utf-8") as fh:
            json.dump({"method": "bracket",
                       "candidates": [{"id": f"c{i}"} for i in range(k)]}, fh)
    return paths


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=bracket_documents())
def test_counted_bracket_documents_match_the_entry_reader(case, bracket_configs):
    text, candidates, dirt = case
    expected = _read_entry_by_entry(text, candidates)
    assert _counted(text, candidates) == expected
    config = bracket_configs[len(candidates)]
    assert _cli_tally(config, text) == _cli_tally(config, text, old_path=True)
    if not dirt and text != "[]":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bracket, "BracketBallot", None)  # the columns are counted
            assert _counted(text, candidates) == expected


def _each_dirty_entry():
    base = {"voter_id": "w1", "accept": True, "choices": [UPPER, LOWER]}
    for kind, entries in DIRTY_ENTRIES.items():
        for bad in entries:
            yield kind, bad if not isinstance(bad, dict) else {
                key: value for key, value in {**base, **bad}.items() if value is not ...}
    yield "repeated voter", {**base, "voter_id": "v1"}


@pytest.mark.parametrize("kind, entry", list(_each_dirty_entry()))
def test_each_dirty_entry_alone_matches_the_entry_reader(kind, entry, bracket_configs):
    candidates = [Candidate(f"c{i}") for i in range(3)]
    clean = [{"voter_id": voter, "accept": accept, "choices": marks}
             for voter, accept, marks in (("v1", True, [UPPER, UPPER]),
                                          ("v2", False, [LOWER, UPPER]))]
    text = json.dumps([clean[0], entry, clean[1]])
    assert _counted(text, candidates) == _read_entry_by_entry(text, candidates)
    assert _cli_tally(bracket_configs[3], text) == _cli_tally(
        bracket_configs[3], text, old_path=True)


def test_an_empty_voter_id_is_rejected_by_both_bracket_readers():
    # the columns never prove such a document clean, so both readers give
    # the same report, as a CSV row with an empty voter_id is rejected
    candidates = [Candidate("c0"), Candidate("c1")]
    text = json.dumps([{"voter_id": "", "accept": True, "choices": [UPPER]},
                       {"voter_id": "v1", "accept": False, "choices": [LOWER]}])
    counted = _counted(text, candidates)
    assert counted == _read_entry_by_entry(text, candidates)
    report = counted[1]
    assert [(i.row, i.voter, i.reason) for i in report.issues] == [(1, None, "empty voter_id")]
    assert (report.n_rows, report.n_ballots) == (2, 1)


@pytest.mark.parametrize("text", ["[]", "{}", "[", "3", '[{"voter_id": "v1"}]'])
def test_fixed_bracket_documents_match_the_entry_reader(text, bracket_configs):
    candidates = [Candidate("c0"), Candidate("c1")]
    config = bracket_configs[2]
    assert _cli_tally(config, text) == _cli_tally(config, text, old_path=True)
    if text in ("{}", "[", "3"):
        with pytest.raises(ValidationError):
            count_bracket_ballots(io.StringIO(text), candidates)
    else:
        assert _counted(text, candidates) == _read_entry_by_entry(text, candidates)


def test_an_empty_bracket_document_is_still_a_vote_error(bracket_configs):
    (counts, report) = count_bracket_ballots(io.StringIO("[]"), SEVEN)
    assert (counts, report.notes) == ((0, {}), ["empty input: no ballots"])
    with pytest.raises(VoteError, match="cannot run a bracket election without ballots"):
        bracket_from_counts(SEVEN, *counts)
    assert _cli_tally(bracket_configs[2], "[]") == (
        1, "", "note: empty input: no ballots\n"
        "error: cannot run a bracket election without ballots\n")
