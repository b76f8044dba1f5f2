"""Result rendering against the reference renderers.

``render_result`` and ``render_bracket`` build each result's JSON document
once and read the table and the CSV off it.  The reference below renders each
format straight from the result objects, field by field; every format of
every result must match it byte for byte.
"""

import csv
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from gradevote import (
    APPROVAL_SCALE,
    Block,
    Candidate,
    ConfigError,
    GradeScale,
    approval_rank,
    bracket_elect,
    borderline_candidates,
    build_profiles,
    bracket_tree,
    election_from_counts,
    mj3_rank,
    mj_rank,
    parse_result_json,
    render_bracket,
    render_result,
)
from gradevote.ballot_io import REJECTED_BANNER, _table, percent_half_up
from gradevote.bracket import bracket_from_counts
from gradevote.fixtures import FIXTURES

FORMATS = ("table", "json", "csv")


# ---------------------------------------------------------------------------
# reference: one renderer per format, each reading the result objects
# ---------------------------------------------------------------------------

def reference_render_result(result, fmt="table"):
    if fmt == "table":
        return _reference_table(result)
    if fmt == "json":
        return _reference_json(result)
    if fmt == "csv":
        return _reference_csv(result)
    raise ConfigError(f"unknown result format {fmt!r}")


def _extra_columns(result):
    if result.method == "mj":
        return [("majority", lambda e: e.majority_grade or "")]
    if result.method == "mj3":
        return [
            ("score", lambda e: str(e.score)),
            ("tiebreak", lambda e: str(e.tiebreak)),
        ]
    return []


def _reference_table(result):
    headers = ["rank", "candidate", *result.scale.labels]
    extras = _extra_columns(result)
    headers += [name for name, _ in extras]
    rows = [headers]
    double_after = {0}
    for index, entry in enumerate(result.entries):
        rows.append(
            [
                str(entry.rank),
                entry.name,
                *(str(percent_half_up(c, result.n_voters)) for c in entry.counts),
                *(str(fetch(entry)) for _, fetch in extras),
            ]
        )
        nxt = result.entries[index + 1] if index + 1 < len(result.entries) else None
        if nxt is not None and entry.block is not None and nxt.block != entry.block:
            double_after.add(index + 1)
    lines = []
    if result.rejected:
        lines.append(REJECTED_BANNER)
    lines.append(_table(rows, double_after))
    for group in result.tie_groups:
        lines.append("tied: " + " = ".join(group))
    if result.method == "approval3":
        for cid in borderline_candidates(result):
            lines.append(f"borderline: {cid} approved by exactly half the electorate")
    lines.append(f"{result.n_voters} ballots")
    return "\n".join(lines) + "\n"


def _reference_json(result):
    document = {
        "method": result.method,
        "scale": list(result.scale.labels),
        "n_voters": result.n_voters,
        "rejected": result.rejected,
        "entries": [
            {
                "rank": e.rank,
                "candidate": e.candidate,
                "name": e.name,
                "counts": list(e.counts),
                "percent": [percent_half_up(c, result.n_voters) for c in e.counts],
                "block": e.block.value if e.block else None,
                "majority_grade": e.majority_grade,
                "score": e.score,
                "tiebreak": e.tiebreak,
            }
            for e in result.entries
        ],
        "tie_groups": [list(g) for g in result.tie_groups],
    }
    return json.dumps(document, indent=2) + "\n"


def _reference_csv(result):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["rank", "candidate", "name", *result.scale.labels,
         "block", "majority_grade", "score", "tiebreak"]
    )
    for e in result.entries:
        writer.writerow(
            [
                e.rank,
                e.candidate,
                e.name,
                *e.counts,
                e.block.value if e.block else "",
                e.majority_grade or "",
                "" if e.score is None else e.score,
                "" if e.tiebreak is None else e.tiebreak,
            ]
        )
    return out.getvalue()


def reference_render_bracket(result, fmt="table"):
    if fmt == "json":
        document = {
            "method": "bracket",
            "candidates": list(result.candidates),
            "accept": {
                "yes": result.accept_yes,
                "no": result.accept_no,
                "accepted": result.ballot_accepted,
            },
            "trace": [
                {
                    "candidates": list(d.node.candidates),
                    "upper": list(d.node.upper),
                    "lower": list(d.node.lower),
                    "votes_upper": d.votes_upper,
                    "votes_lower": d.votes_lower,
                    "chosen": d.chosen,
                    "tie": d.tie,
                }
                for d in result.elimination_trace
            ],
            "winner": result.winner,
        }
        return json.dumps(document, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["step", "candidates", "votes_upper", "votes_lower", "chosen", "tie"])
        for step, d in enumerate(result.elimination_trace, start=1):
            writer.writerow(
                [
                    step,
                    " ".join(d.node.candidates),
                    d.votes_upper,
                    d.votes_lower,
                    d.chosen,
                    "yes" if d.tie else "no",
                ]
            )
        writer.writerow(["winner", result.winner or "", "", "", "", ""])
        return out.getvalue()
    if fmt != "table":
        raise ConfigError(f"unknown result format {fmt!r}")
    lines = []
    if result.ballot_accepted:
        lines.append(f"ballot accepted ({result.accept_yes} yes, {result.accept_no} no)")
    else:
        lines.append(
            f"ballot rejected ({result.accept_yes} yes, {result.accept_no} no): no winner"
        )
    rows = [["step", "candidates", "upper", "lower", "chosen"]]
    for step, d in enumerate(result.elimination_trace, start=1):
        rows.append(
            [
                str(step),
                " ".join(d.node.candidates),
                str(d.votes_upper),
                str(d.votes_lower),
                d.chosen + (" (tie)" if d.tie else ""),
            ]
        )
    lines.append(_table(rows, {0}))
    if result.winner is not None:
        lines.append(f"winner: {result.winner}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generated results
# ---------------------------------------------------------------------------

RANKERS = {"mj": mj_rank, "mj3": mj3_rank, "approval3": approval_rank}
# names and labels that need quoting in CSV, or that widen a table column
TEXTS = ("Ann", "Bob, Jr.", 'The "Zoo"', "Ünï", "x" * 12, "a b")


def _ranking(method, labels, names, counts):
    scale = APPROVAL_SCALE if method == "approval3" else GradeScale(tuple(labels))
    candidates = [Candidate(f"c{i}", name) for i, name in enumerate(names)]
    return RANKERS[method](election_from_counts(
        scale, candidates, {c.id: row for c, row in zip(candidates, counts)}
    ))


@st.composite
def rankings(draw):
    method = draw(st.sampled_from(sorted(RANKERS)))
    size = draw(st.integers(4, 6)) if method == "mj" else 3
    labels = draw(st.lists(st.sampled_from(TEXTS + ("A", "B", "C")), min_size=size,
                           max_size=size, unique=True))
    k = draw(st.integers(1, 5))
    names = draw(st.lists(st.sampled_from(TEXTS), min_size=k, max_size=k))
    n_voters = draw(st.integers(1, 8))
    counts = []
    for _ in names:
        # small electorates split into few grades give ties and zero counts
        cuts = sorted(draw(st.lists(st.integers(0, n_voters), min_size=size - 1,
                                    max_size=size - 1)))
        bounds = [0, *cuts, n_voters]
        counts.append([b - a for a, b in zip(bounds, bounds[1:])])
    return _ranking(method, labels, names, counts)


# Fixed rankings that between them show every feature of the table.
EDGE_RANKINGS = [
    # all three blocks: strong majority, electable, unelectable
    _ranking("approval3", (), ["Ann", "Bob, Jr.", "Cy"], [[3, 0, 1], [1, 2, 1], [0, 1, 3]]),
    # rejected, with a borderline candidate approved by exactly half
    _ranking("approval3", (), ["Ann", "Bob"], [[1, 1, 2], [0, 1, 3]]),
    # ties and zero counts under each grade method
    _ranking("mj", ("A", "B", "C", "D"), ["Ann", 'The "Zoo"', "Cy"], [[1, 0, 0, 1], [1, 0, 0, 1], [0, 2, 0, 0]]),
    _ranking("mj3", ("+", "0", "-"), ["Ann", "Bob", "Cy"], [[2, 0, 0], [2, 0, 0], [0, 0, 2]]),
]


def test_the_edge_rankings_show_every_table_feature():
    blocks = {e.block for r in EDGE_RANKINGS for e in r.entries}
    assert set(Block) <= blocks
    assert any(r.rejected and borderline_candidates(r) for r in EDGE_RANKINGS)
    assert {r.method for r in EDGE_RANKINGS if r.tie_groups} == {"mj", "mj3"}
    assert all(any(0 in e.counts for e in r.entries) for r in EDGE_RANKINGS)


def _bracket(k, accept_yes, marks):
    candidates = [Candidate(f"c{i}") for i in range(k)]
    kinds = {}
    for kind in marks:
        kinds[kind] = kinds.get(kind, 0) + 1
    return bracket_from_counts(candidates, accept_yes, kinds)


@st.composite
def brackets(draw):
    k = draw(st.integers(2, 7))
    n_nodes = len(bracket_tree([f"c{i}" for i in range(k)]))
    kind = st.tuples(*[st.sampled_from(("upper", "lower"))] * n_nodes)
    marks = draw(st.lists(kind, min_size=1, max_size=6))
    return _bracket(k, draw(st.integers(0, len(marks))), marks)


# ---------------------------------------------------------------------------
# the renderers match the reference
# ---------------------------------------------------------------------------

def _fixture_results():
    for name, make in sorted(FIXTURES.items()):
        fx = make()
        if fx.method == "bracket":
            yield name, render_bracket, reference_render_bracket, bracket_elect(
                fx.candidates, fx.bracket_ballots)
        else:
            yield name, render_result, reference_render_result, RANKERS[fx.method](
                build_profiles(fx.scale, fx.candidates, fx.ballots))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "name,render,reference,result", list(_fixture_results()), ids=sorted(FIXTURES))
def test_every_fixture_renders_as_the_reference(name, render, reference, result, fmt):
    assert render(result, fmt) == reference(result, fmt)


@pytest.mark.parametrize("result", EDGE_RANKINGS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_edge_rankings_render_as_the_reference(result, fmt):
    assert render_result(result, fmt) == reference_render_result(result, fmt)


@settings(max_examples=150, deadline=None)
@given(rankings())
def test_generated_rankings_render_as_the_reference(result):
    for fmt in FORMATS:
        assert render_result(result, fmt) == reference_render_result(result, fmt)
    assert parse_result_json(render_result(result, "json")) == result


@settings(max_examples=150, deadline=None)
@given(brackets())
@example(_bracket(4, 1, [("upper", "lower", "upper"), ("lower", "upper", "lower")]))
@example(_bracket(3, 2, [("upper", "upper"), ("lower", "lower")]))
def test_generated_brackets_render_as_the_reference(result):
    for fmt in FORMATS:
        assert render_bracket(result, fmt) == reference_render_bracket(result, fmt)


def test_the_bracket_examples_cover_a_tie_either_way():
    rejected = _bracket(4, 1, [("upper", "lower", "upper"), ("lower", "upper", "lower")])
    accepted = _bracket(3, 2, [("upper", "upper"), ("lower", "lower")])
    assert not rejected.ballot_accepted and rejected.had_tie
    assert accepted.ballot_accepted and accepted.had_tie
