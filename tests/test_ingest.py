"""Counts-only ballot ingest: ``count_ballots`` against the row-by-row reader.

``count_ballots`` counts a clean long-format CSV column by column and reads
any other input row by row.  Either way it must return exactly what
``build_profiles`` makes of ``parse_ballots``' result, with the same report
and roster, and ``gradevote tally`` must print the same bytes as when it ran
on that reference.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from gradevote import (
    Candidate,
    GradeScale,
    ValidationError,
    build_profiles,
    count_ballots,
    parse_ballots,
)
from gradevote import ballot_io, cli
from gradevote.cli import main
from gradevote.fixtures import FIXTURES


def reference_count(source, scale, candidates=()):
    """The row-by-row path: ``Ballot`` objects first, then their counts."""
    ballots, report, roster = parse_ballots(source, scale, candidates)
    return build_profiles(scale, roster, ballots), report, roster


def _outcome(count, text, scale, candidates):
    try:
        return count(io.StringIO(text), scale, candidates)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


# ---------------------------------------------------------------------------
# generated long-format CSV, clean and dirty
# ---------------------------------------------------------------------------

LABELS = ("top", "good", "fair", "poor", "bottom")
# ids that need quoting on the wire ride along with plain ones
VOTERS = ("v1", "v2", "v3", "v,4", "v\n5", "v 6")
CANDIDATES = ("a", "b", "c", "d,e", "f\ng")
PADS = ("", "", " ", "\t", "  ")
DIRT = ("blank", "spaces", "ragged", "grade", "candidate", "duplicate",
        "voter", "empty candidate")


def _cell(draw, value):
    pad = draw(st.sampled_from(PADS)), draw(st.sampled_from(PADS))
    value = pad[0] + value + pad[1]
    if any(ch in value for ch in ',"\r\n') or draw(st.booleans()):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def elections(draw):
    """``(text, scale, candidates, clean)``: a long-format CSV, the scale and
    registered roster to read it with, and whether every row is valid."""
    scale = GradeScale(LABELS[:draw(st.integers(2, 5))])
    registered = draw(st.booleans())
    ids = draw(st.lists(st.sampled_from(CANDIDATES), min_size=1, max_size=4, unique=True))
    candidates = tuple(Candidate(cid) for cid in ids) if registered else ()
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(VOTERS), st.sampled_from(ids)),
        min_size=1, max_size=12, unique=True,
    ))
    rows = [[voter, cid, draw(st.sampled_from(scale.labels))] for voter, cid in pairs]
    dirt = draw(st.lists(st.sampled_from(DIRT), max_size=2, unique=True))
    lines = []
    for kind in dirt:
        at = draw(st.integers(0, len(rows)))
        if kind == "blank":  # before a row: a last blank line is only a line end
            lines.append((min(at, len(rows) - 1), ""))
        elif kind == "spaces":
            lines.append((at, draw(st.sampled_from([" ", " , , ", "\t,"]))))
        elif kind == "ragged":
            lines.append((at, draw(st.sampled_from(["v1,a", "v1,a,top,x", "v9"]))))
        elif kind == "grade":
            rows.insert(at, ["v1", ids[0], "bogus"])
        elif kind == "candidate":
            rows.insert(at, ["v2", "zz", scale.labels[0]])
        elif kind == "duplicate":
            rows.insert(at, list(rows[draw(st.integers(0, len(rows) - 1))]))
        elif kind == "voter":
            rows.insert(at, ["", ids[0], scale.labels[0]])
        else:
            rows.insert(at, ["v3", "", scale.labels[0]])
    body = [",".join(_cell(draw, value) for value in row) for row in rows]
    for at, line in sorted(lines, reverse=True):
        body.insert(at, line)
    header = draw(st.sampled_from(["voter_id,candidate,grade"] * 3
                                  + [" voter_id , candidate,grade"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + end.join([header, *body]) + draw(st.sampled_from([end, ""]))
    # a row naming a new candidate is valid when the roster is inferred
    harmless = set() if registered else {"candidate"}
    return text, scale, candidates, set(dirt) <= harmless


@settings(max_examples=400, deadline=None, derandomize=True)
@given(elections())
def test_count_ballots_matches_the_row_by_row_reader(case):
    text, scale, candidates, clean = case
    got = _outcome(count_ballots, text, scale, candidates)
    assert got == _outcome(reference_count, text, scale, candidates)
    counted = ballot_io._count_clean_csv(text.removeprefix("\ufeff"), scale, candidates)
    assert (counted is not None) == clean


@pytest.mark.parametrize("text", [
    "",
    "\n\n",
    "voter_id,candidate,grade\n",
    "voter_id,candidate,grade\n\n \n",
    "voter,grade\nv1,top\n",
    "[]",
    '[{"voter_id": "v1", "grades": {"a": "top"}}, {"voter_id": "v2", "grades": {}}]',
    '[{"voter_id": "v1", "grades": {"a": "nope"}}, {"voter_id": "v1"}, 3]',
    "{}",
])
@pytest.mark.parametrize("candidates", [(), (Candidate("a"), Candidate("b"))])
def test_count_ballots_matches_on_empty_json_and_malformed_input(text, candidates):
    scale = GradeScale(LABELS[:3])
    got = _outcome(count_ballots, text, scale, candidates)
    assert got == _outcome(reference_count, text, scale, candidates)


def test_count_ballots_completes_ungraded_candidates_to_the_worst_grade():
    text = "voter_id,candidate,grade\nv1,a,top\nv2,b,fair\nv2,a,fair\n"
    scale = GradeScale(LABELS[:3])
    election, report, roster = count_ballots(
        io.StringIO(text), scale, (Candidate("a"), Candidate("b"), Candidate("c"))
    )
    assert [p.counts for p in election.profiles] == [(1, 0, 1), (0, 0, 2), (0, 0, 2)]
    assert (report.n_rows, report.n_ballots, report.ok) == (3, 2, True)
    assert [c.id for c in roster] == ["a", "b", "c"]


def test_a_clean_file_never_builds_ballots(tmp_path, monkeypatch, capsys):
    assert main(["demo", "smalltown", "--outdir", str(tmp_path)]) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("the row-by-row path ran on a clean file")

    monkeypatch.setattr(ballot_io, "_parse_ballots_csv", refuse)
    monkeypatch.setattr(ballot_io, "build_profiles", refuse)
    monkeypatch.setattr(cli, "build_profiles", refuse)
    rc = main(["tally", "--config", str(tmp_path / "smalltown.config.json"),
               "--ballots", str(tmp_path / "smalltown.ballots.csv")])
    assert (rc, capsys.readouterr().out) == (0, expected)


# ---------------------------------------------------------------------------
# gradevote tally prints the same bytes on either path
# ---------------------------------------------------------------------------

def _tally(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _same_as_reference(argv, monkeypatch, capsys):
    got = _tally(argv, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "count_ballots", reference_count)
        assert _tally(argv, capsys) == got
    return got


@pytest.mark.parametrize("name", list(FIXTURES))
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_tally_output_is_unchanged_on_every_fixture(name, fmt, tmp_path, monkeypatch, capsys):
    assert main(["demo", name, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    suffix = "json" if FIXTURES[name]().method == "bracket" else "csv"
    argv = ["tally", "--config", str(tmp_path / f"{name}.config.json"),
            "--ballots", str(tmp_path / f"{name}.ballots.{suffix}"), "--format", fmt]
    assert _same_as_reference(argv, monkeypatch, capsys)[0] == 0


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_tally_output_is_unchanged_with_rejected_rows(fmt, tmp_path, monkeypatch, capsys):
    assert main(["demo", "school", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    ballots = tmp_path / "school.ballots.csv"
    with open(ballots, "a", encoding="utf-8") as fh:
        fh.write("x01,zoo,Terrific\n\nx02,nowhere,Nice\nx03,zoo\ne01,zoo,Nice\n")
    argv = ["tally", "--config", str(tmp_path / "school.config.json"),
            "--ballots", str(ballots), "--format", fmt]
    rc, _, err = _same_as_reference(argv, monkeypatch, capsys)
    assert rc == 1
    assert err.count("(row rejected)") == 4
