"""One CSV reader: ``parse_ballots`` and ``count_ballots`` against the
row-by-row reference.

Both public readers take the columns of one column-wise pass over a CSV file.
On any input they must return what the row-by-row reader below (the reader
they replaced, kept verbatim) makes of it: the same ballots, or the counts
``build_profiles`` makes of them, with the same report, issue order and
roster, and ``gradevote tally`` must print the same bytes as when it ran on
that reference.
"""

import csv
import io
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from gradevote import (
    Ballot,
    Candidate,
    GradeScale,
    ValidationError,
    build_profiles,
    count_ballots,
    parse_ballots,
)
from gradevote import ballot_io, cli
from gradevote.ballot_io import (
    BALLOT_CSV_HEADER,
    ParseIssue,
    ParseReport,
    _flag_blank_ballots,
)
from gradevote.cli import main
from gradevote.fixtures import FIXTURES


# ---------------------------------------------------------------------------
# the row-by-row reference
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list[list[str]]:
    try:
        return list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValidationError(f"ballots are not valid CSV: {exc}") from None


def _parse_ballots_csv(
    rows: list[list[str]], scale: GradeScale, candidates: Sequence[Candidate]
) -> tuple[list[Ballot], ParseReport, tuple[Candidate, ...]]:
    report = ParseReport()
    if not rows:
        report.notes.append("empty input: no ballots")
        return [], report, tuple(candidates)
    header = tuple(cell.strip() for cell in rows[0])
    if header != BALLOT_CSV_HEADER:
        raise ValidationError(
            f"malformed header {header!r}; expected {BALLOT_CSV_HEADER!r}"
        )
    registered = {c.id: c for c in candidates}
    infer = not registered
    roster: dict[str, Candidate] = dict(registered)
    grades: dict[str, dict[str, str]] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        report.n_rows += 1
        if len(row) != 3:
            report.issues.append(
                ParseIssue(line_no, None, f"expected 3 fields, got {len(row)}")
            )
            continue
        voter, cid, grade = (cell.strip() for cell in row)
        if not voter:
            report.issues.append(ParseIssue(line_no, None, "empty voter_id"))
            continue
        if infer and cid and cid not in roster:
            roster[cid] = Candidate(cid)
        if cid not in roster:
            report.issues.append(
                ParseIssue(line_no, voter, f"unknown candidate {cid!r}")
            )
            continue
        if grade not in scale.labels:
            report.issues.append(
                ParseIssue(line_no, voter, f"unknown grade {grade!r}")
            )
            continue
        ballot = grades.setdefault(voter, {})
        if cid in ballot:
            report.issues.append(
                ParseIssue(line_no, voter, f"duplicate grade for candidate {cid!r}")
            )
            continue
        ballot[cid] = grade
    if report.n_rows == 0:
        report.notes.append("empty input: no ballots")
    ballots = [Ballot(voter, dict(g)) for voter, g in grades.items()]
    _flag_blank_ballots(ballots, report)
    report.n_ballots = len(ballots)
    return ballots, report, tuple(roster.values())


def reference_parse(source, scale, candidates=()):
    """``parse_ballots`` with the row-by-row reader for CSV input."""
    text = ballot_io._read_text(source)
    if ballot_io._is_json(source, text):
        return ballot_io._parse_ballots_json(text, scale, candidates)
    return _parse_ballots_csv(_csv_rows(text), scale, candidates)


def reference_count(source, scale, candidates=()):
    """The row-by-row path: ``Ballot`` objects first, then their counts."""
    ballots, report, roster = reference_parse(source, scale, candidates)
    return build_profiles(scale, roster, ballots), report, roster


def _outcome(read, text, scale, candidates):
    try:
        return read(io.StringIO(text), scale, candidates)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


def _reads_like_reference(text, scale, candidates):
    """Both readers give what the reference gives, or the same error."""
    for read, reference in ((parse_ballots, reference_parse),
                            (count_ballots, reference_count)):
        assert (_outcome(read, text, scale, candidates)
                == _outcome(reference, text, scale, candidates))


# ---------------------------------------------------------------------------
# generated long-format CSV, clean and dirty
# ---------------------------------------------------------------------------

LABELS = ("top", "good", "fair", "poor", "bottom")
# ids that need quoting on the wire ride along with plain ones
VOTERS = ("v1", "v2", "v3", "v,4", "v\n5", "v 6")
CANDIDATES = ("a", "b", "c", "d,e", "f\ng")
PADS = ("", "", " ", "\t", "  ")
DIRT = ("blank", "spaces", "ragged", "grade", "candidate", "duplicate",
        "voter", "empty candidate", "candidate and grade")


def _cell(draw, value):
    pad = draw(st.sampled_from(PADS)), draw(st.sampled_from(PADS))
    value = pad[0] + value + pad[1]
    if any(ch in value for ch in ',"\r\n') or draw(st.booleans()):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def elections(draw):
    """``(text, scale, candidates)``: a long-format CSV, clean or dirty, and
    the scale and registered roster to read it with."""
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
        elif kind == "candidate and grade":  # the candidate check comes first
            rows.insert(at, ["v2", draw(st.sampled_from(["zz", ""])), "bogus"])
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
    return text, scale, candidates


@settings(max_examples=400, deadline=None, derandomize=True)
@given(elections())
def test_count_ballots_matches_the_row_by_row_reader(case):
    _reads_like_reference(*case)


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
    _reads_like_reference(text, GradeScale(LABELS[:3]), candidates)


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
    """Neither a clean file nor one with rejected rows becomes ``Ballot``s."""
    assert main(["demo", "smalltown", "--outdir", str(tmp_path)]) == 0
    clean = ["tally", "--config", str(tmp_path / "smalltown.config.json"),
             "--ballots", str(tmp_path / "smalltown.ballots.csv")]
    dirty = ["tally", *_school_with_rejected_rows(tmp_path)]
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "count_ballots", reference_count)
        expected = [_tally(argv, capsys) for argv in (clean, dirty)]

    def refuse(*args, **kwargs):
        raise AssertionError("a CSV file was read into Ballot objects")

    monkeypatch.setattr(ballot_io, "Ballot", refuse)
    monkeypatch.setattr(ballot_io, "build_profiles", refuse)
    monkeypatch.setattr(cli, "build_profiles", refuse)
    assert [_tally(argv, capsys) for argv in (clean, dirty)] == expected
    assert [rc for rc, _, _ in expected] == [0, 1]


def test_rejected_row_numbers_count_csv_records_not_lines(tmp_path, capsys):
    # the header is row 1; a quoted newline in voter "v\n1" does not advance
    # the count, so the rejected record on line 4 of the file is row 3
    text = 'voter_id,candidate,grade\n"v\n1",a,positive\nv2,zz,positive\n'
    scale = GradeScale(("positive", "neutral", "negative"))
    for read in (count_ballots, parse_ballots):
        _, report, _ = read(io.StringIO(text), scale, (Candidate("a"),))
        assert report.issues == [ParseIssue(3, "v2", "unknown candidate 'zz'")]
    (tmp_path / "ballots.csv").write_text(text)
    (tmp_path / "config.json").write_text('{"method": "mj3", "candidates": [{"id": "a"}]}')
    assert main(["tally", "--config", str(tmp_path / "config.json"),
                 "--ballots", str(tmp_path / "ballots.csv")]) == 1
    assert "warning: row 3 voter v2: unknown candidate 'zz'" in capsys.readouterr().err


def test_a_file_with_a_rejected_row_is_read_in_one_csv_pass(monkeypatch):
    calls = []
    reader = csv.reader

    def counted(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counted)
    text = "voter_id,candidate,grade\nv1,a,top\nv2,a,bogus\nv2,b,top\n"
    for read in (count_ballots, parse_ballots):
        calls.clear()
        _, report, _ = read(io.StringIO(text), GradeScale(LABELS[:3]))
        assert (len(report.issues), len(calls)) == (1, 1)


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


def _school_with_rejected_rows(tmp_path):
    """``--config``/``--ballots`` flags for the school fixture's files, with
    four rows the reader rejects and a blank line appended to the ballots."""
    assert main(["demo", "school", "--outdir", str(tmp_path)]) == 0
    ballots = tmp_path / "school.ballots.csv"
    with open(ballots, "a", encoding="utf-8") as fh:
        fh.write("x01,zoo,Terrific\n\nx02,nowhere,Nice\nx03,zoo\ne01,zoo,Nice\n")
    return ["--config", str(tmp_path / "school.config.json"), "--ballots", str(ballots)]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_tally_output_is_unchanged_with_rejected_rows(fmt, tmp_path, monkeypatch, capsys):
    argv = ["tally", *_school_with_rejected_rows(tmp_path), "--format", fmt]
    capsys.readouterr()
    rc, _, err = _same_as_reference(argv, monkeypatch, capsys)
    assert rc == 1
    assert err.count("(row rejected)") == 4
