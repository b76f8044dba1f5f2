"""One CSV reader: ``parse_ballots`` and ``count_ballots`` against the
row-by-row reference.

Both public readers take the columns of one column-wise pass over a CSV file;
``count_ballots`` first tries to count a clean file from its lines alone.
On any input they must return what the row-by-row reader below (the reader
they replaced, which now takes its records one at a time, so that a
malformed header is found before a later record is read) makes of it: the
same ballots, or the counts ``build_profiles`` makes of them, with the same
report, issue order and roster, and ``gradevote tally`` must print the same
bytes as when it ran on that reference.  Both readers walk the text in
line-aligned slices; with the slice size patched small, so that slices end
at nearly every line, they must still read every text alike.
"""

import csv
import io
import json
import tracemalloc
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gradevote import (
    Ballot,
    Candidate,
    ConfigError,
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

def _parse_ballots_csv(
    rows: Iterator[list[str]], scale: GradeScale, candidates: Sequence[Candidate]
) -> tuple[list[Ballot], ParseReport, tuple[Candidate, ...]]:
    report = ParseReport()
    first = next(rows, None)
    if first is None:
        report.notes.append("empty input: no ballots")
        return [], report, tuple(candidates)
    header = tuple(cell.strip() for cell in first)
    if header != BALLOT_CSV_HEADER:
        raise ValidationError(
            f"malformed header {header!r}; expected {BALLOT_CSV_HEADER!r}"
        )
    registered = {c.id: c for c in candidates}
    infer = not registered
    roster: dict[str, Candidate] = dict(registered)
    grades: dict[str, dict[str, str]] = {}
    for line_no, row in enumerate(rows, start=2):
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
    # the rows are read one at a time, so the header is checked before a
    # later record can be refused as CSV
    try:
        return _parse_ballots_csv(
            csv.reader(io.StringIO(text, newline="")), scale, candidates)
    except csv.Error as exc:
        raise ValidationError(f"ballots are not valid CSV: {exc}") from None


def reference_count(source, scale, candidates=()):
    """The row-by-row path: ``Ballot`` objects first, then their counts."""
    ballots, report, roster = reference_parse(source, scale, candidates)
    return build_profiles(scale, roster, ballots), report, roster


def _outcome(read, text, scale, candidates):
    try:
        return read(io.StringIO(text), scale, candidates)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


#: slice sizes that cut a short text at nearly every line end: after the
#: header, inside runs of CRLF and before an unterminated last line
SMALL_SLICES = (1, 2, 3, 7)


@contextmanager
def _slice_size(size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ballot_io, "_SLICE", size)
        yield


def _reads_like_reference(text, scale, candidates, sizes=SMALL_SLICES):
    """Both readers give what the reference gives, or the same error, with
    the text read in slices of the default size and of each of ``sizes``."""
    for read, reference in ((parse_ballots, reference_parse),
                            (count_ballots, reference_count)):
        expected = _outcome(reference, text, scale, candidates)
        assert _outcome(read, text, scale, candidates) == expected
        for size in sizes:
            with _slice_size(size):
                assert _outcome(read, text, scale, candidates) == expected, size


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
    # slices of one line each cut the quoted line ends inside cells; the
    # other small sizes are left to the tests of quote-free and quoted files
    _reads_like_reference(*case, sizes=(1,))


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


@pytest.mark.parametrize("voter", ["", " ", "\t \r\n"])
def test_an_empty_voter_id_is_rejected_in_json_as_in_csv(voter):
    # CSV strips its cells, so a blank voter_id is an empty one in JSON too
    scale = GradeScale(LABELS[:3])
    text = json.dumps([{"voter_id": voter, "grades": {"a": "top"}},
                       {"voter_id": "v2", "grades": {"a": "fair"}}])
    (ballots, parsed, _), (election, counted, _) = (
        read(io.StringIO(text), scale) for read in (parse_ballots, count_ballots))
    assert parsed == counted
    assert counted.issues == [ParseIssue(1, None, "empty voter_id")]
    assert ([b.voter_id for b in ballots], election.n_voters) == (["v2"], 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [BALLOT_CSV_HEADER, [voter, "a", "top"], ["v2", "a", "fair"]])
    csv_report = count_ballots(io.StringIO(out.getvalue()), scale)[1]
    assert [i.reason for i in csv_report.issues] == ["empty voter_id"]


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


@pytest.mark.parametrize("size", SMALL_SLICES)
def test_slices_end_at_line_ends_and_never_inside_a_crlf(size, monkeypatch):
    monkeypatch.setattr(ballot_io, "_SLICE", size)
    for n in range(7):
        for text in map("".join, product("a\r\n", repeat=n)):
            pieces = list(ballot_io._slices(text))
            assert "".join(pieces) == text
            assert all(len(piece) >= size for piece in pieces[:-1])
            assert [line for piece in pieces for line in piece.splitlines()] == (
                text.splitlines())
            assert not any(a.endswith("\r") and b.startswith("\n")
                           for a, b in zip(pieces, pieces[1:]))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_quoted_line_ends_in_cells_read_alike_in_any_slices(end):
    # a slice ends only at an LF or, with no LF left, a lone CR, so a CR, LF
    # or CRLF inside a quoted cell may end a slice but never splits a record
    rows = ['"v\r1",a,top', '"v\n1",a,fair', '"v\r\n1",b,top', 'v2,"a",top',
            '"v\r\n\r\n3",b,"fair"', '"v\n\r4",a,top']
    text = end.join([HEADER.strip(), *rows]) + end
    scale = GradeScale(LABELS[:3])
    _reads_like_reference(text, scale, ())
    voters = ["v\r1", "v\n1", "v\r\n1", "v2", "v\r\n\r\n3", "v\n\r4"]
    for size in (ballot_io._SLICE, *SMALL_SLICES):
        with _slice_size(size):
            ballots, report, _ = parse_ballots(io.StringIO(text), scale)
        assert ([b.voter_id for b in ballots], report.ok) == (voters, True), size


def _peak(run):
    """The most memory ``run()`` holds at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _counted_peak(text):
    """The peak of counting a clean text, its own read of the text included,
    and of the list of the text's lines, which the walk never builds."""
    source = io.StringIO(text)
    with _csv_reader_refused():
        counted = _peak(lambda: count_ballots(source, GradeScale(LABELS[:3])))
    return counted, _peak(text.splitlines)


def test_the_counted_path_holds_one_slice_of_lines_at_a_time(monkeypatch):
    """Counting a clean text holds less at once than the list of the text's
    lines: one mask per voter, not one string per row.  Slices of 4,096
    characters keep the one slice small beside 20,000 rows."""
    monkeypatch.setattr(ballot_io, "_SLICE", 1 << 12)
    text = HEADER + "".join(f"v{v:05d},{cid},{LABELS[(v + i) % 3]}\n"
                            for v in range(4_000) for i, cid in enumerate("abcde"))
    counted, lines = _counted_peak(text)
    assert counted < lines, (counted, lines)


def test_a_roster_of_two_blocks_holds_less_than_its_lines(monkeypatch):
    """Past ``_BLOCK`` candidates a voter's pairs take one mask per block,
    so a wide roster too holds less at once than the list of the lines."""
    monkeypatch.setattr(ballot_io, "_SLICE", 1 << 12)
    width = ballot_io._BLOCK + 36
    text = HEADER + "".join(f"v{v:05d},c{c:03d},{LABELS[(v + c) % 3]}\n"
                            for v in range(200) for c in range(width))
    counted, lines = _counted_peak(text)
    assert counted < lines, (counted, lines)


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


# ---------------------------------------------------------------------------
# quote-free files: counted from their lines, or handed to the CSV reader
# ---------------------------------------------------------------------------

@contextmanager
def _csv_reader_refused():
    def refuse(*args, **kwargs):
        raise AssertionError("a clean file went through csv.reader")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csv, "reader", refuse)
        yield


def _counted_like_reference(text, scale, candidates=()):
    """``count_ballots`` counts a clean text from its lines, in slices of the
    default size and of each small size, as the reference counts it."""
    expected = reference_count(io.StringIO(text), scale, candidates)
    with _csv_reader_refused():
        for size in (ballot_io._SLICE, *SMALL_SLICES):
            with _slice_size(size):
                assert count_ballots(io.StringIO(text), scale, candidates) == expected, size
    return expected


PLAIN_VOTERS = ("v1", "v2", "v3", "v10", "\u00e95")  # one id is not ASCII
PLAIN_CANDIDATES = ("a", "b", "c", "\u00e4")
#: lines that each keep a file off the counted path; {v}, {c} and {g} are a
#: voter, candidate and grade of the file
DIRTY_LINES = {
    "ragged": ("{v},{c}", "{v},{c},{g},x", "{v}", ",,,"),
    "whitespace only": (" ", "\t", " , , ", "\u2028"),
    "padded": (" {v},{c},{g}", "{v},{c} ,{g}", "{v},{c},{g}\t", "{v},\x0b{c},{g}"),
    "inner space": ("{v} x,{c},{g}",),
    "empty voter": (",{c},{g}",),
    "empty candidate": ("{v},,{g}",),
    "empty grade": ("{v},{c},",),
    "unknown candidate": ("{v},zz,{g}",),
    "unknown grade": ("{v},{c},bogus",),
    "quote": ('"{v}",{c},{g}', '{v},{c},{g}"', '{v},"{c}",{g}'),
    "carriage return": ("{v}\r,{c},{g}",),  # a line end that splits a row
    "nul": ("{v}\x00,{c},{g}",),
    "unicode space": ("{v}\u00a0,{c},{g}", "{v},{c},{g}\u2028", "\x85{v},{c},{g}",
                      "{v},{c}\u3000,{g}", "{v}\x1c,{c},{g}"),
}
DIRTY_HEADERS = (" voter_id,candidate,grade", "voter_id,candidate,grade ",
                 "voter_id,candidate", "voter,candidate,grade")


@st.composite
def quote_free_files(draw):
    """``(text, scale, candidates, dirt)``: a quote-free file with LF, CRLF or
    CR line ends, clean when ``dirt`` is empty, else with each kind of dirt
    named.  A clean file may hold blank lines, which the CSV reader skips, and
    lines ended by a CR of their own."""
    scale = GradeScale(LABELS[:draw(st.integers(2, 5))])
    ids = draw(st.lists(st.sampled_from(PLAIN_CANDIDATES), min_size=1, max_size=3,
                        unique=True))
    candidates = tuple(map(Candidate, ids)) if draw(st.booleans()) else ()
    pairs = draw(st.lists(st.tuples(st.sampled_from(PLAIN_VOTERS), st.sampled_from(ids)),
                          min_size=1, max_size=10, unique=True))
    lines = [f"{v},{c},{draw(st.sampled_from(scale.labels))}" for v, c in pairs]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2, unique=True)):
        lines[i] += "\r"  # a CRLF end, or a CR end and a blank line
    dirt = draw(st.lists(st.sampled_from([*DIRTY_LINES, "repeat", "header"]),
                         max_size=2, unique=True))
    header = ",".join(BALLOT_CSV_HEADER)
    for kind in dirt:
        voter, cid = draw(st.sampled_from(pairs))
        if kind == "header":
            header = draw(st.sampled_from(DIRTY_HEADERS))
            continue
        if kind == "repeat":  # the same grade, or another one
            line = f"{voter},{cid},{draw(st.sampled_from(scale.labels))}"
        else:
            line = draw(st.sampled_from(DIRTY_LINES[kind])).format(
                v=voter, c=cid, g=scale.labels[0])
        lines.insert(draw(st.integers(0, len(lines))), line)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from([newline, "", newline * 2]))
    return bom + newline.join([header, *lines]) + end, scale, candidates, dirt


@settings(max_examples=150, deadline=None, derandomize=True)
@given(quote_free_files())
def test_quote_free_files_match_the_row_by_row_reader(case):
    text, scale, candidates, dirt = case
    _reads_like_reference(text, scale, candidates)
    if not dirt:
        _counted_like_reference(text, scale, candidates)


# a row ended by a CR of its own is no dirt: it ends in CRLF here
@pytest.mark.parametrize("line", [*(line for kind in DIRTY_LINES.values() for line in kind),
                                  "{v},{c},{g}\r"])
@pytest.mark.parametrize("registered", [False, True])
def test_each_dirty_line_alone_matches_the_row_by_row_reader(line, registered):
    candidates = (Candidate("a"), Candidate("b")) if registered else ()
    body = ["v1,a,top", "v2,b,fair", line.format(v="v3", c="a", g="top"), "v3,b,good"]
    _reads_like_reference("\n".join([",".join(BALLOT_CSV_HEADER), *body, ""]),
                          GradeScale(LABELS[:3]), candidates)


def _limit_cases():
    """Fields at the csv module's size limit and one character over it."""
    limit = csv.field_size_limit()
    return {
        "voter at the field limit": f"{HEADER}{'v' * limit},a,top\n",
        "voter over the field limit": f"{HEADER}{'v' * (limit + 1)},a,top\n",
        "candidate over the field limit": f"{HEADER}v1,{'c' * (limit + 1)},top\n",
    }


HEADER = "voter_id,candidate,grade\n"
FIXED_FILES = {
    "clean": f"{HEADER}v1,a,top\nv1,b,fair\nv2,a,good\n",
    "nul": f"{HEADER}v1,a,top\nv\x002,b,top\n",  # csv refuses it before 3.11
    "lone carriage return": f"{HEADER}v1,a,top\rv2,b,top\n",
    "crlf": HEADER.replace("\n", "\r\n") + "v1,a,top\r\nv2,b,top\r\n",
    "quoted cell": f'{HEADER}v1,a,top\n"v2",b,top\n',
    "one voter quoted and bare": f'{HEADER}v1,a,top\n"v1",b,top\n',
    "a repeat hidden by quotes": f'{HEADER}v1,a,top\n"v1",a,fair\n',
    "quote inside a cell": f'{HEADER}v1,a,to"p\n',
    "padded cell": f"{HEADER}v1, a,top\n",
    "padded header": " voter_id , candidate,grade\nv1,a,top\n",
    "tab": f"{HEADER}v1,a,top\t\n",
    "no-break space": f"{HEADER}v1\u00a0,a,top\n",
    "inner no-break space": f"{HEADER}v\u00a01,a,top\n",
    "line separator": f"{HEADER}v1,a,top\u2028\n",
    "next line": f"{HEADER}\x85v1,a,top\n",
    "file separator": f"{HEADER}v1,a\x1c,top\n",
    "blank line": f"{HEADER}v1,a,top\n\nv2,b,top\n",
    "whitespace-only line": f"{HEADER}v1,a,top\n \t \nv2,b,top\n",
    "trailing blank lines": f"{HEADER}v1,a,top\n\n\n",
    "no final newline": f"{HEADER}v1,a,top\nv2,b,fair",
    "byte-order mark": f"\ufeff{HEADER}v1,a,top\n",
    "two byte-order marks": f"\ufeff\ufeff{HEADER}v1,a,top\n",
    "mark inside a cell": f"{HEADER}v\ufeff1,a,top\n",
    "not ASCII": f"{HEADER}v\u00e9,\u00e4,top\nv2,a,fair\n",
    "header only": HEADER,
    "header without a line end": HEADER.strip(),
    "empty voter": f"{HEADER},a,top\nv2,b,top\n",
    "empty candidate": f"{HEADER}v1,,top\nv2,b,top\n",
    "empty grade": f"{HEADER}v1,a,\n",
    "four fields": f"{HEADER}v1,a,top,x\n",
    "repeat with the same grade": f"{HEADER}v1,a,top\nv1,a,top\n",
    "repeat with another grade": f"{HEADER}v1,a,top\nv2,b,top\nv1,a,fair\n",
    **_limit_cases(),
}


@pytest.mark.parametrize("name", list(FIXED_FILES))
@pytest.mark.parametrize("candidates", [(), (Candidate("a"), Candidate("b"))])
def test_fixed_quote_free_cases_match_the_row_by_row_reader(name, candidates):
    _reads_like_reference(FIXED_FILES[name], GradeScale(LABELS[:3]), candidates)


def test_the_ascii_space_list_is_what_strip_removes():
    spaces = {ch for ch in map(chr, range(128)) if ch.isspace()}
    assert set(ballot_io._ASCII_SPACE) == spaces - {"\n", "\r"}


def test_a_grade_label_with_a_comma_is_never_counted_from_lines():
    # csv reads "v1,a,very,good" as four fields, not as the label "very,good"
    scale = GradeScale(("very,good", "bad"))
    text = f"{HEADER}v1,a,very,good\nv2,a,bad\n"
    _reads_like_reference(text, scale, ())
    _, report, _ = count_ballots(io.StringIO(text), scale)
    assert [issue.reason for issue in report.issues] == ["expected 3 fields, got 4"]


def test_a_row_of_two_fields_is_ragged_even_with_an_empty_label():
    # a scale cannot hold an empty label, so an empty grade cell is unknown
    # and a row of two fields stays ragged
    with pytest.raises(ConfigError, match="empty grade label"):
        GradeScale(("top", ""))
    scale = GradeScale(("top", "bottom"))
    text = f"{HEADER}v1,a\nv2,a,top\nv3,a,\n"
    _reads_like_reference(text, scale, ())
    _, report, _ = count_ballots(io.StringIO(text), scale)
    assert [issue.reason for issue in report.issues] == [
        "expected 3 fields, got 2", "unknown grade ''"]


def test_a_pair_repeated_with_another_grade_keeps_the_first():
    text = f"{HEADER}v1,b,fair\nv1,a,top\nv2,c,good\nv1,b,top\nv2,a,good\n"
    scale = GradeScale(LABELS[:3])
    election, report, roster = count_ballots(io.StringIO(text), scale)
    assert [c.id for c in roster] == ["b", "a", "c"]  # first appearance
    assert report.issues == [ParseIssue(5, "v1", "duplicate grade for candidate 'b'")]
    assert [p.counts for p in election.profiles] == [(0, 0, 2), (1, 1, 0), (0, 1, 1)]
    _reads_like_reference(text, scale, ())


def test_an_inferred_roster_follows_first_appearance_on_the_counted_path():
    text = f"{HEADER}v1,c,top\nv2,a,fair\nv1,b,good\nv2,c,top\n"
    election, report, roster = _counted_like_reference(text, GradeScale(LABELS[:3]))
    assert [c.id for c in roster] == ["c", "a", "b"]
    assert (report.n_rows, report.n_ballots, report.ok) == (4, 2, True)
    assert [p.counts for p in election.profiles] == [(2, 0, 0), (0, 0, 2), (0, 1, 1)]


def test_blank_lines_are_skipped_on_the_counted_path():
    for end in ("\n", "\r\n", "\r"):
        text = f"{HEADER}\nv1,a,top\n\n\nv2,b,fair\n\n".replace("\n", end)
        report = _counted_like_reference(text, GradeScale(LABELS[:3]))[1]
        assert (report.n_rows, report.ok) == (2, True)


# ---------------------------------------------------------------------------
# the block edge: the 65th candidate a text names opens a second block of
# masks
# ---------------------------------------------------------------------------

#: rows of long voter ids enough for a text to span two slices of the
#: default size, and few enough to walk quickly at the small sizes
FILLER_ROWS = 700
FILLER_ID = "w" * 200


def _edge_rows(width, late=None):
    """The rows of a clean text that names ``width`` candidates: voter v0
    grades them all in its first rows, or all but the last, which voter
    ``late`` grades in the text's last row.  Between them, one-row voters
    fill the text past the default slice size."""
    ids = [f"c{c + 1}" for c in range(width)]
    rows = [f"v0,{cid},{LABELS[c % 3]}" for c, cid in enumerate(ids[:-1] if late else ids)]
    rows += [f"{FILLER_ID}{v:03d},c1,{LABELS[v % 3]}" for v in range(FILLER_ROWS)]
    if late:
        rows.append(f"{late},{ids[-1]},fair")
    return ids, rows


def _first_slice_rows(text):
    """How many rows the first slice of the default size holds."""
    return next(ballot_io._slices(text)).count("\n") - 1


EDGES = {"64": (64, None), "65": (65, None), "65 named late": (65, "v0"),
         "65 by a voter of its own": (65, "v1")}


@pytest.mark.parametrize("edge", list(EDGES))
@pytest.mark.parametrize("registered", [False, True])
def test_rosters_at_the_block_edge_count_like_the_reference(edge, registered):
    ids, rows = _edge_rows(*EDGES[edge])
    text = HEADER + "\n".join(rows) + "\n"
    assert len(next(ballot_io._slices(text))) < len(text)  # two slices at least
    candidates = tuple(map(Candidate, ids)) if registered else ()
    _reads_like_reference(text, GradeScale(LABELS[:3]), candidates)
    election, report, roster = _counted_like_reference(
        text, GradeScale(LABELS[:3]), candidates)
    assert [c.id for c in roster] == ids
    voters = FILLER_ROWS + (2 if EDGES[edge][1] == "v1" else 1)
    assert (report.n_rows, report.n_ballots) == (len(rows), voters)


@pytest.mark.parametrize("edge", list(EDGES))
@pytest.mark.parametrize("where", ["first slice", "last slice", "slice boundary",
                                   "last candidate"])
@pytest.mark.parametrize("grade", ["same", "other"])
def test_a_pair_repeated_at_the_block_edge_is_read_like_the_reference(edge, where, grade):
    """One ``(voter, candidate)`` pair twice, with the same grade or another:
    both rows in the first slice, the repeat in the last, the two rows on
    either side of the first slice's end, or the pair with the last
    candidate named (in the second block past 64) repeated at the end."""
    ids, rows = _edge_rows(*EDGES[edge])
    cut = _first_slice_rows(HEADER + "\n".join(rows) + "\n")
    last = next(i for i, row in enumerate(rows) if row.split(",")[1] == ids[-1])
    at, then = {"first slice": (1, 2), "last slice": (0, len(rows)),
                "slice boundary": (cut - 1, cut), "last candidate": (last, len(rows))}[where]
    voter, cid, label = rows[at].split(",")
    if grade == "other":
        label = LABELS[(LABELS.index(label) + 1) % 3]
    rows.insert(then, f"{voter},{cid},{label}")
    text = HEADER + "\n".join(rows) + "\n"
    if where == "slice boundary":
        assert _first_slice_rows(text) == cut  # the repeat opens the next slice
    _reads_like_reference(text, GradeScale(LABELS[:3]), ())
    report = count_ballots(io.StringIO(text), GradeScale(LABELS[:3]))[1]
    assert report.issues == [ParseIssue(then + 2, voter,
                                        f"duplicate grade for candidate {cid!r}")]


def _drawn_slices(monkeypatch):
    """A list that gets, for each walk over ``_slices``, how many slices it
    drew."""
    drawn = []
    slices = ballot_io._slices

    def counted(text):
        drawn.append(0)
        for piece in slices(text):
            drawn[-1] += 1
            yield piece

    monkeypatch.setattr(ballot_io, "_slices", counted)
    return drawn


def test_a_rejected_row_in_the_first_slice_ends_the_walk_there(monkeypatch):
    """A quote-free text whose first slice holds an unregistered candidate
    goes to the CSV reader after the walk has drawn that one slice."""
    ids, rows = _edge_rows(3)
    rows.insert(5, "v1,zz,top")
    text = HEADER + "\n".join(rows) + "\n"
    scale, candidates = GradeScale(LABELS[:3]), tuple(map(Candidate, ids))
    n_slices = len(list(ballot_io._slices(text)))
    drawn = _drawn_slices(monkeypatch)
    got = count_ballots(io.StringIO(text), scale, candidates)
    assert (drawn, n_slices > 1) == ([1, n_slices], True)
    assert got == reference_count(io.StringIO(text), scale, candidates)
    assert got[1].issues == [ParseIssue(7, "v1", "unknown candidate 'zz'")]


def test_a_malformed_header_is_found_before_a_later_record_is_read():
    """The header is the first record: its error wins over a later field
    that the csv module refuses, however many slices lie between them."""
    _, rows = _edge_rows(3)
    text = "voter,candidate,grade\n" + "\n".join(rows) + "\nv9,a," + "x" * (
        csv.field_size_limit() + 1) + "\n"
    assert "x" not in next(ballot_io._slices(text))  # a later slice holds it
    scale = GradeScale(LABELS[:3])
    for read in (count_ballots, parse_ballots):
        with pytest.raises(ValidationError, match="^malformed header"):
            read(io.StringIO(text), scale)
    _reads_like_reference(text, scale, ())


@pytest.mark.parametrize("name", ["smalltown", "school3"])
def test_a_clean_file_never_calls_the_csv_reader(name, tmp_path, monkeypatch, capsys):
    assert main(["demo", name, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    ballots = tmp_path / f"{name}.ballots.csv"
    argv = ["tally", "--config", str(tmp_path / f"{name}.config.json"),
            "--ballots", str(ballots)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "count_ballots", reference_count)
        expected = _tally(argv, capsys)
    assert expected[0] == 0
    data = ballots.read_bytes()
    for end in (b"\n", b"\r\n", b"\r"):  # its CRLF and CR copies too
        ballots.write_bytes(data.replace(b"\n", end))
        with _csv_reader_refused():
            assert _tally(argv, capsys) == expected, end


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
