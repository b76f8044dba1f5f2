"""Ballot ingestion, election configuration, and result rendering.

Wire formats:

* Ballots, CSV (long format): header ``voter_id,candidate,grade``, one graded
  candidate per row, UTF-8 (input may start with a byte-order mark).  A
  voter's unmentioned candidates complete to the worst grade, so
  approval-style ballots only list what the voter marked.  LF, CRLF and CR
  all end a record; the text keeps its line ends as they are, so a CR or LF
  inside a quoted cell is part of the cell.
* Ballots, JSON: list of ``{"voter_id": ..., "grades": {candidate: grade}}``.
* Bracket ballots, JSON: list of ``{"voter_id": ..., "accept": bool,
  "choices": ["upper"|"lower", ...]}`` with one choice per internal node of
  the halving tree, in preorder.  (Long-format CSV cannot carry per-node
  marks, so brackets are JSON-only.)
* Election config, JSON: ``{"method": ..., "scale": [...], "candidates":
  [{"id", "name", "party", "profession"}], "options": {"limit", "seed"}}``.
* Results: a text table mirroring the classic presentation (rank, candidate,
  one percentage column per grade, double rules at block boundaries), or JSON
  / CSV documents carrying exact counts.  Table percentages are rounded
  half-up to whole percent; machine formats are never rounded.

Row-level problems (unknown grade, unknown candidate, duplicate marks) reject
the row and are reported; they never silently drop a voter's other valid
rows.  File-level problems (unreadable input, malformed header, text the csv
or json module refuses, such as a CSV field over its size limit, or JSON
nested past the recursion limit or holding an integer over the digit limit)
raise :class:`ValidationError`, or :class:`ConfigError` in a config.

A CSV file is read in one pass into voter, candidate and grade columns;
each row check runs over a whole column, and only a check that fails walks
the rows to name them.  :func:`parse_ballots` groups the kept rows into one
:class:`Ballot` per voter, for the property harness; :func:`count_ballots`
counts them straight into the per-grade counts a tally needs, with no
ballot objects.

:func:`count_ballots` first tries to prove a CSV file clean without the CSV
reader: no ``"`` or NUL, no whitespace but line ends (so no padded cell), the
exact header, and every row kept (blank lines are skipped, as the CSV reader
skips them).  Such a file is counted from its lines, whether they end in LF,
CRLF or CR.  Any other file (quoted, padded or with a row to reject) is read
by the CSV reader, which stays the only code that names rejected rows.  The
proof stops at its first failing check, so a file with a rejected row pays
for the passes up to that check on top of the CSV reader.

:func:`count_bracket_ballots` counts a bracket document the same way: one
whose columns prove every entry valid is counted from them, and any other is
read entry by entry.

:class:`ElectionConfig` and :class:`ParseIssue` are frozen records
(:func:`gradevote.core.record`); the config checks its method, scale and
limit when it is built.  :class:`ParseReport` is a mutable record that the
readers fill in.
"""

import csv
import gc
import io
import json
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from itertools import compress, count, islice, repeat
from operator import attrgetter, itemgetter, not_
from pathlib import Path
from typing import TYPE_CHECKING

from .approval import borderline_candidates
from .core import (
    Ballot,
    Candidate,
    ConfigError,
    ElectionProfile,
    GradeProfile,
    GradeScale,
    ValidationError,
    VoteError,
    build_profiles,
    factory,
    record,
)
from .methods import RANKERS, method_scale
from .results import Block, RankedEntry, RankedResult

if TYPE_CHECKING:  # the bracket module is imported where bracket code runs
    from .bracket import BracketBallot, BracketResult

METHODS = (*RANKERS, "bracket")

BALLOT_CSV_HEADER = ("voter_id", "candidate", "grade")

REJECTED_BANNER = "ballot rejected: no candidate reached majority approval"


# --------------------------------------------------------------------------
# election configuration
# --------------------------------------------------------------------------

@record(frozen=True)
class ElectionConfig:
    """Everything needed to reproduce one tally."""

    method: str
    scale: GradeScale | None
    candidates: tuple[Candidate, ...] = ()
    limit: int = 8
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        # a bracket election has no scale: grades play no role in it
        scale = method_scale(self.method, self.scale) if self.method in RANKERS else None
        object.__setattr__(self, "scale", scale)
        if self.limit < 2:
            raise ConfigError("exhaustive limit must be at least 2")


def load_config(source: "str | Path | io.TextIOBase") -> ElectionConfig:
    """Load an :class:`ElectionConfig` from a JSON document."""
    document = _load_json(_read_text(source), ConfigError, "config is not valid JSON")
    if not isinstance(document, dict):
        raise ConfigError("config must be a JSON object")
    known = {"method", "scale", "candidates", "options"}
    unknown = sorted(set(document) - known)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown!r}")
    method = document.get("method")
    if not isinstance(method, str):
        raise ConfigError("config needs a string 'method'")
    scale = None
    if "scale" in document:
        labels = document["scale"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ConfigError("'scale' must be a list of grade labels")
        scale = GradeScale(tuple(labels))
    rows = document.get("candidates", [])
    if not isinstance(rows, list):
        raise ConfigError("'candidates' must be a list of objects")
    candidates = []
    seen: set[str] = set()
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not isinstance(row.get("id"), str):
            raise ConfigError(f"candidate #{i + 1} needs a string 'id'")
        for key in ("name", "party", "profession"):
            if not isinstance(row.get(key, ""), (str, type(None))):
                raise ConfigError(f"candidate #{i + 1} '{key}' must be a string")
        if row["id"] in seen:
            raise ConfigError(f"duplicate candidate id {row['id']!r}")
        seen.add(row["id"])
        candidates.append(
            Candidate(
                id=row["id"],
                name=row.get("name", ""),
                party=row.get("party"),
                profession=row.get("profession"),
            )
        )
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("'options' must be an object")
    # JSON true and false load as bool, an int subclass: refuse them too
    limit, seed = options.get("limit", 8), options.get("seed")
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise ConfigError(f"'options.limit' must be an integer, got {limit!r}")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigError(f"'options.seed' must be an integer or null, got {seed!r}")
    return ElectionConfig(
        method=method,
        scale=scale,
        candidates=tuple(candidates),
        limit=limit,
        seed=seed,
    )


def config_to_json(config: ElectionConfig) -> str:
    document: dict = {"method": config.method}
    if config.scale is not None:
        document["scale"] = list(config.scale.labels)
    document["candidates"] = [
        {
            "id": c.id,
            "name": c.name,
            **({"party": c.party} if c.party else {}),
            **({"profession": c.profession} if c.profession else {}),
        }
        for c in config.candidates
    ]
    document["options"] = {"limit": config.limit}
    if config.seed is not None:
        document["options"]["seed"] = config.seed
    return json.dumps(document, indent=2) + "\n"


# --------------------------------------------------------------------------
# ballot parsing
# --------------------------------------------------------------------------

@record(frozen=True)
class ParseIssue:
    """One rejected row/entry and why.  ``grade_only`` marks one grade dropped
    from a JSON grade entry whose other grades still count."""

    row: int | None
    voter: str | None
    reason: str
    grade_only: bool = False


@record
class ParseReport:
    """What happened while reading a ballot file."""

    n_rows: int = 0
    n_ballots: int = 0
    issues: list[ParseIssue] = factory(list)
    notes: list[str] = factory(list)

    @property
    def ok(self) -> bool:
        return not self.issues


def _read_text(source: "str | Path | io.TextIOBase") -> str:
    """The whole text of a path or open stream, a leading UTF-8 BOM dropped.
    A path is read with its line ends as they are (``newline=""``), so a CR
    or LF inside a quoted CSV cell stays itself."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, encoding="utf-8", newline="") as file:
                text = file.read()
        return text.removeprefix("\ufeff")
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason})"
    raise ValidationError(f"cannot read {source}: {reason}")


def _load_json(text: str, error: type[VoteError], what: str):
    """The document of a JSON text, or ``error`` with ``what`` and the reason.
    ``ValueError`` covers a syntax error and an integer over the digit limit
    of ``int``; ``RecursionError``, nesting too deep to decode."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from None


def _is_json(source: "str | Path | io.TextIOBase", text: str) -> bool:
    """JSON by a ``.json`` path suffix, else by a leading ``[`` or ``{``."""
    if isinstance(source, (str, Path)) and str(source).endswith(".json"):
        return True
    return text.lstrip()[:1] in ("[", "{")


def parse_ballots(
    source: "str | Path | io.TextIOBase",
    scale: GradeScale,
    candidates: Sequence[Candidate] = (),
) -> tuple[list[Ballot], ParseReport, tuple[Candidate, ...]]:
    """Read graded ballots from CSV or JSON.

    With registered ``candidates``, rows naming anyone else are rejected;
    without, candidates are inferred in first-appearance order.  Returns the
    ballots (voters in first-appearance order), the parse report, and the
    candidate roster actually in effect.
    """
    text = _read_text(source)
    if _is_json(source, text):
        return _parse_ballots_json(text, scale, candidates)
    with _gc_paused():
        (voters, cids, grades), _, report, roster = _read_csv(text, scale, candidates)
        ballots: dict[str, dict[str, str]] = {}
        for voter, cid, grade in zip(voters, cids, grades):
            ballots.setdefault(voter, {})[cid] = grade
        return [Ballot(voter, g) for voter, g in ballots.items()], report, roster


def count_ballots(
    source: "str | Path | io.TextIOBase",
    scale: GradeScale,
    candidates: Sequence[Candidate] = (),
) -> tuple[ElectionProfile, ParseReport, tuple[Candidate, ...]]:
    """Read graded ballots straight into per-grade counts.

    Returns what ``build_profiles`` makes of :func:`parse_ballots`' result,
    with the same report and roster.  A CSV file never becomes
    :class:`Ballot` objects: a clean one (no ``"`` or NUL, no whitespace
    but line ends) is counted from its lines, whether they end in LF, CRLF or
    CR (:func:`_count_lines`), any other from the columns of
    :func:`_read_csv`.  JSON nested too deep or holding an over-long integer
    raises :class:`ValidationError`.
    """
    text = _read_text(source)
    if _is_json(source, text):
        ballots, report, roster = _parse_ballots_json(text, scale, candidates)
        return build_profiles(scale, roster, ballots), report, roster
    with _gc_paused():
        counted = _count_lines(text, scale, candidates)
        if counted is None:
            columns, tally, report, roster = _read_csv(text, scale, candidates)
            # free the columns (one reference per row) before the collector
            # resumes: its first pass would walk them all
            del columns
        else:
            tally, report, roster = counted
        n_voters = report.n_ballots
        profiles = []
        for candidate in roster:
            counts = [tally[candidate.id, label] for label in scale.labels]
            counts[-1] += n_voters - sum(counts)
            profiles.append(GradeProfile(candidate.id, tuple(counts)))
    return ElectionProfile(scale, roster, tuple(profiles), n_voters), report, roster


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector: reading a long file allocates one
    list per row and makes no reference cycles, so its passes find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


#: the ASCII characters ``str.strip`` removes, less the line ends ``\n`` and ``\r``
_ASCII_SPACE = "\t\x0b\x0c\x1c\x1d\x1e\x1f "


def _count_lines(
    text: str, scale: GradeScale, candidates: Sequence[Candidate]
) -> "tuple[Counter, ParseReport, tuple[Candidate, ...]] | None":
    """The ``(candidate, grade)`` tally, report and roster of a clean text, of
    which :func:`_read_csv` keeps every row, or None for any other.

    A clean text has no ``"``, NUL or whitespace but CR and LF, so ``csv``
    splits it at commas and line ends alone and ``str.strip`` leaves its
    cells as they are.  Every other line break of ``str.splitlines`` is such
    whitespace, so its lines end at LF, CRLF and CR, where the csv reader's
    records end.  Blank lines are skipped, as ``_read_csv`` skips them.  Each
    of its row checks is a C-level pass over the lines or runs once per
    distinct ``"candidate,grade"`` tail (from ``str.partition``); a repeated
    ``(voter, candidate)`` pair is a repeated ``"voter,candidate"`` head (from
    ``str.rpartition``).  The first check that fails ends the proof.
    """
    if '"' in text or "\0" in text:
        return None
    if text.isascii():
        if any(map(text.__contains__, _ASCII_SPACE)):
            return None
    elif any(ch.isspace() for ch in set(text) if ch not in "\r\n"):
        return None
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(BALLOT_CSV_HEADER):
        return None
    rows = list(filter(None, islice(lines, 1, None)))
    limit = csv.field_size_limit()  # a longer field is an error of csv's
    tails = Counter(map(itemgetter(2), map(str.partition, rows, repeat(","))))
    tally: Counter = Counter()
    for tail, n in tails.items():
        cid, comma, grade = tail.partition(",")
        if not comma or "," in grade or max(len(cid), len(grade)) > limit:
            return None  # a ragged row, or a field the csv reader refuses
        tally[cid, grade] = n
    known, wrong = _roster(tally, scale, candidates)
    if wrong or not rows:
        return None
    if len(set(map(itemgetter(0), map(str.rpartition, rows, repeat(","))))) != len(rows):
        return None
    voters = set(map(itemgetter(0), map(str.partition, rows, repeat(","))))
    if "" in voters or max(map(len, voters)) > limit:
        return None
    report = ParseReport(n_rows=len(rows), n_ballots=len(voters))
    return tally, report, tuple(known.values())


def _roster(
    tally: Counter, scale: GradeScale, candidates: Sequence[Candidate]
) -> tuple[dict[str, Candidate], list[tuple[str, str]]]:
    """The candidates in effect, by id, and the keys of a ``(candidate,
    grade)`` tally that name a candidate or grade outside them.

    Without registered candidates every non-empty candidate of the tally is
    in effect, in first-appearance order: the order of the tally's keys.
    """
    registered = {c.id: c for c in candidates}
    known = registered or {cid: Candidate(cid) for cid, _ in tally if cid}
    wrong = [key for key in tally if key[0] not in known or key[1] not in scale.labels]
    return known, wrong


def _read_csv(
    text: str, scale: GradeScale, candidates: Sequence[Candidate]
) -> tuple[list[list[str]], Counter, ParseReport, tuple[Candidate, ...]]:
    """Read long-format CSV into the voter, candidate and grade columns of the
    rows it keeps, in file order, with their ``(candidate, grade)`` tally, the
    report and the roster.

    The checks run in the order a row-by-row reader would apply them: blank
    or ragged row, empty voter, unknown candidate (after roster inference),
    unknown grade, repeated ``(voter, candidate)``.  Each is first one pass of
    a C-level builtin over a column (``zip(*rows)`` is avoided, since it
    passes one argument per row).  Only a check that finds a bad row walks
    the rows, to give each its row number and reason, and drops them before
    the next check; a row thus gets at most one issue.
    """
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ValidationError(f"ballots are not valid CSV: {exc}") from None
    report = ParseReport()
    if not rows:
        report.notes.append("empty input: no ballots")
        return [[], [], []], Counter(), report, tuple(candidates)
    header = tuple(cell.strip() for cell in rows.pop(0))
    if header != BALLOT_CSV_HEADER:
        raise ValidationError(
            f"malformed header {header!r}; expected {BALLOT_CSV_HEADER!r}"
        )
    issues = report.issues
    report.n_rows = len(rows)  # less the blank rows, which are skipped
    lines: Sequence[int] = range(2, len(rows) + 2)
    if set(map(len, rows)) - {3}:
        bad = _where(map((3).__ne__, map(len, rows)))
        for i in bad:
            if any(map(str.strip, rows[i])):
                issues.append(
                    ParseIssue(lines[i], None, f"expected 3 fields, got {len(rows[i])}")
                )
            else:
                report.n_rows -= 1
        rows, lines = _drop(bad, rows, lines)
    voters, cids, grades = [
        list(map(str.strip, map(itemgetter(i), rows))) for i in range(3)
    ]
    # the row lists are the largest allocation: free them before the pair
    # table below is built, so the two never peak together
    del rows
    if "" in voters:
        bad = _where(map(not_, voters))
        for i in bad:
            if cids[i] or grades[i]:
                issues.append(ParseIssue(lines[i], None, "empty voter_id"))
            else:
                report.n_rows -= 1
        voters, cids, grades, lines = _drop(bad, voters, cids, grades, lines)
    tally = Counter(zip(cids, grades))
    known, wrong = _roster(tally, scale, candidates)
    if wrong:
        for key in wrong:
            del tally[key]
        bad = _where(map(set(wrong).__contains__, zip(cids, grades)))
        for i in bad:
            reason = (f"unknown candidate {cids[i]!r}" if cids[i] not in known
                      else f"unknown grade {grades[i]!r}")
            issues.append(ParseIssue(lines[i], voters[i], reason))
        voters, cids, grades, lines = _drop(bad, voters, cids, grades, lines)
    pairs = dict.fromkeys(zip(voters, cids), True)
    if len(pairs) != len(voters):
        # a pair's first row pops its True; each later row gets False
        bad = _where(map(not_, map(pairs.pop, zip(voters, cids), repeat(False))))
        for i in bad:
            tally[cids[i], grades[i]] -= 1
            issues.append(ParseIssue(
                lines[i], voters[i], f"duplicate grade for candidate {cids[i]!r}"
            ))
        voters, cids, grades, lines = _drop(bad, voters, cids, grades, lines)
    del pairs
    issues.sort(key=attrgetter("row"))
    if report.n_rows == 0:
        report.notes.append("empty input: no ballots")
    report.n_ballots = len(set(voters))
    return [voters, cids, grades], tally, report, tuple(known.values())


def _where(flags: Iterable[object]) -> list[int]:
    """The positions of the true flags."""
    return list(compress(count(), flags))


def _drop(bad: list[int], *columns: Sequence) -> list[list]:
    """Each column (all of one length) without the positions in ``bad``."""
    keep = [True] * len(columns[0])
    for i in bad:
        keep[i] = False
    return [list(compress(column, keep)) for column in columns]


def _parse_ballots_json(
    text: str, scale: GradeScale, candidates: Sequence[Candidate]
) -> tuple[list[Ballot], ParseReport, tuple[Candidate, ...]]:
    report = ParseReport()
    document = _load_json(text, ValidationError, "ballots are not valid JSON")
    if not isinstance(document, list):
        raise ValidationError("JSON ballots must be a list of objects")
    registered = {c.id: c for c in candidates}
    infer = not registered
    roster: dict[str, Candidate] = dict(registered)
    ballots: list[Ballot] = []
    seen: set[str] = set()
    for index, entry in enumerate(document, start=1):
        report.n_rows += 1
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("voter_id"), str)
            or not isinstance(entry.get("grades", {}), dict)
        ):
            report.issues.append(
                ParseIssue(index, None, "entry needs 'voter_id' and 'grades' object")
            )
            continue
        voter = entry["voter_id"]
        if not voter:
            report.issues.append(ParseIssue(index, None, "empty voter_id"))
            continue
        if voter in seen:
            report.issues.append(ParseIssue(index, voter, "duplicate voter_id"))
            continue
        seen.add(voter)
        kept: dict[str, str] = {}
        for cid, grade in entry.get("grades", {}).items():
            if infer and cid and cid not in roster:
                roster[cid] = Candidate(cid)
            if cid not in roster:
                report.issues.append(
                    ParseIssue(index, voter, f"unknown candidate {cid!r}", grade_only=True)
                )
                continue
            if not isinstance(grade, str) or grade not in scale.labels:
                report.issues.append(
                    ParseIssue(index, voter, f"unknown grade {grade!r}", grade_only=True)
                )
                continue
            kept[cid] = grade
        ballots.append(Ballot(voter, kept))
    if not document:
        report.notes.append("empty input: no ballots")
    _flag_blank_ballots(ballots, report)
    report.n_ballots = len(ballots)
    return ballots, report, tuple(roster.values())


def _flag_blank_ballots(ballots: Sequence[Ballot], report: ParseReport) -> None:
    blank = [b.voter_id for b in ballots if not b.grades]
    if blank:
        report.notes.append(
            "ballots grading no candidate (count at the worst grade everywhere): "
            + ", ".join(blank)
        )


def ballots_to_csv(ballots: Sequence[Ballot]) -> str:
    """Serialize graded ballots in the long CSV format.

    A ballot grading no candidate has no rows to write and would silently
    vanish from the electorate on re-parse, so blank ballots are refused here;
    give them one explicit worst-grade row, or use the JSON format.
    """
    blank = [b.voter_id for b in ballots if not b.grades]
    if blank:
        raise ValidationError(
            f"blank ballots {blank!r} cannot be expressed in long CSV; "
            f"write an explicit worst-grade row or use JSON"
        )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BALLOT_CSV_HEADER)
    for ballot in ballots:
        for cid, grade in ballot.grades.items():
            writer.writerow([ballot.voter_id, cid, grade])
    return out.getvalue()


def parse_bracket_ballots(
    source: "str | Path | io.TextIOBase", candidates: Sequence[Candidate]
) -> "tuple[list[BracketBallot], ParseReport]":
    """Read bracket ballots (JSON list) for a known candidate roster."""
    from .bracket import bracket_tree

    document = _bracket_document(source)
    return _parse_bracket_entries(document, len(bracket_tree([c.id for c in candidates])))


def count_bracket_ballots(
    source: "str | Path | io.TextIOBase", candidates: Sequence[Candidate]
) -> "tuple[tuple[int, Counter[tuple[str, ...]]], ParseReport]":
    """Read bracket ballots straight into the counts ``bracket_from_counts``
    takes: the accept marks, and how many ballots carry each tuple of half
    marks.

    Returns what counting :func:`parse_bracket_ballots`' ballots gives, with
    the same report.  A document whose columns prove that the per-entry
    reader keeps every entry is counted from those columns, with no
    ``BracketBallot`` objects; any other is read entry by entry.
    """
    from .bracket import _count_marks, bracket_tree

    with _gc_paused():
        document = _bracket_document(source)
        n_nodes = len(bracket_tree([c.id for c in candidates]))
        counted = _count_bracket_columns(document, n_nodes)
        if counted is None:
            ballots, report = _parse_bracket_entries(document, n_nodes)
            counted = _count_marks(ballots), report
            del ballots
        # free the document before the collector resumes, as count_ballots does
        del document
    return counted


def _bracket_document(source: "str | Path | io.TextIOBase") -> list:
    document = _load_json(
        _read_text(source), ValidationError, "bracket ballots are not valid JSON"
    )
    if not isinstance(document, list):
        raise ValidationError("bracket ballots must be a JSON list of objects")
    return document


def _count_bracket_columns(
    document: list, n_nodes: int
) -> "tuple[tuple[int, Counter[tuple[str, ...]]], ParseReport] | None":
    """The counts and report of a document whose columns prove that
    :func:`_parse_bracket_entries` keeps every entry, or None: then nothing is
    proved.  The half marks are checked once per distinct tuple of them."""
    if set(map(type, document)) != {dict}:  # also refuses an empty document
        return None
    try:
        voters, accepts, choices = (
            list(map(itemgetter(key), document)) for key in ("voter_id", "accept", "choices")
        )
    except KeyError:
        return None
    if (set(map(type, voters)) != {str} or len(set(voters)) != len(voters) or "" in voters
            or set(map(type, accepts)) != {bool} or set(map(type, choices)) != {list}):
        return None
    try:
        kinds = Counter(map(tuple, choices))
    except TypeError:  # a mark that is a list or an object
        return None
    if any(len(kind) != n_nodes or not set(kind) <= {"upper", "lower"} for kind in kinds):
        return None
    report = ParseReport(n_rows=len(document), n_ballots=len(document))
    return (accepts.count(True), kinds), report


def _parse_bracket_entries(
    document: list, n_nodes: int
) -> "tuple[list[BracketBallot], ParseReport]":
    from .bracket import BracketBallot

    report = ParseReport()
    ballots: list[BracketBallot] = []
    seen: set[str] = set()
    for index, entry in enumerate(document, start=1):
        report.n_rows += 1
        if not isinstance(entry, dict) or not isinstance(entry.get("voter_id"), str):
            report.issues.append(ParseIssue(index, None, "entry needs 'voter_id'"))
            continue
        voter = entry["voter_id"]
        if not voter:
            report.issues.append(ParseIssue(index, None, "empty voter_id"))
            continue
        if voter in seen:
            report.issues.append(ParseIssue(index, voter, "duplicate voter_id"))
            continue
        accept = entry.get("accept")
        choices = entry.get("choices")
        if not isinstance(accept, bool):
            report.issues.append(ParseIssue(index, voter, "'accept' must be a boolean"))
            continue
        if (
            not isinstance(choices, list)
            or not all(c in ("upper", "lower") for c in choices)
        ):
            report.issues.append(
                ParseIssue(index, voter, "'choices' must list \"upper\"/\"lower\" marks")
            )
            continue
        if len(choices) != n_nodes:
            report.issues.append(
                ParseIssue(
                    index, voter, f"expected {n_nodes} half marks, got {len(choices)}"
                )
            )
            continue
        seen.add(voter)
        ballots.append(BracketBallot(voter, accept, tuple(choices)))
    if not document:
        report.notes.append("empty input: no ballots")
    report.n_ballots = len(ballots)
    return ballots, report


def bracket_ballots_to_json(ballots: "Sequence[BracketBallot]") -> str:
    return json.dumps(
        [
            {"voter_id": b.voter_id, "accept": b.accept, "choices": list(b.half_choices)}
            for b in ballots
        ],
        indent=2,
    ) + "\n"


# --------------------------------------------------------------------------
# result rendering
# --------------------------------------------------------------------------

def percent_half_up(count: int, total: int) -> int:
    """Round 100*count/total half-up to a whole percent."""
    if total == 0:
        return 0
    return (200 * count + total) // (2 * total)


def _table(rows: list[list[str]], double_after: set[int]) -> str:
    """Plain text table; row indexes in ``double_after`` get a double rule below."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        cells = [
            cell.ljust(widths[i]) if i in (0, 1) else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
        if index in double_after:
            lines.append("=" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def render_result(result: RankedResult, fmt: str = "table") -> str:
    """Render a ranking as ``table``, ``json``, or ``csv``."""
    if fmt == "table":
        return _render_table(result)
    if fmt == "json":
        return _render_json(result)
    if fmt == "csv":
        return _render_csv(result)
    raise ConfigError(f"unknown result format {fmt!r}")


def _extra_columns(result: RankedResult) -> list[tuple[str, object]]:
    if result.method == "mj":
        return [("majority", lambda e: e.majority_grade or "")]
    if result.method == "mj3":
        return [
            ("score", lambda e: str(e.score)),
            ("tiebreak", lambda e: str(e.tiebreak)),
        ]
    return []


def _render_table(result: RankedResult) -> str:
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
                *(
                    str(percent_half_up(c, result.n_voters))
                    for c in entry.counts
                ),
                *(str(fetch(entry)) for _, fetch in extras),
            ]
        )
        nxt = (
            result.entries[index + 1] if index + 1 < len(result.entries) else None
        )
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
            lines.append(
                f"borderline: {cid} approved by exactly half the electorate"
            )
    lines.append(f"{result.n_voters} ballots")
    return "\n".join(lines) + "\n"


def _render_json(result: RankedResult) -> str:
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
                "percent": [
                    percent_half_up(c, result.n_voters) for c in e.counts
                ],
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


def parse_result_json(text: str) -> RankedResult:
    """Re-parse a JSON result document (inverse of the json renderer)."""
    document = json.loads(text)
    entries = tuple(
        RankedEntry(
            rank=e["rank"],
            candidate=e["candidate"],
            name=e["name"],
            counts=tuple(e["counts"]),
            block=Block(e["block"]) if e.get("block") else None,
            majority_grade=e.get("majority_grade"),
            score=e.get("score"),
            tiebreak=e.get("tiebreak"),
        )
        for e in document["entries"]
    )
    return RankedResult(
        method=document["method"],
        scale=GradeScale(tuple(document["scale"])),
        n_voters=document["n_voters"],
        entries=entries,
        tie_groups=tuple(tuple(g) for g in document["tie_groups"]),
        rejected=document["rejected"],
    )


def _render_csv(result: RankedResult) -> str:
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


def render_bracket(result: "BracketResult", fmt: str = "table") -> str:
    """Render a bracket outcome as ``table``, ``json``, or ``csv``."""
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
        writer.writerow(
            ["step", "candidates", "votes_upper", "votes_lower", "chosen", "tie"]
        )
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
        lines.append(
            f"ballot accepted ({result.accept_yes} yes, {result.accept_no} no)"
        )
    else:
        lines.append(
            f"ballot rejected ({result.accept_yes} yes, {result.accept_no} no): "
            "no winner"
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
