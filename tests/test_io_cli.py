"""Wire formats (config, ballots, results) and the command-line interface."""

import io
import json

import pytest

from gradevote import (
    APPROVAL_SCALE,
    Ballot,
    Candidate,
    ConfigError,
    ElectionConfig,
    GradeScale,
    ValidationError,
    ballots_to_csv,
    bracket_ballots_to_json,
    build_profiles,
    config_to_json,
    load_config,
    mj3_rank,
    mj_rank,
    approval_rank,
    bracket_elect,
    parse_ballots,
    parse_bracket_ballots,
    parse_result_json,
    percent_half_up,
    render_bracket,
    render_result,
)
from gradevote.ballot_io import BALLOT_CSV_HEADER, REJECTED_BANNER
from gradevote.cli import main
from gradevote.fixtures import (
    bracket_bias,
    greater_smalltown,
    school_outing,
    school_outing_3grade,
)

SCALE3 = GradeScale(("positive", "neutral", "negative"))


# ---------------------------------------------------------------------------
# election config
# ---------------------------------------------------------------------------

def test_load_full_config():
    doc = {
        "method": "mj",
        "scale": ["Cool!", "Nice", "Ok", "Help, no!"],
        "candidates": [
            {"id": "high-ropes", "name": "High ropes course"},
            {"id": "zoo", "name": "Zoo", "party": "none", "profession": "zoo"},
        ],
        "options": {"limit": 10, "seed": 7},
    }
    config = load_config(io.StringIO(json.dumps(doc)))
    assert config.method == "mj"
    assert config.scale.labels == ("Cool!", "Nice", "Ok", "Help, no!")
    assert [c.id for c in config.candidates] == ["high-ropes", "zoo"]
    assert config.candidates[1].party == "none"
    assert config.limit == 10
    assert config.seed == 7


def test_config_round_trip():
    config = ElectionConfig(
        method="approval3",
        scale=None,
        candidates=(Candidate("a", "Ann"), Candidate("b", "Bob", party="P")),
        limit=9,
        seed=3,
    )
    again = load_config(io.StringIO(config_to_json(config)))
    assert again == config


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(io.StringIO('{"method": "mj", "surprise": 1}'))
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(io.StringIO("{"))
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(io.StringIO("[1]"))
    with pytest.raises(ConfigError, match="string 'method'"):
        load_config(io.StringIO("{}"))
    with pytest.raises(ConfigError, match="unknown method"):
        load_config(io.StringIO('{"method": "borda"}'))
    with pytest.raises(ConfigError, match="string 'id'"):
        load_config(io.StringIO('{"method": "mj", "candidates": [{"name": "x"}]}'))
    with pytest.raises(ConfigError, match="at least 2"):
        load_config(io.StringIO('{"method": "mj", "options": {"limit": 1}}'))
    with pytest.raises(ConfigError, match="'candidates' must be a list"):
        load_config(io.StringIO('{"method": "mj", "candidates": null}'))
    for key in ("name", "party", "profession"):
        with pytest.raises(ConfigError, match=f"#1 '{key}' must be a string"):
            load_config(io.StringIO(
                '{"method": "mj", "candidates": [{"id": "a", "%s": [1]}]}' % key
            ))


def test_method_scale_pairing():
    assert ElectionConfig("approval3", None).scale == APPROVAL_SCALE
    assert ElectionConfig("mj3", None).scale == SCALE3
    assert ElectionConfig("mj", None).scale == SCALE3
    assert ElectionConfig("bracket", None).scale is None
    custom = GradeScale(("yes", "meh", "no"))
    assert ElectionConfig("mj3", custom).scale == custom
    with pytest.raises(ConfigError, match="fixed scale"):
        ElectionConfig("approval3", custom)
    with pytest.raises(ConfigError, match="3-grade scale"):
        ElectionConfig("mj3", GradeScale(("a", "b", "c", "d")))


# ---------------------------------------------------------------------------
# ballot CSV
# ---------------------------------------------------------------------------

TOWN3 = (Candidate("cathy"), Candidate("jenny"), Candidate("uma"))


def test_unlisted_candidates_complete_to_worst():
    text = "voter_id,candidate,grade\nv1,cathy,strong\nv1,jenny,weak\n"
    ballots, report, roster = parse_ballots(
        io.StringIO(text), APPROVAL_SCALE, TOWN3
    )
    assert report.ok
    assert roster == TOWN3
    election = build_profiles(APPROVAL_SCALE, roster, ballots)
    assert election.profile_of("cathy").counts == (1, 0, 0)
    assert election.profile_of("jenny").counts == (0, 1, 0)
    assert election.profile_of("uma").counts == (0, 0, 1)


def test_candidates_inferred_in_first_appearance_order():
    text = "voter_id,candidate,grade\nv1,zoe,strong\nv2,abe,weak\nv2,zoe,none\n"
    ballots, report, roster = parse_ballots(io.StringIO(text), APPROVAL_SCALE)
    assert report.ok
    assert [c.id for c in roster] == ["zoe", "abe"]
    assert len(ballots) == 2


def test_empty_input_is_a_note_not_an_error():
    ballots, report, roster = parse_ballots(io.StringIO(""), APPROVAL_SCALE, TOWN3)
    assert ballots == []
    assert report.ok
    assert any("empty input" in note for note in report.notes)

    header_only = "voter_id,candidate,grade\n"
    ballots, report, _ = parse_ballots(io.StringIO(header_only), APPROVAL_SCALE, TOWN3)
    assert ballots == []
    assert any("empty input" in note for note in report.notes)


def test_malformed_header_raises():
    with pytest.raises(ValidationError, match="malformed header"):
        parse_ballots(io.StringIO("voter,candidate,grade\n"), APPROVAL_SCALE, TOWN3)


def test_bad_rows_are_rejected_individually():
    text = (
        "voter_id,candidate,grade\n"
        "v1,cathy,strong\n"
        "v1,cathy,weak\n"          # duplicate (voter, candidate)
        "v2,nobody,strong\n"       # unknown candidate
        "v3,jenny,fantastic\n"     # unknown grade
        "v4,uma\n"                 # wrong arity
        ",uma,weak\n"              # empty voter id
        "v5,uma,none\n"
    )
    ballots, report, _ = parse_ballots(io.StringIO(text), APPROVAL_SCALE, TOWN3)
    assert not report.ok
    assert report.n_rows == 7
    reasons = [(issue.row, issue.reason) for issue in report.issues]
    assert reasons == [
        (3, "duplicate grade for candidate 'cathy'"),
        (4, "unknown candidate 'nobody'"),
        (5, "unknown grade 'fantastic'"),
        (6, "expected 3 fields, got 2"),
        (7, "empty voter_id"),
    ]
    # every valid row still counts: v1 strong, v2/v3 dropped rows only, v5 kept
    by_voter = {b.voter_id: b.grades for b in ballots}
    assert by_voter == {"v1": {"cathy": "strong"}, "v5": {"uma": "none"}}


def test_blank_lines_are_skipped():
    text = "voter_id,candidate,grade\n\nv1,cathy,strong\n\n"
    ballots, report, _ = parse_ballots(io.StringIO(text), APPROVAL_SCALE, TOWN3)
    assert report.ok
    assert report.n_rows == 1
    assert len(ballots) == 1


def test_csv_round_trip_reproduces_the_town_tallies():
    fx = greater_smalltown()
    text = ballots_to_csv(fx.ballots)
    ballots, report, roster = parse_ballots(
        io.StringIO(text), fx.scale, fx.candidates
    )
    assert report.ok
    assert report.n_ballots == 100
    election = build_profiles(fx.scale, roster, ballots)
    assert election.profile_of("cathy").counts == (50, 20, 30)
    assert election.profile_of("jenny").counts == (45, 35, 20)
    assert election.profile_of("elsa").counts == (25, 60, 15)
    assert election.profile_of("belinda").counts == (10, 80, 10)
    assert election.profile_of("ines").counts == (44, 10, 46)
    assert election.profile_of("uma").counts == (16, 1, 83)


def test_blank_ballots_cannot_be_written_as_csv():
    with pytest.raises(ValidationError, match="blank ballots"):
        ballots_to_csv([Ballot("v1", {"a": "strong"}), Ballot("v2", {})])


# ---------------------------------------------------------------------------
# ballot JSON
# ---------------------------------------------------------------------------

def test_json_ballots_parse_and_flag_blanks():
    doc = [
        {"voter_id": "v1", "grades": {"cathy": "strong", "jenny": "weak"}},
        {"voter_id": "v2", "grades": {}},
        {"voter_id": "v1", "grades": {"uma": "none"}},   # duplicate voter
        {"voter_id": "v3", "grades": {"cathy": "superb"}},  # unknown grade
        "not an object",
    ]
    ballots, report, _ = parse_ballots(
        io.StringIO(json.dumps(doc)), APPROVAL_SCALE, TOWN3
    )
    assert [b.voter_id for b in ballots] == ["v1", "v2", "v3"]
    assert ballots[1].grades == {}
    assert ballots[2].grades == {}  # bad grade rejected, ballot kept
    assert [issue.reason for issue in report.issues] == [
        "duplicate voter_id",
        "unknown grade 'superb'",
        "entry needs 'voter_id' and 'grades' object",
    ]
    assert any("grading no candidate" in note for note in report.notes)


def test_json_dispatch_by_suffix(tmp_path):
    path = tmp_path / "ballots.json"
    path.write_text(
        json.dumps([{"voter_id": "v1", "grades": {"cathy": "strong"}}]),
        encoding="utf-8",
    )
    ballots, report, _ = parse_ballots(path, APPROVAL_SCALE, TOWN3)
    assert report.ok
    assert ballots[0].grades == {"cathy": "strong"}


# ---------------------------------------------------------------------------
# bracket ballot JSON
# ---------------------------------------------------------------------------

def test_bracket_ballots_round_trip():
    fx = bracket_bias()
    text = bracket_ballots_to_json(fx.bracket_ballots)
    ballots, report = parse_bracket_ballots(io.StringIO(text), fx.candidates)
    assert report.ok
    assert ballots == list(fx.bracket_ballots)


def test_bracket_ballot_validation():
    candidates = [Candidate("a"), Candidate("b"), Candidate("c")]
    doc = [
        {"voter_id": "v1", "accept": True, "choices": ["upper", "lower"]},
        {"voter_id": "v1", "accept": True, "choices": ["upper", "upper"]},
        {"voter_id": "v2", "accept": "yes", "choices": ["upper", "lower"]},
        {"voter_id": "v3", "accept": False, "choices": ["upper"]},
        {"voter_id": "v4", "accept": True, "choices": ["upper", "sideways"]},
        {"grades": {}},
    ]
    ballots, report = parse_bracket_ballots(io.StringIO(json.dumps(doc)), candidates)
    assert [b.voter_id for b in ballots] == ["v1"]
    reasons = [issue.reason for issue in report.issues]
    assert reasons == [
        "duplicate voter_id",
        "'accept' must be a boolean",
        "expected 2 half marks, got 1",
        "'choices' must list \"upper\"/\"lower\" marks",
        "entry needs 'voter_id'",
    ]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_percent_rounds_half_up():
    assert percent_half_up(1, 8) == 13    # 12.5 -> 13
    assert percent_half_up(3, 8) == 38    # 37.5 -> 38
    assert percent_half_up(1, 3) == 33
    assert percent_half_up(2, 3) == 67
    assert percent_half_up(1, 200) == 1   # 0.5 -> 1
    assert percent_half_up(0, 9) == 0
    assert percent_half_up(9, 9) == 100
    assert percent_half_up(0, 0) == 0


def _town_result():
    fx = greater_smalltown()
    return approval_rank(build_profiles(fx.scale, fx.candidates, fx.ballots))


def test_town_table_layout():
    rendered = render_result(_town_result(), "table")
    lines = rendered.splitlines()
    assert lines[0].split() == ["rank", "candidate", "strong", "weak", "none"]
    double_rules = [i for i, line in enumerate(lines) if set(line) == {"="}]
    assert len(double_rules) == 3  # below header, after rank 3, after rank 5
    assert lines[2].split() == ["1", "Cathy", "Competent", "50", "20", "30"]
    # the rules sit right after the third and fifth candidate rows
    assert lines[double_rules[1] - 1].split()[:3] == ["3", "Elsa", "Everywhere"]
    assert lines[double_rules[2] - 1].split()[:3] == ["5", "Ines", "Important"]
    assert lines[-1] == "100 ballots"
    assert REJECTED_BANNER not in rendered


def test_school_table_has_majority_column():
    fx = school_outing()
    result = mj_rank(build_profiles(fx.scale, fx.candidates, fx.ballots))
    rendered = render_result(result, "table")
    header, first = rendered.splitlines()[0], rendered.splitlines()[2]
    assert header.split() == ["rank", "candidate", "Cool!", "Nice", "Ok", "Help,", "no!", "majority"]
    assert first.split() == ["1", "Zoo", "0", "52", "0", "48", "Nice"]


def test_rejected_table_shows_banner_and_borderline():
    election = build_profiles(
        APPROVAL_SCALE,
        [Candidate("a"), Candidate("b")],
        [
            Ballot("v1", {"a": "strong"}),
            Ballot("v2", {"a": "weak", "b": "weak"}),
            Ballot("v3", {}),
            Ballot("v4", {"b": "none"}),
        ],
    )
    result = approval_rank(election)
    rendered = render_result(result, "table")
    lines = rendered.splitlines()
    assert lines[0] == REJECTED_BANNER
    assert "borderline: a approved by exactly half the electorate" in lines


def test_tied_table_lists_the_tie():
    election = build_profiles(
        SCALE3,
        [Candidate("a"), Candidate("b")],
        [Ballot("v1", {"a": "positive", "b": "positive"})],
    )
    rendered = render_result(mj3_rank(election), "table")
    assert "tied: a = b" in rendered.splitlines()


def test_json_round_trip_for_every_method():
    fx4 = school_outing()
    fx3 = school_outing_3grade()
    results = [
        _town_result(),
        mj_rank(build_profiles(fx4.scale, fx4.candidates, fx4.ballots)),
        mj3_rank(build_profiles(fx3.scale, fx3.candidates, fx3.ballots)),
    ]
    for result in results:
        again = parse_result_json(render_result(result, "json"))
        assert again == result


def test_json_document_fields():
    document = json.loads(render_result(_town_result(), "json"))
    assert document["method"] == "approval3"
    assert document["n_voters"] == 100
    assert document["rejected"] is False
    first = document["entries"][0]
    assert first["candidate"] == "cathy"
    assert first["counts"] == [50, 20, 30]
    assert first["percent"] == [50, 20, 30]
    assert first["block"] == "strong_majority"
    for entry in document["entries"]:
        assert sum(entry["counts"]) == 100
        assert all(value >= 0 for value in entry["counts"])
        assert abs(sum(entry["percent"]) - 100) <= 2


def test_csv_keeps_raw_counts():
    rendered = render_result(_town_result(), "csv")
    lines = rendered.splitlines()
    assert lines[0] == "rank,candidate,name,strong,weak,none,block,majority_grade,score,tiebreak"
    assert lines[1] == "1,cathy,Cathy Competent,50,20,30,strong_majority,,,"
    assert len(lines) == 7


def test_unknown_format_raises():
    with pytest.raises(ConfigError, match="unknown result format"):
        render_result(_town_result(), "xml")
    fx = bracket_bias()
    with pytest.raises(ConfigError, match="unknown result format"):
        render_bracket(bracket_elect(fx.candidates, fx.bracket_ballots), "xml")


def test_bracket_rendering():
    fx = bracket_bias()
    result = bracket_elect(fx.candidates, fx.bracket_ballots)

    table = render_bracket(result, "table")
    assert table.splitlines()[0] == "ballot accepted (5 yes, 0 no)"
    assert table.splitlines()[-1] == "winner: c1"

    document = json.loads(render_bracket(result, "json"))
    assert document["winner"] == "c1"
    assert document["accept"] == {"yes": 5, "no": 0, "accepted": True}
    assert [(step["votes_upper"], step["votes_lower"]) for step in document["trace"]] == [
        (3, 2), (4, 1), (3, 2)
    ]

    rows = render_bracket(result, "csv").splitlines()
    assert rows[0] == "step,candidates,votes_upper,votes_lower,chosen,tie"
    assert rows[-1].startswith("winner,c1")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write_fixture(tmp_path, name, *flags):
    assert main(["demo", name, "--outdir", str(tmp_path), *flags]) == 0
    config = tmp_path / f"{name}.config.json"
    suffix = "ballots.json" if name == "bracket-bias" else "ballots.csv"
    ballots = tmp_path / f"{name}.{suffix}"
    assert config.exists() and ballots.exists()
    return str(config), str(ballots)


def test_cli_demo_lists_fixtures(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    for name in ("school", "school3", "smalltown", "bracket-bias"):
        assert name in out


def test_cli_demo_unknown_fixture(capsys):
    assert main(["demo", "nonesuch"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_demo_refuses_an_outdir_under_a_file(tmp_path, capsys):
    # before, a NotADirectoryError traceback out of write_wire_files
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["demo", "smalltown", "--outdir", str(blocker / "x")]) == 1
    assert capsys.readouterr().err == f"error: cannot write {blocker / 'x'}: Not a directory\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("name", ["school", "school3", "smalltown", "bracket-bias"])
def test_demo_prints_what_tally_prints_on_its_own_files(tmp_path, capsys, name, fmt):
    config, ballots = _write_fixture(tmp_path, name, "--format", fmt)
    demo = capsys.readouterr().out
    assert main(["tally", "--config", config, "--ballots", ballots, "--format", fmt]) == 0
    assert capsys.readouterr().out == demo


def test_cli_tally_from_written_fixture(tmp_path, capsys):
    config, ballots = _write_fixture(tmp_path, "smalltown")
    capsys.readouterr()
    rc = main(["tally", "--config", config, "--ballots", ballots, "--format", "json"])
    assert rc == 0
    document = json.loads(capsys.readouterr().out)
    assert document["entries"][0]["candidate"] == "cathy"
    assert document["entries"][0]["counts"] == [50, 20, 30]


def test_cli_tally_reports_bad_rows(tmp_path, capsys):
    config, ballots = _write_fixture(tmp_path, "school")
    with open(ballots, "a", encoding="utf-8") as fh:
        fh.write("x01,zoo,Terrific\n")
    capsys.readouterr()
    rc = main(["tally", "--config", config, "--ballots", ballots])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown grade 'Terrific'" in captured.err
    assert "Zoo" in captured.out  # the valid rows were still tallied


def test_cli_tally_without_config_infers_candidates(tmp_path, capsys):
    path = tmp_path / "b.csv"
    path.write_text(
        "voter_id,candidate,grade\nv1,a,positive\nv2,b,negative\n", encoding="utf-8"
    )
    rc = main(["tally", "--method", "mj3", "--ballots", str(path), "--format", "json"])
    assert rc == 0
    document = json.loads(capsys.readouterr().out)
    assert [e["candidate"] for e in document["entries"]] == ["a", "b"]
    assert document["entries"][0]["counts"] == [1, 0, 1]


def test_cli_tally_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("voter_id,candidate,grade\nv1,a,positive\n")
    )
    rc = main(["tally", "--method", "mj3", "--ballots", "-", "--format", "json"])
    assert rc == 0
    document = json.loads(capsys.readouterr().out)
    assert document["entries"][0]["candidate"] == "a"


def test_cli_tally_refuses_a_closed_stdin(monkeypatch, capsys):
    # with fd 0 closed at start-up sys.stdin is None; before, a TypeError traceback
    monkeypatch.setattr("sys.stdin", None)
    assert main(["tally", "--method", "mj3", "--ballots", "-"]) == 1
    assert capsys.readouterr() == ("", "error: cannot read standard input: it is closed\n")


def test_cli_config_errors(tmp_path, capsys):
    assert main(["tally", "--ballots", "x.csv"]) == 2  # no config, no method
    assert main(["tally", "--method", "mj3"]) == 2     # no ballots
    config, _ = _write_fixture(tmp_path, "bracket-bias")
    assert main(["check", "--config", config, "--ballots", "x"]) == 2  # bracket
    capsys.readouterr()


def test_cli_bracket_tally(tmp_path, capsys):
    config, ballots = _write_fixture(tmp_path, "bracket-bias")
    capsys.readouterr()
    rc = main(["tally", "--config", config, "--ballots", ballots])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ballot accepted (5 yes, 0 no)" in out
    assert out.rstrip().endswith("winner: c1")


def test_cli_check_clean_three_grade_election(tmp_path, capsys):
    config, ballots = _write_fixture(tmp_path, "school3")
    capsys.readouterr()
    rc = main(["check", "--config", config, "--ballots", ballots, "--samples", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no-show search: 0 counterexample(s)" in out
    assert "consistency: 100 partitions" in out
    assert "result: ok" in out


def test_cli_check_skips_consistency_for_approval3(tmp_path, capsys):
    # the partition check decides by the mj3 score; before, an approval3
    # election got a consistency line about a rule it does not use
    config, ballots = _write_fixture(tmp_path, "smalltown")
    args = ["check", "--config", config, "--ballots", ballots,
            "--samples", "200", "--seed", "1"]
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "method: approval3" in out
    assert "consistency: skipped (the check decides partitions by the mj3 score" in out
    assert "partitions," not in out
    assert main(args + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["consistency"] is None


def test_cli_check_random_skips_the_consistency_sweep_for_approval3(tmp_path, capsys):
    # the random sweep draws mj3 elections; before, an approval3 election
    # printed its partition count right after the skipped consistency line
    config, ballots = _write_fixture(tmp_path, "smalltown")
    args = ["check", "--config", config, "--ballots", ballots,
            "--random", "5", "--seed", "1"]
    capsys.readouterr()
    assert main(args) == 0
    reason = "the check decides partitions by the mj3 score, not by approval3"
    assert capsys.readouterr().out.splitlines()[2:4] == [
        f"consistency: skipped ({reason})",
        f"random sweeps: 5 instances, consistency skipped ({reason}), 0 violation(s)",
    ]
    assert main(args + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["random_sweeps"] == {
        "n_instances": 5,
        "consistency_partitions": None,
        "consistency_violations": None,
        "consistency_skipped": reason,
        "polarization_violations": 0,
    }


def test_cli_check_skips_consistency_above_limit(tmp_path, capsys):
    config, ballots = _write_fixture(tmp_path, "school3")
    capsys.readouterr()
    rc = main(["check", "--config", config, "--ballots", ballots])
    out = capsys.readouterr().out
    assert rc == 0
    assert "consistency: skipped (21 ballots exceed the limit of 8" in out


def test_cli_check_finds_the_school_counterexample(tmp_path, capsys):
    config, ballots = _write_fixture(tmp_path, "school")
    capsys.readouterr()
    rc = main(["check", "--config", config, "--ballots", ballots, "--format", "json"])
    assert rc == 3
    document = json.loads(capsys.readouterr().out)
    assert document["violations_found"] is True
    no_show = document["no_show"]
    assert no_show["n_counterexamples"] == 1
    case = no_show["counterexamples"][0]
    assert case["kind"] == "removal"
    assert case["voter_id"] == "e01"
    assert case["before"] == "zoo"
    assert case["after"] == "high-ropes"


def test_cli_check_random_sweeps_and_probe(tmp_path, capsys):
    config, ballots = _write_fixture(tmp_path, "school3")
    capsys.readouterr()
    rc = main(
        [
            "check", "--config", config, "--ballots", ballots,
            "--random", "5", "--seed", "9", "--probe", "e01",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "random sweeps: 5 instances" in out
    assert "probe e01: 0 improving deviation(s) out of 8 (informational)" in out
    assert "result: ok" in out


def _nine_ballot_mj3(tmp_path):
    """A 9-ballot, 3-candidate mj3 election with a unique (S, T) top."""
    grades = ("positive", "neutral", "negative")
    rows = ["voter_id,candidate,grade"]
    for v in range(9):
        for c, cid in enumerate("abc"):
            rows.append(f"v{v + 1},{cid},{grades[(v + c * (v % 2 + 1)) % 3]}")
    path = tmp_path / "nine.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def _write_check(tmp_path, config, grades):
    """Paths of a config and of a CSV of ``grades``, one dict per voter."""
    config_path = tmp_path / "check.config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rows = ["voter_id,candidate,grade"] + [
        f"v{v + 1},{cid},{grade}" for v, ballot in enumerate(grades)
        for cid, grade in ballot.items()
    ]
    ballots_path = tmp_path / "check.csv"
    ballots_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["--config", str(config_path), "--ballots", str(ballots_path)]


def test_cli_check_covers_thirteen_candidates(tmp_path, capsys):
    # 3^13 = 1,594,323 extra ballots, decided without enumerating them
    ids = [f"c{i + 1}" for i in range(13)]
    grades = ("positive", "neutral", "negative")
    files = _write_check(
        tmp_path,
        {"method": "mj3", "candidates": [{"id": cid} for cid in ids]},
        [{cid: grades[(v + c) % 3 if c else v // 3] for c, cid in enumerate(ids)}
         for v in range(5)],
    )
    assert main(["check", *files, "--probe", "v1", "--samples", "50"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "method: mj3  ballots: 5  candidates: 13",
        "no-show search: 0 counterexample(s)",
        "consistency: 15 partitions, 0 matched the premise, 0 violation(s)",
        "probe v1: 0 improving deviation(s) out of 1594322 (informational)",
        "result: ok",
    ]


def _padded_mj_files(tmp_path, n_weak):
    """A 4-grade mj election whose extra ballot (a: g1, b: g0) elects a over
    b, with ``n_weak`` candidates graded worst by both voters: each grading
    of theirs makes another counterexample, 4^n_weak in all."""
    weak = [f"w{i + 1}" for i in range(n_weak)]
    config = {
        "method": "mj",
        "scale": ["g0", "g1", "g2", "g3"],
        "candidates": [{"id": cid} for cid in ("a", "b", *weak)],
    }
    grades = [{"a": "g0", "b": "g2"}, {"a": "g3", "b": "g2"}]
    return _write_check(
        tmp_path, config, [{**g, **dict.fromkeys(weak, "g3")} for g in grades]
    )


def test_cli_check_skips_only_a_section_past_the_output_cap(tmp_path, capsys):
    files = _padded_mj_files(tmp_path, 9)
    assert main(["check", *files, "--probe", "v2"]) == 3
    skipped = "262144 addition counterexamples exceed the output cap of 250000"
    assert capsys.readouterr().out.splitlines() == [
        "method: mj  ballots: 2  candidates: 11",
        f"no-show search: skipped ({skipped})",
        "consistency: skipped (needs a 3-grade scale and 2+ ballots)",
        "probe v2: 0 improving deviation(s) out of 4194303 (informational)",
        "result: PROPERTY VIOLATIONS FOUND",
    ]
    assert main(["check", *files, "--probe", "v2", "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["no_show"] == {
        "n_counterexamples": 4**9, "skipped": skipped, "counterexamples": []
    }
    assert report["probe"]["n_alternatives"] == 4**11 - 1
    # v1 grades a best, and 3^12 + 2^12 deviations elect a
    files = _padded_mj_files(tmp_path, 12)
    assert main(["check", *files, "--probe", "v1", "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["probe"] == {
        "voter_id": "v1",
        "n_improving": 3**12 + 2**12,
        "skipped": "535537 improving deviations exceed the output cap of 250000",
    }


def test_cli_check_lists_removals_past_the_addition_cap(tmp_path, capsys):
    # four extra ballots per grading of the eight weak candidates flip the
    # winner, and v1 leaving elects a, which v1 grades above b
    weak = [f"w{i + 1}" for i in range(8)]
    config = {
        "method": "mj",
        "scale": ["g0", "g1", "g2", "g3"],
        "candidates": [{"id": cid} for cid in ("a", "b", "c", *weak)],
    }
    vectors = [(0, 1, 1), (2, 0, 1), (2, 2, 1), (2, 2, 3), (2, 2, 3), (2, 3, 3)]
    files = _write_check(tmp_path, config, [
        {**{cid: f"g{g}" for cid, g in zip("abc", v)}, **dict.fromkeys(weak, "g3")}
        for v in vectors
    ])
    skipped = "262144 addition counterexamples exceed the output cap of 250000"
    grades = "a=g0, b=g1, c=g1, " + ", ".join(f"{w}=g3" for w in weak)
    assert main(["check", *files]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "method: mj  ballots: 6  candidates: 11",
        f"no-show search: skipped ({skipped})",
        f"  removal voter v1 ({grades}): b -> a",
        "consistency: skipped (needs a 3-grade scale and 2+ ballots)",
        "result: PROPERTY VIOLATIONS FOUND",
    ]
    assert main(["check", *files, "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["no_show"] == {
        "n_counterexamples": 4**9 + 1,
        "skipped": skipped,
        "counterexamples": [{
            "kind": "removal",
            "voter_id": "v1",
            "grades": {"a": "g0", "b": "g1", "c": "g1", **dict.fromkeys(weak, "g3")},
            "before": "b",
            "after": "a",
        }],
    }


def test_cli_unreadable_inputs_end_in_an_error_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["tally", "--method", "mj3", "--ballots", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "missing.csv" in err
    _, ballots = _write_fixture(tmp_path, "school3")
    capsys.readouterr()
    missing = str(tmp_path / "missing.json")
    assert main(["tally", "--config", missing, "--ballots", ballots]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_cli_oversize_csv_field_ends_in_an_error_line(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(
        "voter_id,candidate,grade\nv1,a," + "x" * 131_073 + "\n", encoding="utf-8"
    )
    for verb in ("tally", "check"):
        assert main([verb, "--method", "mj3", "--ballots", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ballots are not valid CSV: field larger")
        assert len(captured.err.splitlines()) == 1


def test_cli_config_value_errors_exit_2(tmp_path, capsys):
    config = tmp_path / "limit.json"
    config.write_text('{"method": "mj3", "options": {"limit": "many"}}')
    _, ballots = _write_fixture(tmp_path, "school3")
    capsys.readouterr()
    assert main(["check", "--config", str(config), "--ballots", ballots]) == 2
    assert "error: 'options.limit' must be an integer" in capsys.readouterr().err
    config = tmp_path / "bracket.json"
    config.write_text('{"method": "bracket", "candidates": [{"id": "solo"}]}')
    ballots = tmp_path / "bracket.ballots.json"
    ballots.write_text('[{"voter_id": "v1", "accept": true, "choices": []}]')
    assert main(["tally", "--config", str(config), "--ballots", str(ballots)]) == 2
    assert "error: bracket elections need at least two" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tally", "check"])
def test_cli_refuses_a_duplicate_candidate_id(tmp_path, capsys, command):
    config = tmp_path / "dup.json"
    config.write_text(
        '{"method": "mj3", "candidates": [{"id": "a", "name": "First"}, '
        '{"id": "a", "name": "Second"}, {"id": "b"}]}'
    )
    ballots = tmp_path / "dup.csv"
    ballots.write_text(
        "voter_id,candidate,grade\nv1,a,positive\nv1,b,negative\n"
        "v2,a,neutral\nv2,b,neutral\n"
    )
    assert main([command, "--config", str(config), "--ballots", str(ballots)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate candidate id 'a'\n"


@pytest.mark.parametrize("command", ["tally", "check"])
def test_cli_refuses_an_empty_grade_label(tmp_path, capsys, command):
    # an empty label would count empty grade cells as a grade
    config = tmp_path / "empty.json"
    config.write_text(
        '{"method": "mj", "scale": ["good", "", "bad"], "candidates": [{"id": "a"}]}'
    )
    ballots = tmp_path / "empty.csv"
    ballots.write_text("voter_id,candidate,grade\nv1,a,\nv2,a,good\n")
    assert main([command, "--config", str(config), "--ballots", str(ballots)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: empty grade label in scale ('good', '', 'bad')\n")


@pytest.mark.parametrize("limit", ["9.7", '"10"', "true", "null"])
def test_cli_check_refuses_a_limit_that_is_not_an_integer(tmp_path, capsys, limit):
    config = tmp_path / "limit.json"
    config.write_text('{"method": "mj3", "options": {"limit": %s}}' % limit)
    ballots = _nine_ballot_mj3(tmp_path)
    capsys.readouterr()
    assert main(["check", "--config", str(config), "--ballots", ballots]) == 2
    err = capsys.readouterr().err
    assert err == f"error: 'options.limit' must be an integer, got {json.loads(limit)!r}\n"


@pytest.mark.parametrize("flags, message", [
    (["--samples", "-5"], "--samples must be at least 1, got -5"),
    (["--samples", "0"], "--samples must be at least 1, got 0"),
    (["--limit", "-3"], "--limit must be at least 2, got -3"),
    (["--limit", "1"], "--limit must be at least 2, got 1"),
    (["--random", "-3"], "--random must be at least 0, got -3"),
])
def test_cli_check_refuses_flag_values_out_of_range(tmp_path, capsys, flags, message):
    # before, "--samples -5" reported "0 partitions ... [sampled]" and
    # "result: ok", "--random -3" reported "-3 instances", and "--limit -3"
    # got round the config's limit >= 2 rule
    ballots = _nine_ballot_mj3(tmp_path)
    capsys.readouterr()
    assert main(["check", "--method", "mj3", "--ballots", ballots, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("seed", ["[1]", '{"x": 1}', '"7"', "2.5", "false"])
@pytest.mark.parametrize("flags", [["--random", "2"], ["--samples", "20"]])
def test_cli_check_refuses_a_seed_that_is_not_an_integer(tmp_path, capsys, seed, flags):
    config = tmp_path / "seed.json"
    config.write_text('{"method": "mj3", "options": {"limit": 2, "seed": %s}}' % seed)
    ballots = _nine_ballot_mj3(tmp_path)
    capsys.readouterr()
    assert main(["check", "--config", str(config), "--ballots", ballots, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'options.seed' must be an integer or null, got ")
    assert "Traceback" not in err


def test_cli_writes_large_documents_in_pieces(tmp_path, monkeypatch):
    # a signal handler interrupting one large write to a full pipe can cut
    # the output short without an error; writes within the buffer cannot
    rows = ["voter_id,candidate,grade"] + [f"v1,c{i:03d},positive" for i in range(300)]
    path = tmp_path / "many.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["tally", "--method", "mj3", "--ballots", str(path)]) == 0
    text = out.getvalue()
    assert len(text) > 8192 and max(writes) <= 8192
    assert all(f"c{i:03d}" in text for i in range(300))
    assert text.endswith("1 ballots\n")


def test_cli_tally_accepts_a_utf8_bom(tmp_path, monkeypatch, capsys):
    data = b"\xef\xbb\xbfvoter_id,candidate,grade\nv1,a,positive\nv2,b,negative\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    for source in (str(path), "-"):
        rc = main(["tally", "--method", "mj3", "--ballots", source, "--format", "json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert [e["candidate"] for e in document["entries"]] == ["a", "b"]


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_cli_tally_reads_every_line_end_alike(end, tmp_path, monkeypatch, capsys):
    config, ballots = _write_fixture(tmp_path, "school3")
    capsys.readouterr()
    tally = ["tally", "--config", config, "--format", "json", "--ballots"]
    assert main(tally + [ballots]) == 0
    expected = capsys.readouterr().out
    data = (tmp_path / "school3.ballots.csv").read_bytes().replace(b"\n", end.encode())
    path = tmp_path / "ends.csv"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    for source in (str(path), "-"):
        assert main(tally + [source]) == 0
        assert capsys.readouterr().out == expected


def test_cli_tally_keeps_line_ends_inside_quoted_ids(tmp_path, monkeypatch, capsys):
    # "v\r1" and "v\n1" are two voters, from a path and from stdin
    data = b'voter_id,candidate,grade\r\n"v\r1",a,positive\r\n"v\n1",a,negative\r\n'
    path = tmp_path / "ids.csv"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    for source in (str(path), "-"):
        assert main(["tally", "--method", "mj3", "--ballots", source]) == 0
        out, err = capsys.readouterr()
        assert out.endswith("2 ballots\n") and err == ""
    # a warning names such an id by its repr, on one line
    path.write_bytes(data + b'"v\n1",a,neutral\n')
    assert main(["tally", "--method", "mj3", "--ballots", str(path)]) == 1
    assert capsys.readouterr().err == (
        "warning: row 4 voter 'v\\n1': duplicate grade for candidate 'a' (row rejected)\n"
    )


def test_cli_check_reports_distinct_sampled_coverage(tmp_path, capsys):
    ballots = _nine_ballot_mj3(tmp_path)
    base = ["check", "--method", "mj3", "--ballots", ballots, "--seed", "1"]
    assert main(base + ["--samples", "1000", "--format", "json"]) == 0
    consistency = json.loads(capsys.readouterr().out)["consistency"]
    assert consistency["n_partitions_checked"] == 2 ** 8 - 1
    assert consistency["sampled"] is False
    assert main(base + ["--samples", "200"]) == 0
    assert "consistency: 200 partitions" in capsys.readouterr().out


def test_cli_check_skips_consistency_on_a_tied_top(tmp_path, capsys):
    path = tmp_path / "tied.csv"
    path.write_text(
        "voter_id,candidate,grade\n"
        "v1,a,positive\nv1,b,positive\nv2,a,negative\nv2,b,negative\n",
        encoding="utf-8",
    )
    rc = main(["check", "--method", "mj3", "--ballots", str(path), "--format", "json"])
    assert rc == 0
    document = json.loads(capsys.readouterr().out)
    assert document["consistency"] is None
    assert document["no_show"]["n_counterexamples"] == 0
    assert main(["check", "--method", "mj3", "--ballots", str(path)]) == 0
    out = capsys.readouterr().out
    assert "consistency: skipped (combined election has no unique winner)" in out
    assert "no-show search: 0 counterexample(s)" in out


def test_cli_check_names_borderline_candidates_and_the_rejection(tmp_path, capsys):
    config = tmp_path / "approval.json"
    config.write_text('{"method": "approval3", "candidates": [{"id": "a"}, {"id": "b"}]}')
    ballots = tmp_path / "approval.csv"
    ballots.write_text("voter_id,candidate,grade\nv1,a,strong\nv2,b,weak\n")
    assert main(["check", "--config", str(config), "--ballots", str(ballots)]) == 0
    assert capsys.readouterr() == (
        "method: approval3  ballots: 2  candidates: 2\n"
        "no-show search: 0 counterexample(s)\n"
        "consistency: skipped (the check decides partitions by the mj3 score, "
        "not by approval3)\n"
        "borderline: a approved by exactly half the electorate\n"
        "borderline: b approved by exactly half the electorate\n"
        f"{REJECTED_BANNER}\n"
        "result: ok\n",
        "",
    )


def _check_json(tmp_path, capsys, method, ballots):
    config = tmp_path / "check.json"
    config.write_text(f'{{"method": "{method}", "candidates": [{{"id": "a"}}, {{"id": "b"}}]}}')
    (tmp_path / "check.csv").write_text("voter_id,candidate,grade\n" + ballots)
    rc = main(["check", "--config", str(config), "--ballots", str(tmp_path / "check.csv"),
               "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


def test_cli_check_json_states_the_approval3_rejection(tmp_path, capsys):
    rc, report = _check_json(tmp_path, capsys, "approval3", "v1,a,strong\nv2,b,weak\n")
    assert rc == 0
    assert list(report)[-3:] == ["borderline", "rejected", "violations_found"]
    assert (report["borderline"], report["rejected"]) == (["a", "b"], True)
    rc, report = _check_json(tmp_path, capsys, "approval3", "v1,a,strong\nv2,a,weak\n")
    assert (rc, report["borderline"], report["rejected"]) == (0, [], False)


def test_cli_check_json_of_other_methods_has_no_rejected_key(tmp_path, capsys):
    for method, grade in (("mj3", "positive"), ("mj", "positive")):
        rc, report = _check_json(tmp_path, capsys, method, f"v1,a,{grade}\nv2,b,{grade}\n")
        assert rc == 0
        assert "rejected" not in report and "borderline" not in report


def _tally(tmp_path, capsys, config, ballots, name="ballots.json", verb="tally"):
    """Exit code, stdout and stderr of ``tally`` (or ``verb``) on a config and
    a ballot text."""
    (tmp_path / "config.json").write_text(config)
    (tmp_path / name).write_text(ballots)
    rc = main([verb, "--config", str(tmp_path / "config.json"),
               "--ballots", str(tmp_path / name)])
    return (rc, *capsys.readouterr())


MJ3_A = '{"method": "mj3", "candidates": [{"id": "a"}]}'
BRACKET_AB = '{"method": "bracket", "candidates": [{"id": "a"}, {"id": "b"}]}'


def test_cli_tally_refuses_grade_ballots_that_are_not_json(tmp_path, capsys):
    assert _tally(tmp_path, capsys, MJ3_A, '[{"voter_id": "v1", "grades": {') == (
        1, "",
        "error: ballots are not valid JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 32 (char 31)\n",
    )


def test_cli_tally_drops_a_json_grade_for_an_unregistered_candidate(tmp_path, capsys):
    # the entry's other grades still count, and the warning says so
    ballots = '[{"voter_id": "v1", "grades": {"a": "positive", "zz": "neutral"}}]'
    assert _tally(tmp_path, capsys, MJ3_A, ballots) == (
        1,
        "rank  candidate  positive  neutral  negative  score  tiebreak\n"
        "=============================================================\n"
        "1     a               100        0         0      1         0\n"
        "1 ballots\n",
        "warning: row 1 voter v1: unknown candidate 'zz' (only this grade dropped)\n",
    )


def test_cli_tally_drops_a_json_grade_with_an_unknown_label(tmp_path, capsys):
    ballots = ('[{"voter_id": "v1", "grades": {"a": "great"}}, '
               '{"voter_id": "v2", "grades": {"a": "negative"}}]')
    rc, out, err = _tally(tmp_path, capsys, MJ3_A, ballots)
    assert (rc, out.splitlines()[-1]) == (1, "2 ballots")
    assert err == ("warning: row 1 voter v1: unknown grade 'great' (only this grade dropped)\n"
                   "note: ballots grading no candidate (count at the worst grade "
                   "everywhere): v1\n")


def test_cli_tally_still_rejects_whole_json_entries(tmp_path, capsys):
    ballots = ('[{"voter_id": "v1", "grades": {"a": "positive"}}, '
               '{"voter_id": "v1", "grades": {"a": "negative"}}, 3]')
    assert _tally(tmp_path, capsys, MJ3_A, ballots)[::2] == (
        1,
        "warning: row 2 voter v1: duplicate voter_id (row rejected)\n"
        "warning: row 3: entry needs 'voter_id' and 'grades' object (row rejected)\n",
    )


def test_cli_tally_drops_a_json_grade_for_an_empty_candidate_id(tmp_path, capsys):
    # with no registered candidates only non-empty ids are inferred, so the
    # empty one is dropped as an unknown candidate, as in CSV
    ballots = '[{"voter_id": "v1", "grades": {"": "positive", "a": "neutral"}}]'
    assert _tally(tmp_path, capsys, '{"method": "mj3"}', ballots) == (
        1,
        "rank  candidate  positive  neutral  negative  score  tiebreak\n"
        "=============================================================\n"
        "1     a                 0      100         0      0         0\n"
        "1 ballots\n",
        "warning: row 1 voter v1: unknown candidate '' (only this grade dropped)\n",
    )


@pytest.mark.parametrize("config, ballots, counted", [
    (MJ3_A, '[{"voter_id": "", "grades": {"a": "positive"}}, '
            '{"voter_id": "v2", "grades": {"a": "negative"}}]', "1 ballots"),
    (BRACKET_AB, '[{"voter_id": "", "accept": true, "choices": ["upper"]}, '
                 '{"voter_id": "v2", "accept": false, "choices": ["lower"]}]',
     "ballot rejected (0 yes, 1 no): no winner"),
    (MJ3_A, '[{"voter_id": " ", "grades": {"a": "positive"}}, '
            '{"voter_id": "v2", "grades": {"a": "negative"}}]', "1 ballots"),
    (BRACKET_AB, '[{"voter_id": "\\t", "accept": true, "choices": ["upper"]}, '
                 '{"voter_id": "v2", "accept": false, "choices": ["lower"]}]',
     "ballot rejected (0 yes, 1 no): no winner"),
])
def test_cli_tally_rejects_a_json_entry_with_an_empty_voter_id(
    config, ballots, counted, tmp_path, capsys
):
    # as CSV rejects a row whose voter_id is empty once stripped (the last
    # two); the entry after it counts
    rc, out, err = _tally(tmp_path, capsys, config, ballots)
    assert (rc, err) == (1, "warning: row 1: empty voter_id (row rejected)\n")
    assert counted in out.splitlines()


def test_cli_tally_refuses_bracket_ballots_that_are_an_object(tmp_path, capsys):
    ballots = '{"voter_id": "v1", "accept": true, "choices": ["upper"]}'
    assert _tally(tmp_path, capsys, BRACKET_AB, ballots) == (
        1, "", "error: bracket ballots must be a JSON list of objects\n",
    )


def test_cli_tally_refuses_an_empty_bracket_list(tmp_path, capsys):
    assert _tally(tmp_path, capsys, BRACKET_AB, "[]") == (
        1, "",
        "note: empty input: no ballots\n"
        "error: cannot run a bracket election without ballots\n",
    )


def test_cli_tally_renders_a_rejected_bracket_ballot(tmp_path, capsys):
    ballots = ('[{"voter_id": "v1", "accept": false, "choices": ["upper"]}, '
               '{"voter_id": "v2", "accept": false, "choices": ["lower"]}]')
    assert _tally(tmp_path, capsys, BRACKET_AB, ballots) == (
        0,
        "ballot rejected (0 yes, 2 no): no winner\n"
        "step  candidates  upper  lower       chosen\n"
        "===========================================\n"
        "1     a b             1      1  upper (tie)\n",
        "",
    )


#: JSON values that json.loads refuses although their syntax holds: nesting
#: past the recursion limit, and an integer over the digit limit of int
UNLOADABLE = {"nested": "[" * 200_000, "long integer": "9" * 5_000}
#: per reader: a config and a ballot file that hold the value, and the error
JSON_READERS = {
    "config": ('{"method": "mj3", "options": {"limit": %s}}',
               "voter_id,candidate,grade\nv1,a,positive\n", "ballots.csv",
               2, "config is not valid JSON"),
    "grade ballots": (MJ3_A, '[{"voter_id": "v1", "grades": {"a": %s}}]', "ballots.json",
                      1, "ballots are not valid JSON"),
    "bracket ballots": (BRACKET_AB, '[{"voter_id": "v1", "accept": %s}]', "ballots.json",
                        1, "bracket ballots are not valid JSON"),
}


@pytest.mark.parametrize("value", list(UNLOADABLE))
@pytest.mark.parametrize("reader, verb", [
    ("config", "tally"), ("config", "check"),
    ("grade ballots", "tally"), ("grade ballots", "check"),
    ("bracket ballots", "tally"),  # check refuses a bracket config first
])
def test_cli_unloadable_json_ends_in_an_error_line(
    reader, verb, value, tmp_path, capsys
):
    config, ballots, name, rc, message = JSON_READERS[reader]
    if reader == "config":
        config %= UNLOADABLE[value]
    else:
        ballots %= UNLOADABLE[value]
    got, out, err = _tally(tmp_path, capsys, config, ballots, name, verb)
    assert (got, out) == (rc, "")
    assert err.startswith(f"error: {message}: ") and err.count("\n") == 1
    assert "Traceback" not in err
