"""The package root: one export table, each module imported on first use.

The tests of what an import loads run in a fresh interpreter, since the
modules this test process has already imported would hide it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the public names of the package, as its hand-written ``__all__`` listed them
PUBLIC = [
    "APPROVAL_SCALE", "AltScores", "ApprovalTally", "Ballot", "Block", "BracketBallot",
    "BracketNode", "BracketResult", "Candidate", "ConfigError", "ConsistencyViolation",
    "CrossMethodReport", "ElectionConfig", "ElectionProfile", "FIXTURES", "Fixture",
    "GradeProfile", "GradeScale", "MajorityGrade", "ManipulationReport",
    "NoShowCounterexample", "NoShowSweepReport", "NodeDecision", "Outcome", "ParseIssue",
    "ParseReport", "PartitionCheckReport", "PolarizationShift", "RankedEntry",
    "RankedResult", "ScorePair", "Tally3", "ValidationError", "VoteError", "alt_scores",
    "approval_rank", "ballots_to_csv", "borderline_candidates", "bracket_ballots_to_json",
    "bracket_elect", "bracket_tree", "build_profiles", "check_consistency",
    "check_consistency_splits", "classify_block", "config_to_json", "count_ballots",
    "election_from_counts", "load_config", "load_fixture", "majority_grade",
    "majority_value", "manipulation_probe", "mj3_rank", "mj_rank", "outcome_from_counts",
    "outcome_of", "parse_ballots", "parse_bracket_ballots", "parse_result_json",
    "percent_half_up", "polarization_sweep", "polarize", "random_consistency_sweep",
    "render_bracket", "render_result", "score3", "search_cross_method_disagreements",
    "search_no_show", "search_no_show_exhaustive", "sincere_ballot",
]

#: every submodule a bare ``import gradevote`` gives access to
MODULES = ["approval", "ballot_io", "bracket", "core", "fixtures", "methods", "mj", "mj3",
           "properties", "results"]


def _fresh(code):
    """What ``code`` prints as JSON on its last line, run in a new interpreter."""
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    return json.loads(child.stdout.splitlines()[-1])


_LOADED = ("json.dumps(sorted(m for m in sys.modules "
           "if m.startswith('gradevote.')))")


def test_importing_the_root_loads_no_module():
    assert _fresh(f"import json, sys\nimport gradevote\nprint({_LOADED})") == []


def test_outcome_comes_from_the_results_module_without_the_harness():
    # Outcome and outcome_of are defined in results; properties re-exports them
    loaded = _fresh(
        f"import json, sys\nfrom gradevote import Outcome, outcome_of\nprint({_LOADED})")
    assert "gradevote.results" in loaded
    assert "gradevote.properties" not in loaded


def test_tally_loads_neither_the_harness_nor_the_fixtures(tmp_path):
    (tmp_path / "c.json").write_text('{"method": "mj3", "candidates": [{"id": "a"}]}')
    (tmp_path / "b.csv").write_text("voter_id,candidate,grade\nv1,a,positive\n")
    loaded = _fresh(
        "import io, json, sys\nfrom contextlib import redirect_stdout\n"
        "from gradevote.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    code = main(['tally', '--config', {str(tmp_path / 'c.json')!r}, "
        f"'--ballots', {str(tmp_path / 'b.csv')!r}])\n"
        f"assert code == 0\nprint({_LOADED})"
    )
    assert "gradevote.ballot_io" in loaded
    assert "gradevote.properties" not in loaded
    assert "gradevote.fixtures" not in loaded


def _loaded_by(command, tmp_path, loaded=_LOADED):
    """The modules, as ``loaded`` lists them, that ``main([command, ...])``
    leaves loaded after running a one-ballot mj3 election."""
    (tmp_path / "c.json").write_text('{"method": "mj3", "candidates": [{"id": "a"}]}')
    (tmp_path / "b.csv").write_text("voter_id,candidate,grade\nv1,a,positive\n")
    return _fresh(
        "import io, json, sys\nfrom contextlib import redirect_stdout\n"
        "from gradevote.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    code = main([{command!r}, '--config', {str(tmp_path / 'c.json')!r}, "
        f"'--ballots', {str(tmp_path / 'b.csv')!r}])\n"
        f"assert code == 0\nprint({loaded})"
    )


@pytest.mark.parametrize("command", ["tally", "check"])
def test_grade_commands_never_load_the_bracket_module(command, tmp_path):
    loaded = _loaded_by(command, tmp_path)
    assert "gradevote.ballot_io" in loaded
    assert "gradevote.bracket" not in loaded


@pytest.mark.parametrize("command", ["tally", "check"])
def test_grade_commands_load_neither_dataclasses_nor_inspect(command, tmp_path):
    # records are built by gradevote.core.record; the two modules cost a
    # start-up paid by every tally and every check
    loaded = _loaded_by(command, tmp_path, "json.dumps(sorted(sys.modules))")
    assert "gradevote.ballot_io" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_star_import_gives_every_public_name_from_its_module():
    # each name must be the very object the module defines, not a copy
    names = _fresh(
        "import importlib, json\nimport gradevote\n"
        "namespace = {}\nexec('from gradevote import *', namespace)\n"
        "names = sorted(n for n in namespace if n != '__builtins__')\n"
        "for name in names:\n"
        "    module = importlib.import_module(f'gradevote.{gradevote._MODULE_OF[name]}')\n"
        "    assert namespace[name] is getattr(module, name) is getattr(gradevote, name)\n"
        "print(json.dumps(names))"
    )
    assert names == PUBLIC


def test_every_submodule_resolves_after_a_bare_import():
    assert _fresh(
        "import json\nimport gradevote\n"
        f"print(json.dumps([getattr(gradevote, m).__name__ for m in {MODULES!r}]))"
    ) == [f"gradevote.{m}" for m in MODULES]


def test_dir_lists_every_public_name():
    listed = _fresh("import json\nimport gradevote\nprint(json.dumps(dir(gradevote)))")
    assert set(PUBLIC) <= set(listed)
    assert listed == sorted(listed)


@pytest.mark.parametrize("name", ["no_such_name", "_rank_keys", "__no_such_dunder__"])
def test_an_unknown_name_raises_attribute_error(name):
    import gradevote

    with pytest.raises(AttributeError, match=name):
        getattr(gradevote, name)
