"""Grade-based election tallying.

Methods: general majority judgement (any ordered grade scale, iterated
median tie-break), its three-grade raw-score form, a strong/weak approval
election procedure with block ranking and ballot rejection, and a
binary-bracket baseline.  A brute-force property harness checks weak
consistency, participation (no-show) behaviour, and polarization shifts on
desk-scale instances.

Importing the package loads no module: each public name is imported from
the module that defines it on first use (PEP 562), so a tally never pays
for the property harness.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each submodule the package exposes -> the public names taken from it
_EXPORTS = {
    "approval": (
        "APPROVAL_SCALE", "ApprovalTally", "approval_rank", "borderline_candidates",
        "classify_block",
    ),
    "ballot_io": (
        "ElectionConfig", "ParseIssue", "ParseReport", "ballots_to_csv",
        "bracket_ballots_to_json", "config_to_json", "count_ballots", "load_config",
        "parse_ballots", "parse_bracket_ballots", "parse_result_json", "percent_half_up",
        "render_bracket", "render_result",
    ),
    "bracket": (
        "BracketBallot", "BracketNode", "BracketResult", "NodeDecision", "bracket_elect",
        "bracket_tree", "sincere_ballot",
    ),
    "core": (
        "Ballot", "Candidate", "ConfigError", "ElectionProfile", "GradeProfile",
        "GradeScale", "ValidationError", "VoteError", "build_profiles",
        "election_from_counts",
    ),
    "fixtures": ("FIXTURES", "Fixture", "load_fixture"),
    "methods": (),
    "mj": ("MajorityGrade", "majority_grade", "majority_value", "mj_rank"),
    "mj3": ("AltScores", "ScorePair", "Tally3", "alt_scores", "mj3_rank", "score3"),
    "properties": (
        "ConsistencyViolation", "CrossMethodReport", "ManipulationReport",
        "NoShowCounterexample", "NoShowSweepReport", "PartitionCheckReport",
        "PolarizationShift", "check_consistency", "check_consistency_splits",
        "manipulation_probe", "outcome_from_counts", "polarization_sweep", "polarize",
        "random_consistency_sweep", "search_cross_method_disagreements", "search_no_show",
        "search_no_show_exhaustive",
    ),
    "results": ("Block", "Outcome", "RankedEntry", "RankedResult", "outcome_of"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
