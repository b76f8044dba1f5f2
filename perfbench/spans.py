"""In-memory spans around the calls into each gradevote module.

A :class:`Tracer` wraps public functions where ``gradevote.cli`` and
``gradevote.properties`` import them (and the benchmark's own references), so
every call records a span (name, start, end, parent) plus the counts taken at
that boundary.  Spans stay in flat arrays until the run ends; a CLI child
process dumps its spans to a file the parent merges.  Self time is a span's
duration minus the part its child spans cover.
"""

import json
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def record(self, name, start, end):
        """A span measured by hand (e.g. an import), child of the open span."""
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name, fn, count=None):
        """``fn`` with a span; ``count(counters, args, kwargs, result)`` adds counts."""
        counters = self.counters

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- child processes ----------------------------------------------------

    def dump(self, path):
        """Write every span and counter, for :meth:`merge` in the parent."""
        document = {
            "names": self.names,
            "spans": [list(row) for row in zip(self.name, self.parent, self.start, self.end)],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(document, out)

    def merge(self, path):
        """Adopt a child's spans under the currently open span."""
        with open(path, encoding="utf-8") as src:
            document = json.load(src)
        offset = len(self.start)
        ids = [self._name_id(n) for n in document["names"]]
        for name, parent, start, end in document["spans"]:
            self.name.append(ids[name])
            self.parent.append(self._stack[-1] if parent < 0 else parent + offset)
            self.start.append(start)
            self.end.append(end)
        for key, value in document["counters"].items():
            self.counters[key] += value

    # -- summaries ----------------------------------------------------------

    def self_times(self, first, last):
        """Total self time per span name over spans ``first``..``last - 1``."""
        child = defaultdict(float)
        for sid in range(first, last):
            parent = self.parent[sid]
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        totals = defaultdict(float)
        for sid in range(first, last):
            own = self.end[sid] - self.start[sid] - child.get(sid, 0.0)
            totals[self.names[self.name[sid]]] += own
        return totals

    def write(self, path):
        """All spans as CSV: id, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start,end\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid]:.9f},{self.end[sid]:.9f}\n"
                )


# --------------------------------------------------------------------------
# what is wrapped, and the counts taken at each boundary
# --------------------------------------------------------------------------

def _add(counters, key, value):
    counters[key] += value


def _count_parse(c, args, kwargs, result):
    _, report, _ = result
    _add(c, "ballot_io.parse_ballots.rows", report.n_rows)
    _add(c, "ballot_io.parse_ballots.rows_rejected", len(report.issues))


def _count_build(c, args, kwargs, result):
    _add(c, "core.build_profiles.calls", 1)
    _add(c, "core.build_profiles.ballots", result.n_voters)


def _count_from_counts(c, args, kwargs, result):
    _add(c, "core.election_from_counts.calls", 1)


def _count_mj(c, args, kwargs, result):
    _add(c, "mj.mj_rank.calls", 1)
    _add(c, "mj.mj_rank.voter_grades", result.n_voters * len(result.entries))


def _count_mj3(c, args, kwargs, result):
    _add(c, "mj3.mj3_rank.calls", 1)


def _count_approval(c, args, kwargs, result):
    _add(c, "approval.approval_rank.calls", 1)


def _count_bracket(c, args, kwargs, result):
    _add(c, "bracket.bracket_elect.ballots", result.accept_yes + result.accept_no)


def _count_consistency(c, args, kwargs, result):
    n = len(args[1])
    _add(c, "properties.check_consistency.partitions", result.n_partitions_checked)
    _add(c, "properties.check_consistency.space", 2 ** (n - 1) - 1)
    _add(c, "properties.check_consistency.premise_hits", result.n_premise_satisfied)


def _count_splits(c, args, kwargs, result):
    _add(c, "properties.check_consistency_splits.partitions", result.n_partitions_checked)


def _count_no_show(c, args, kwargs, result):
    election = args[0]
    _add(c, "properties.search_no_show.vectors",
         election.scale.size ** len(election.candidates))


def _count_no_show_exhaustive(c, args, kwargs, result):
    _add(c, "properties.search_no_show_exhaustive.instances", result.n_instances)
    _add(c, "properties.search_no_show_exhaustive.additions", result.n_additions_checked)


def _count_cross(c, args, kwargs, result):
    _add(c, "properties.search_cross_method_disagreements.instances", result.n_instances)


def _count_probe(c, args, kwargs, result):
    _add(c, "properties.manipulation_probe.alternatives", result.n_alternatives)


def _count_polarization(c, args, kwargs, result):
    _add(c, "properties.polarization_sweep.cases", args[0])


#: function name -> (span name, count callback)
TRACED = {
    "load_config": ("ballot_io.load_config", None),
    "parse_ballots": ("ballot_io.parse_ballots", _count_parse),
    "parse_bracket_ballots": ("ballot_io.parse_bracket_ballots", None),
    "render_result": ("ballot_io.render", None),
    "render_bracket": ("ballot_io.render", None),
    "build_profiles": ("core.build_profiles", _count_build),
    "election_from_counts": ("core.election_from_counts", _count_from_counts),
    "mj_rank": ("mj.mj_rank", _count_mj),
    "mj3_rank": ("mj3.mj3_rank", _count_mj3),
    "approval_rank": ("approval.approval_rank", _count_approval),
    "bracket_elect": ("bracket.bracket_elect", _count_bracket),
    "check_consistency": ("properties.check_consistency", _count_consistency),
    "check_consistency_splits": ("properties.check_consistency_splits", _count_splits),
    "search_no_show": ("properties.search_no_show", _count_no_show),
    "search_no_show_exhaustive": (
        "properties.search_no_show_exhaustive", _count_no_show_exhaustive),
    "search_cross_method_disagreements": (
        "properties.search_cross_method_disagreements", _count_cross),
    "manipulation_probe": ("properties.manipulation_probe", _count_probe),
    "polarization_sweep": ("properties.polarization_sweep", _count_polarization),
}


def install(tracer, namespace):
    """Replace every traced function found in ``namespace`` (a module or object)."""
    for attr, (span, count) in TRACED.items():
        fn = getattr(namespace, attr, None)
        if fn is not None and not hasattr(fn, "__wrapped__"):
            setattr(namespace, attr, tracer.wrap(span, fn, count))
    rankers = getattr(namespace, "RANKERS", None)
    if isinstance(rankers, dict):
        for method, fn in list(rankers.items()):
            attr = fn.__name__
            if attr in TRACED and not hasattr(fn, "__wrapped__"):
                span, count = TRACED[attr]
                rankers[method] = tracer.wrap(span, fn, count)


def install_program(tracer):
    """Wrap the calls ``gradevote.cli`` and ``gradevote.properties`` make."""
    from gradevote import cli, properties

    install(tracer, cli)
    install(tracer, properties)


#: every per-layer metric the traced run reports, with its unit
LAYER_METRICS = [
    ("cli.main.s", "s"), ("cli.import.s", "s"),
    ("ballot_io.load_config.s", "s"), ("ballot_io.parse_ballots.s", "s"),
    ("ballot_io.parse_ballots.rows", "count"),
    ("ballot_io.parse_ballots.rows_rejected", "count"),
    ("ballot_io.parse_ballots.reject_rate", "ratio"),
    ("ballot_io.parse_bracket_ballots.s", "s"), ("ballot_io.render.s", "s"),
    ("core.build_profiles.s", "s"), ("core.build_profiles.calls", "count"),
    ("core.build_profiles.ballots", "count"),
    ("core.election_from_counts.s", "s"), ("core.election_from_counts.calls", "count"),
    ("mj.mj_rank.s", "s"), ("mj.mj_rank.calls", "count"),
    ("mj.mj_rank.voter_grades", "count"),
    ("mj3.mj3_rank.s", "s"), ("mj3.mj3_rank.calls", "count"),
    ("approval.approval_rank.s", "s"), ("approval.approval_rank.calls", "count"),
    ("bracket.bracket_elect.s", "s"), ("bracket.bracket_elect.ballots", "count"),
    ("properties.check_consistency.s", "s"),
    ("properties.check_consistency.partitions", "count"),
    ("properties.check_consistency.space", "count"),
    ("properties.check_consistency.premise_hits", "count"),
    ("properties.check_consistency.premise_rate", "ratio"),
    ("properties.check_consistency_splits.s", "s"),
    ("properties.check_consistency_splits.partitions", "count"),
    ("properties.search_no_show.s", "s"), ("properties.search_no_show.vectors", "count"),
    ("properties.search_no_show_exhaustive.s", "s"),
    ("properties.search_no_show_exhaustive.instances", "count"),
    ("properties.search_no_show_exhaustive.additions", "count"),
    ("properties.search_cross_method_disagreements.s", "s"),
    ("properties.search_cross_method_disagreements.instances", "count"),
    ("properties.manipulation_probe.s", "s"),
    ("properties.manipulation_probe.alternatives", "count"),
    ("properties.polarization_sweep.s", "s"), ("properties.polarization_sweep.cases", "count"),
    ("trace.overhead_s", "s"),
]

#: ratio metric -> (numerator, base)
RATIOS = {
    "ballot_io.parse_ballots.reject_rate": (
        "ballot_io.parse_ballots.rows_rejected", "ballot_io.parse_ballots.rows"),
    "properties.check_consistency.premise_rate": (
        "properties.check_consistency.premise_hits",
        "properties.check_consistency.partitions"),
}
