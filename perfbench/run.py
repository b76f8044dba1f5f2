#!/usr/bin/env python3
"""The gradevote benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (several times, timing each as
set-up), then runs whole rounds of the workload's operations for about S
seconds, checking every output against the oracles.  Every time is
calibrated against a fixed reference work that a timer runs while the
operations run (see pace.py), so the figures follow the program and not the
machine's drifting speed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import pace
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ballots_per_s": "ballots/s",
    "partitions_per_s": "partitions/s", "additions_per_s": "vectors/s",
    "comparisons_per_s": "elections/s", "check_s": "s",
}


@dataclass
class Round:
    #: seconds each operation took, less the reference passes run inside it
    op_times: list = field(default_factory=list)
    #: for each operation, the factor that turns its measured seconds into
    #: seconds at reference speed
    op_scales: list = field(default_factory=list)
    failed: int = 0
    self_times: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def op_ref(self):
        """Seconds each operation took at reference speed."""
        return [t * s for t, s in zip(self.op_times, self.op_scales)]

    @property
    def wall(self):
        return sum(self.op_ref)

    @property
    def scale(self):
        """The round's factor: measured seconds into reference seconds."""
        return self.wall / sum(self.op_times)


def load_program():
    """Put the checkout's ``src`` first on the path; refuse any other gradevote."""
    package = ROOT / "src" / "gradevote"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no gradevote sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import gradevote

    if Path(gradevote.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: gradevote was imported from {gradevote.__file__}")


def pin_to_one_cpu():
    """Keep the benchmark and its child processes on one CPU, so that the
    reference passes and the operations they calibrate always share a CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_round(workload, ops, reference, problems, failures):
    tracer = workload.tracer
    r = Round()
    if tracer is not None:
        tracer.counters.clear()
        first = len(tracer.start)
        round_span = tracer.open("bench.round")
    intervals = []
    for op in ops:
        started = perf_counter()
        try:
            output = op.run()
        except Exception:  # an operation failing is counted, not fatal
            r.failed += 1
            failures.append(traceback.format_exc(limit=3))
            continue
        finally:
            ended = perf_counter()
            r.op_times.append(ended - started - reference.within(started, ended))
            intervals.append((started, ended))
        try:
            problems.extend(op.check(output))
        except Exception:  # an unreadable output is a wrong output
            problems.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
    # after the round, so that the passes just after each operation count
    r.op_scales = [reference.scale(started, ended) for started, ended in intervals]
    if tracer is not None:
        tracer.close(round_span)
        r.self_times = tracer.self_times(first, len(tracer.start))
        r.counters = dict(tracer.counters)
    return r


def run_until(workload, ops, reference, deadline, problems, failures):
    """Whole rounds, at least one, ending within half a round of the deadline."""
    rounds = []
    while True:
        started = perf_counter()
        rounds.append(run_round(workload, ops, reference, problems, failures))
        now = perf_counter()
        if now + (now - started) / 2 >= deadline:
            return rounds


def end_to_end(workload, ops, rounds, setup_s):
    """End-to-end metrics from each operation's median time over the rounds.

    Every round runs the same operations, so taking the median operation by
    operation and summing gives a round time that many samples steady.
    """
    per_round = [r.op_ref for r in rounds]
    op_time = [statistics.median(times[i] for times in per_round) for i in range(len(ops))]
    wall = sum(op_time)
    values = {"setup_s": setup_s, "wall_s": wall, "check_s": wall / len(ops)}
    for metric in workloads.RATE_METRICS:
        unit, kinds = workload.RATES.get(metric, (None, None))
        if unit is None:
            values[metric] = len(ops) / wall
        else:
            chosen = [i for i, op in enumerate(ops) if kinds is None or op.kind in kinds]
            values[metric] = (sum(ops[i].units[unit] for i in chosen)
                              / sum(op_time[i] for i in chosen))
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}


def per_layer(traced, untraced):
    typical = statistics.median
    values: dict = {}
    for name, unit in spans.LAYER_METRICS:
        if name == "trace.overhead_s":
            values[name] = (typical([r.wall for r in traced])
                            - typical([r.wall for r in untraced]))
        elif name in spans.RATIOS:
            num, base = spans.RATIOS[name]
            values[name] = typical([
                r.counters.get(num, 0) / r.counters[base] if r.counters.get(base) else 0.0
                for r in traced
            ])
        elif unit == "s":
            values[name] = typical([r.self_times.get(name[:-2], 0.0) * r.scale
                                    for r in traced])
        else:
            values[name] = typical([r.counters.get(name, 0) for r in traced])
    return {name: {"value": values[name], "unit": unit} for name, unit in spans.LAYER_METRICS}


def print_summary(metrics, traced):
    """Human-readable per-layer table on stderr, ratios shown with their bases."""
    print(f"per-layer figures at reference speed, median of {len(traced)} traced round(s):",
          file=sys.stderr)
    for name, m in metrics.items():
        line = f"  {name:58s} {m['value']:14.6f} {m['unit']}"
        if name in spans.RATIOS:
            num, base = spans.RATIOS[name]
            line += f"  ({metrics[num]['value']:g} / {metrics[base]['value']:g})"
        print(line, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    pin_to_one_cpu()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    workload.outdir.mkdir(parents=True, exist_ok=True)
    reference = workload.reference
    setups = []
    with reference:
        for _ in range(SETUP_REPS):
            started = perf_counter()
            workload.setup()
            ended = perf_counter()
            setups.append((started, ended, ended - started - reference.within(started, ended)))
        time.sleep(pace.REF_WINDOW)  # let the passes after the last set-up come in
    setup_s = statistics.median(t * reference.scale(started, ended)
                                for started, ended, t in setups)
    workload.expect()
    ops = workload.ops()

    problems: list = []
    failures: list = []
    started = perf_counter()
    if args.trace:
        with reference:
            untraced = run_until(workload, ops, reference, started + args.seconds / 2,
                                 problems, failures)
        tracer = spans.Tracer()
        workload.tracer = tracer
        if workload.in_process:
            spans.install(tracer, workload.api)
            spans.install_program(tracer)
        # no passes inside traced rounds: they would land in the spans
        traced = run_until(workload, ops, reference, started + args.seconds, problems, failures)
        untraced_scale = statistics.median(r.scale for r in untraced)
        for r in traced:
            r.op_scales = [untraced_scale] * len(r.op_times)
        rounds = untraced + traced
        metrics = per_layer(traced, untraced)
        tracer.write(workload.outdir / "trace.csv")
        print_summary(metrics, traced)
    else:
        with reference:
            rounds = run_until(workload, ops, reference, started + args.seconds,
                               problems, failures)
        metrics = end_to_end(workload, ops, rounds, setup_s)
        measured = statistics.median(sum(r.op_times) for r in rounds)
        passes = [t for start, t in reference.passes if start >= started]
        print(f"{len(rounds)} rounds; median round {measured:.4f} s as measured, "
              f"less the passes; {len(passes)} reference passes, mean "
              f"{statistics.fmean(passes):.5f} s (REF_S = {pace.REF_S} s)", file=sys.stderr)

    for message in (failures[:1] + problems[:10]):
        print(message, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (workload.outdir / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
