"""Checks of the benchmark's own oracles, generators and calibration.

The oracles are what the benchmark trusts instead of gradevote, so they are
checked against the paper's published numbers and against brute force here,
without importing the program.
"""

import csv
import json
import signal
import time
from itertools import combinations, product

import pytest

import inputs
import oracles
import pace


def _tallies(n, grades):
    return [c for c in product(range(n + 1), repeat=grades) if sum(c) == n]


def _brute_removal_sequence(counts):
    """Iterated removal on an explicit best-first ballot list."""
    ballots = sorted(g for g, c in enumerate(counts) for _ in range(c))
    sequence = []
    while ballots:
        sequence.append(ballots.pop(len(ballots) // 2))
    return tuple(sequence)


def test_smalltown_counts_blocks_and_order():
    # the paper's town election: 100 voters, (strong, weak, none) per candidate
    counts = {
        "cathy": (50, 20, 30), "jenny": (45, 35, 20), "elsa": (25, 60, 15),
        "belinda": (10, 80, 10), "ines": (44, 10, 46), "uma": (16, 1, 83),
    }
    order, ties = oracles.approval_order(tuple(counts), counts)
    assert order == ("cathy", "jenny", "elsa", "belinda", "ines", "uma")
    assert ties == ()
    assert [oracles.approval_block(counts[c]) for c in order] == [
        oracles.STRONG, oracles.STRONG, oracles.STRONG,
        oracles.ELECTABLE, oracles.ELECTABLE, oracles.UNELECTABLE,
    ]
    assert not oracles.approval_rejected(counts)
    assert oracles.approval_rejected({"x": (10, 30, 60)})


def test_school3_scores():
    counts = {"high-ropes": (10, 10, 1), "zoo": (1, 10, 10)}
    assert oracles.score_st(counts["high-ropes"])[0] == 10
    assert oracles.score_st(counts["zoo"])[0] == -10
    assert oracles.mj3_order(tuple(counts), counts) == (("high-ropes", "zoo"), ())
    assert oracles.unique_st_top(tuple(counts), counts) == "high-ropes"


def test_zoo_wins_school_on_four_grades_and_a_no_show_flips_it():
    # Cool! / Nice / Ok / Help, no! -- 21 students
    counts = {"high-ropes": (10, 0, 11, 0), "zoo": (0, 11, 0, 10)}
    assert oracles.mj_order(tuple(counts), counts)[0] == ("zoo", "high-ropes")
    # one enthusiast (Cool! for the ropes, Nice for the zoo) stays home
    fewer = {"high-ropes": (9, 0, 11, 0), "zoo": (0, 10, 0, 10)}
    assert oracles.mj_order(tuple(fewer), fewer)[0] == ("high-ropes", "zoo")


def test_gauge_with_fallback_matches_brute_force_removal():
    for grades in (3, 4):
        for n in range(1, 6):
            tallies = _tallies(n, grades)
            for a, b in product(tallies, repeat=2):
                sa, sb = _brute_removal_sequence(a), _brute_removal_sequence(b)
                assert oracles.compare_mj(a, b) == (sa > sb) - (sa < sb), (a, b)


def test_mj3_score_form_agrees_with_the_gauge_on_three_grades():
    for n in range(1, 7):
        for a, b in product(_tallies(n, 3), repeat=2):
            sa, sb = oracles.score_st(a), oracles.score_st(b)
            assert oracles.compare_mj(a, b) == (sa < sb) - (sa > sb), (a, b)


def test_tie_groups_follow_registration_order():
    counts = {"a": (1, 2, 3), "b": (3, 2, 1), "c": (1, 2, 3), "d": (3, 2, 1)}
    assert oracles.mj_order(tuple(counts), counts) == (("b", "d", "a", "c"),
                                                      (("b", "d"), ("a", "c")))


def test_enumeration_closed_forms():
    assert oracles.no_show_instances(4) == 9 + 36 + 100 + 225 == 370
    assert oracles.no_show_additions(4) == 3330
    assert oracles.cross_method_instances(4, 3) == 34 + 370 + 4618 == 5022
    assert oracles.no_show_instances(3) == sum(len(_tallies(n, 3)) ** 2 for n in (1, 2, 3))
    for n in range(2, 8):
        splits = {frozenset((frozenset(p), frozenset(set(range(n)) - set(p))))
                  for k in range(1, n) for p in combinations(range(n), k)}
        assert oracles.labeled_partitions(n) == len(splits)


def test_multiset_splits_match_enumeration():
    for mults in ((1, 1), (2, 1), (2, 2), (3, 1, 2), (8, 6, 4), (4, 4)):
        total = tuple(mults)
        splits = set()
        for taken in product(*(range(m + 1) for m in mults)):
            rest = tuple(m - t for m, t in zip(total, taken))
            if any(taken) and any(rest):
                splits.add(min(taken, rest))
        assert oracles.multiset_splits(mults) == len(splits), mults


def test_percent_rounds_half_up():
    assert oracles.percent_half_up(1, 8) == 13
    assert oracles.percent_half_up(1, 3) == 33
    assert oracles.percent_half_up(2, 3) == 67
    assert oracles.percent_half_up(1, 200) == 1
    assert oracles.percent_half_up(50, 100) == 50


def test_bracket_path_eliminates_the_head_to_head_favourite():
    # the bracket fixture's five sincere voters over seven candidates
    orders = [
        ("c1", "c5", "c6", "c7", "c2", "c3", "c4"),
        ("c2", "c5", "c6", "c7", "c3", "c4", "c1"),
        ("c3", "c5", "c6", "c7", "c4", "c1", "c2"),
        ("c5", "c6", "c7", "c1", "c2", "c3", "c4"),
        ("c5", "c7", "c6", "c2", "c1", "c3", "c4"),
    ]
    ids = tuple(f"c{i}" for i in range(1, 8))
    nodes = oracles.bracket_nodes(ids)
    assert [len(span) for span, _, _ in nodes] == [7, 4, 2, 2, 3, 2]
    upper = [
        sum(1 for order in orders if min(span, key=order.index) in up)
        for span, up, _ in nodes
    ]
    winner, path = oracles.bracket_path(ids, upper, len(orders), accept_yes=5)
    assert path[0][1:] == (3, 2, "upper")
    assert winner == "c1"
    assert oracles.bracket_path(ids, upper, len(orders), accept_yes=2)[0] is None


def test_generated_files_carry_the_kept_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "TALLY_BALLOTS", 300)
    monkeypatch.setattr(inputs, "BRACKET_BALLOTS", 200)
    files, bracket = inputs.tally_inputs(tmp_path, seed=7)
    for f in files:
        worst = len(f.scale) - 1
        graded = {}
        with open(f.ballots, newline="", encoding="utf-8") as src:
            rows = list(csv.reader(src))
        assert rows[0] == ["voter_id", "candidate", "grade"]
        assert len(rows) - 1 == f.n_rows
        for voter, cid, grade in rows[1:]:
            graded.setdefault(voter, {})[cid] = f.scale.index(grade)
        assert len(graded) == f.n_ballots
        for cid in f.ids:
            recount = [0] * len(f.scale)
            for grades in graded.values():
                recount[grades.get(cid, worst)] += 1
            assert tuple(recount) == f.counts[cid]
    entries = json.loads(bracket.ballots.read_text())
    assert len(entries) == bracket.n_ballots
    assert sum(e["accept"] for e in entries) == bracket.accept_yes
    for i, votes in enumerate(bracket.upper_votes):
        assert sum(e["choices"][i] == "upper" for e in entries) == votes
    blocks = [oracles.approval_block(c) for c in files[2].counts.values()]
    assert blocks.count(oracles.STRONG) == blocks.count(oracles.UNELECTABLE) == 2


def test_count_elections_keep_their_shape_across_seeds():
    shapes = [
        [(e.name, len(e.ids), e.n_voters) for e in inputs.count_elections(seed)]
        for seed in (1, 2, 3)
    ]
    assert shapes[0] == shapes[1] == shapes[2]
    for e in inputs.count_elections(4):
        tallies = list(e.counts.values())
        assert all(sum(t) == e.n_voters for t in tallies)
        assert len(set(tallies)) == len(tallies) - 1  # exactly one exact twin
        if "mj" in e.methods:
            base, twin, polarized = tallies[-3:]
            assert base != twin and oracles.gauge(base) == oracles.gauge(twin)
            assert oracles.majority_position(polarized) == len(e.scale) - 1


def test_reference_takes_its_passes_off_the_interval_they_ran_in(tmp_path):
    reference = pace.Reference()
    reference.passes = [(1.0, 0.01), (3.0, 0.03)]
    child = tmp_path / "passes.json"
    child.write_text(json.dumps([[2.0, 0.02]]))
    reference.merge(child)
    assert reference.within(1.5, 3.0) == pytest.approx(0.02)
    assert reference.within(0.0, 9.0) == pytest.approx(0.06)
    # the passes near an interval calibrate it; with none near, the nearest
    assert reference.scale(1.9, 2.1) == pytest.approx(pace.REF_S / 0.02)
    assert reference.scale(1.8, 2.9) == pytest.approx(pace.REF_S / 0.025)
    assert reference.scale(5.0, 5.1) == pytest.approx(pace.REF_S / 0.03)


def test_reference_timer_runs_passes_until_paused_or_stopped():
    def busy(seconds):
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            pass

    with pace.Reference() as reference:
        busy(4 * pace.REF_EVERY)
        ran = len(reference.passes)
        with reference.paused():
            busy(2 * pace.REF_EVERY)
            assert len(reference.passes) == ran
        busy(2 * pace.REF_EVERY)
    assert ran >= 2 and len(reference.passes) > ran
    stopped = len(reference.passes)
    time.sleep(2 * pace.REF_EVERY)
    assert len(reference.passes) == stopped
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
