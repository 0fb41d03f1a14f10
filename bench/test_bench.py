"""Tests of the benchmark itself: seeded inputs, family structure, the gate.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import zeonmarkov  # noqa: E402
import zeonmarkov.cli  # noqa: E402
import zeonmarkov.documents  # noqa: E402

import families as fam  # noqa: E402
import gate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import SLOTS, Workload, report_fields  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")


def workload(name, seed, tmp_path):
    return Workload(name, seed, zeonmarkov, FIXTURES, str(tmp_path))


def analyse(chain):
    a = zeonmarkov.markov.validate_stochastic(
        zeonmarkov.documents.parse_matrix_text(json.dumps(fam.to_json(chain))).matrix)
    return report_fields(zeonmarkov.markov.zeon_criterion(a), chain.n)


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = workload(name, 11, tmp_path)
    again = workload(name, 11, tmp_path)
    other = workload(name, 12, tmp_path)
    for cycle in (0, 3):
        assert first.inputs(cycle) == again.inputs(cycle)
        assert first.inputs(cycle) != other.inputs(cycle)
    assert first.inputs(0) != first.inputs(1)


def test_workload_sizes_are_the_stated_ones():
    assert sorted({n for _, n in SLOTS["ergodic"]}) == [10, 14, 18]
    assert sorted({n for _, n in SLOTS["nonergodic"]}) == list(range(8, 15))
    assert sorted({n for _, n in SLOTS["small-sweep"]}) == list(range(4, 9))
    assert {f for f, _ in SLOTS["ergodic"]} == {fam.ERGODIC}
    assert fam.ERGODIC not in {f for f, _ in SLOTS["nonergodic"]}


# -- families -------------------------------------------------------------------


def structure(rows) -> tuple:
    """The benchmark's own reading of a chain's state diagram:
    (classes, closed flags, periods) of ``rows``. It shares no code with
    the program.

    Classes come from mutual reachability, found by depth-first search from
    every state; the period of a class is the gcd of (level(u) + 1 - level(v))
    over its internal edges, from breadth-first levels. None for a class
    with no internal edge.
    """
    n = len(rows)
    succ = [{j for j, e in enumerate(row) if Fraction(e) > 0} for row in rows]
    reach = []
    for s in range(n):
        seen, todo = {s}, [s]
        while todo:
            u = todo.pop()
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        reach.append(seen)
    classes, owner = [], {}
    for s in range(n):
        if s in owner:
            continue
        members = sorted(t for t in reach[s] if s in reach[t])
        for t in members:
            owner[t] = len(classes)
        classes.append(members)
    closed, periods = [], []
    for members in classes:
        inside = set(members)
        closed.append(all(succ[u] <= inside for u in members))
        level, frontier = {members[0]: 0}, [members[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u] & inside:
                    if v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        g, has_edge = 0, False
        for u in members:
            for v in succ[u] & inside:
                has_edge = True
                g = math.gcd(g, level[u] + 1 - level[v])
        periods.append(g if has_edge else None)
    return classes, closed, periods


@pytest.mark.parametrize("family", fam.FAMILIES)
def test_family_has_its_intended_structure(family):
    rng = random.Random(family)
    for _ in range(40):
        n = rng.randint(4, 14)
        chain = fam.make(rng, family, n)
        rows = chain.fractions()
        assert all(sum(r) == 1 and min(r) >= 0 for r in rows)
        classes, closed, periods = structure(chain.rows)
        transient = sorted(s for c, flag in zip(classes, closed) if not flag for s in c)
        assert tuple(transient) == chain.transient
        closed_periods = sorted(p for p, flag in zip(periods, closed) if flag)
        assert closed_periods == sorted(chain.closed_periods)
        if family == fam.ERGODIC:
            assert len(classes) == 1 and periods == [1]
        elif family == fam.PERIODIC:
            assert len(classes) == 1 and periods[0] in (2, 3, 4)
        elif family == fam.REDUCIBLE:
            assert len(classes) in (2, 3) and all(closed)
        else:
            assert sum(closed) == 2 and transient and all(p == 1 for p in closed_periods)


def test_periodic_chains_cover_periods_two_to_four():
    rng = random.Random(5)
    seen = {fam.make(rng, fam.PERIODIC, 9).closed_periods[0] for _ in range(60)}
    assert seen == {2, 3, 4}


# -- the gate -------------------------------------------------------------------


@pytest.mark.parametrize("family", fam.FAMILIES)
def test_gate_passes_the_program_output(family):
    rng = random.Random(f"pass-{family}")
    for n in (4, 6, 8):
        chain = fam.make(rng, family, n)
        assert gate.check_report(chain, analyse(chain)) == []


def test_own_determinant_matches_the_program_mod_p():
    rng = random.Random(3)
    for n in (3, 5, 7):
        chain = fam.ergodic_chain(rng, n)
        det = Fraction(analyse(chain)["det_value"])
        want = det.numerator * pow(det.denominator, -1, gate.PRIME) % gate.PRIME
        assert gate.det_i_minus_psi2_mod(chain.rows) == want


@pytest.mark.parametrize("field, wrong", [
    ("det_value", lambda v: Fraction(v) + 1),
    ("criterion_verdict", lambda v: "not-ergodic"),
    ("is_aperiodic", lambda v: not v),
    ("quasi_positive_exponent", lambda v: v + 1),
    ("invariant_distribution", lambda v: [v[1], v[0]] + v[2:]),
    ("limit_matrix", lambda v: [[r[1], r[0]] + r[2:] for r in v]),
])
def test_gate_fails_a_wrong_value_on_an_ergodic_chain(field, wrong):
    chain = fam.ergodic_chain(random.Random(8), 6)
    fields = analyse(chain)
    assert gate.check_report(chain, fields) == []
    fields[field] = wrong(fields[field])
    assert gate.check_report(chain, fields)


def test_gate_fails_a_nonzero_det_on_a_singular_chain():
    chain = fam.periodic_chain(random.Random(4), 6, 3)
    fields = analyse(chain)
    fields["det_value"] = Fraction(1, 7)
    assert gate.check_report(chain, fields)


def test_gate_fails_a_chain_that_is_not_its_family():
    rng = random.Random(9)
    periodic = fam.periodic_chain(rng, 6, 2)
    claimed = fam.Chain(fam.ERGODIC, periodic.rows, (1,))
    assert gate.check_report(claimed, analyse(periodic))


def test_witness_is_checked_by_definition():
    chain = fam.reducible_chain(random.Random(2), 7)
    fields = analyse(chain)
    witness = [Fraction(c) for c in fields["witness"]]
    rows = chain.fractions()
    assert gate.check_witness(rows, witness, required=True, allowed=True) == []
    assert gate.check_witness(rows, [3 * c for c in witness], required=True, allowed=True) == []
    bumped = witness[:]
    bumped[witness.index(0) if 0 in witness else 0] += 1
    assert gate.check_witness(rows, bumped, required=True, allowed=True)
    assert gate.check_witness(rows, [-c for c in witness], required=True, allowed=True)
    assert gate.check_witness(rows, [0] * len(witness), required=True, allowed=True)
    assert gate.check_witness(rows, None, required=True, allowed=True)


def test_zeon_power_check_uses_the_permanent_definition():
    rows = [[Fraction(1, 2), Fraction(1, 2), 0, 0], [0, Fraction(1, 3), Fraction(2, 3), 0],
            [Fraction(1, 4), 0, Fraction(1, 4), Fraction(1, 2)], [0, 0, 1, 0]]
    power = gate.zeon_power(rows, 3)
    assert power[0][0] == gate.permanent([r[:3] for r in rows[:3]])
    assert gate.check_zeon_power(rows, 3, power) == []
    wrong = [r[:] for r in power]
    wrong[1][2] += 1
    assert gate.check_zeon_power(rows, 3, wrong)


def fixture_op(wl, name):
    with open(os.path.join(FIXTURES, name + ".json"), encoding="utf-8") as f:
        text = f.read()
    path = wl.write_inputs([("0." + name, None, text)])[0]
    return wl._analyze_op("0." + name, None, path)


def test_gate_counts_a_wrong_recorded_value_as_a_failure(tmp_path):
    wl = workload("nonergodic", 1, tmp_path)
    for name in wl.expected:
        assert run.run_op(fixture_op(wl, name))["problems"] == []
    wl.expected["example3"]["det_value"] = "1/2"
    wl.expected["example4"]["invariant_distribution"][0] = "1/5"
    wl.expected["example1"]["limit_matrix"] = None
    for name in ("example3", "example4", "example1"):
        assert run.run_op(fixture_op(wl, name))["problems"], name


def test_exit_code_must_match_the_verdict():
    assert gate.check_exit_code("not-ergodic", 1) == []
    assert gate.check_exit_code("not-ergodic", 0)
    assert gate.check_exit_code("criterion-inapplicable", 3)


def test_a_crashing_operation_is_a_failure(tmp_path):
    op = workload("small-sweep", 1, tmp_path).ops(0)[0]
    op.call = lambda: 1 / 0
    assert run.run_op(op)["problems"]


# -- spans ------------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    chain = fam.transient_chain(random.Random(1), 6)
    a = zeonmarkov.markov.validate_stochastic(
        zeonmarkov.documents.parse_matrix_text(json.dumps(fam.to_json(chain))).matrix)
    original = zeonmarkov.markov.chain_structure
    tracer = spans.Tracer(op="x")
    tracer.install()
    try:
        zeonmarkov.markov.zeon_criterion(a)
    finally:
        tracer.uninstall()
    assert zeonmarkov.markov.chain_structure is original
    totals = spans.layer_totals(tracer.spans)
    assert totals["markov.chain_structure"].calls == 3
    assert totals["zeon.psi2"].calls >= 2
    assert totals["linalg.det"].value == 1  # det is 0: 0 bits + 1 bit of denominator
    crit = totals["markov.zeon_criterion"]
    assert crit.calls == 1 and 0 < crit.self_seconds < crit.seconds


# -- speed probe --------------------------------------------------------------------


def test_probe_determinants_agree_with_each_other():
    rng = random.Random(4)
    cases = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for n in (1, 2, 5, 9)]
    cases += [[[0, 1, 2], [3, 4, 5], [6, 7, 8]],  # singular
              [[0, 2, 1], [1, 0, 0], [0, 1, 3]]]  # needs a row swap
    for rows in cases:
        assert reference.bareiss_det(rows) == reference.fraction_det(rows)
    assert reference.bareiss_det([[0, 2, 1], [1, 0, 0], [0, 1, 3]]) == -5
    reference.check()
    assert reference.probe() == reference.probe()


def test_probe_interrupts_work_and_its_time_is_counted():
    probe = reference.SpeedProbe(interval=0.01)
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert probe.stolen >= sum(s for _t, s in probe.samples)
    starts = [t for t, _s in probe.samples]
    assert starts == sorted(starts)


def test_end_to_end_scales_times_by_the_probe_speed():
    # the probe runs at half its nominal time (a machine twice as fast)
    # during the first two operations and at its nominal time during the
    # last, 10 s later: times there are doubled, here kept, rates follow
    nominal = reference.NOMINAL_S
    probe = reference.SpeedProbe()
    probe.samples = ([(0.01 * i, nominal / 2) for i in range(30)]
                     + [(10.0 + 0.01 * i, nominal) for i in range(40)])
    records = [{"t_s": t, "wall_s": s, "latency_s": s, "analysis": True, "n": n, "cycle": 0,
                "problems": []}
               for t, s, n in ((0.0, 0.1, 4), (0.1, 0.2, 4), (10.0, 0.4, 8))]
    measured = {"records": records, "cycles": [{"op_s": 0.7}], "rss_kb": 2048}
    setup = {"setup_s": 0.3, "window": [0.0, 0.05]}
    scaled, wall, scale = run.end_to_end(setup, measured, 8, probe)
    assert scale == pytest.approx(2)
    assert wall["op_p50_ms"] == (pytest.approx(200), "ms")
    assert scaled["op_p50_ms"] == (pytest.approx(400), "ms")
    assert scaled["largest_n_ms"] == wall["largest_n_ms"] == (pytest.approx(400), "ms")
    assert scaled["setup_s"] == (pytest.approx(0.6), "s")
    assert wall["ops_per_s"] == (pytest.approx(3 / 0.7), "1/s")
    assert scaled["ops_per_s"] == (pytest.approx(3 / (0.2 + 0.4 + 0.4)), "1/s")
    assert scaled["peak_rss_mb"] == wall["peak_rss_mb"] == (2.0, "MB")


# -- the command ---------------------------------------------------------------------


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-sweep", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in bench_json()[key]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ergodic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
