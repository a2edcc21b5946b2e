"""Tests of the benchmark's own helpers: statistics, checkers, inputs, trace.

Run from the repository root with the program on the path:

    PYTHONPATH=src python -m pytest -q benchmark
"""

import json
import math
import os
import random
from types import SimpleNamespace

import pytest

import checks
import inputs
import measure
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


# --- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(11, 9), (20, 50), (24, 58), (100, 90), (1000, 99)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    got_pct, value = measure.tail_percentile(samples)
    assert got_pct == pct
    assert sum(1 for s in samples if s > value) >= 10
    rank = math.ceil((pct + 1) * n / 100)
    assert pct == 99 or n - rank < 10


def test_tail_needs_eleven_samples():
    assert measure.tail_percentile([1.0] * 10) is None


def test_quartile_spread():
    assert measure.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert measure.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


# --- checkers -----------------------------------------------------------------

def _row(t, r, consistent="true", kind="sign_change"):
    return (f"{t},{r},2.5,0.04,0.013,0.081,true,false,0.4,2,5,{kind},{consistent}")


def _csv(rows):
    return "\n".join([checks.SWEEP_HEADER] + rows) + "\n"


GOOD = [_row(t, r) for t in (0.85, 0.9) for r in (-0.04, -0.02, -0.01)]


def test_sweep_check_accepts_a_good_csv():
    assert checks.check_sweep_csv(_csv(GOOD), 2, 3) == (0, [])


def test_sweep_check_counts_a_malformed_row():
    rows = list(GOOD)
    rows[4] = rows[4].replace(",true,false,", ",yes,false,")
    failed, problems = checks.check_sweep_csv(_csv(rows), 2, 3)
    assert failed == 1 and "malformed" in problems[0]


def test_sweep_check_counts_inconsistent_and_out_of_order_rows():
    rows = list(GOOD)
    rows[1] = _row(0.85, -0.02, consistent="false")
    rows[3], rows[4] = rows[4], rows[3]
    failed, _ = checks.check_sweep_csv(_csv(rows), 2, 3)
    assert failed == 3


def test_sweep_check_fails_every_row_on_a_wrong_header_or_short_file():
    assert checks.check_sweep_csv(_csv(GOOD).replace("t,r,", "t,r2,", 1), 2, 3)[0] == 6
    assert checks.check_sweep_csv(_csv(GOOD[:4]), 2, 3)[0] == 2


def test_csv_row_mismatches():
    a = _csv(GOOD)
    b = _csv(GOOD[:2] + [_row(0.85, -0.01, kind="tangency")] + GOOD[3:])
    assert checks.csv_row_mismatches(a, a) == 0
    assert checks.csv_row_mismatches(a, b) == 1
    assert checks.csv_row_mismatches(a, _csv(GOOD[:5])) == 1


PENTAGRAM = [0.0, 0.4, 0.8, 0.2, 0.6]  # advances by +2 in sorted order


def test_orbit_check():
    assert checks.check_orbits([PENTAGRAM]) == []
    assert checks.check_orbits([[0.0, 0.2, 0.4, 0.6, 0.8]])  # shift +1
    assert checks.check_orbits([PENTAGRAM] * 7)  # more than six orbits


def _rho_json(verdict="equals", p=2, q=5, orbits=True):
    out = {"rho_verdict": verdict, "consistent": True, "condition_report": {},
           "rotation": {"rho_estimate": 0.4, "rho_p": p, "rho_q": q}}
    if orbits:
        out["orbits"] = [PENTAGRAM]
    return json.dumps(out)


def test_rho_check_counts_a_planted_wrong_verdict():
    want = {"rho_pq": [2, 5], "verdict": "equals"}
    assert checks.check_rho_output(_rho_json(), want) == []
    assert checks.check_rho_output(_rho_json(verdict="above"), want)
    assert checks.check_rho_output(_rho_json(p=1, q=3), want)
    assert checks.check_rho_output(_rho_json(orbits=False), want)
    assert checks.check_rho_output(_rho_json(orbits=False), {})
    assert checks.check_rho_output("not json", {})
    assert checks.check_rho_output(_rho_json(verdict="sideways"), {})


def _result(cert=None, relation=None):
    return SimpleNamespace(
        certificate=cert and SimpleNamespace(p=cert[0], q=cert[1]),
        comparison=relation and SimpleNamespace(relation=relation))


def test_verdict_and_tau_checks_count_planted_wrong_answers():
    orbit_set = SimpleNamespace(orbits=[SimpleNamespace(
        points=[SimpleNamespace(angle=a) for a in PENTAGRAM])])
    assert checks.check_verdict(_result((2, 5)), orbit_set, "certified") == []
    assert checks.check_verdict(_result(relation="greater"), None, "certified")
    assert checks.check_verdict(_result((2, 5)), SimpleNamespace(orbits=[]), "certified")
    assert checks.check_verdict(_result(relation="less"), None, "less") == []
    assert checks.check_verdict(_result(relation="less"), None, "greater")
    assert checks.check_tau(SimpleNamespace(count=1), 1) == []
    assert checks.check_tau(SimpleNamespace(count=2), 1)


def test_nonzero_exit_counts_as_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "run_process", lambda *args, **kwargs: (4, "", 0.1))
    result = workloads.Run()
    workloads._rho_once(result, {"cls": "random", "argv": ["rho"], "want": {}})
    workloads._sweep_once(result, 1, (2, 3), 1, str(tmp_path / "out.csv"))
    assert (result.attempted, result.failed) == (7, 7)


# --- inputs -------------------------------------------------------------------

def test_one_seed_gives_identical_inputs():
    assert inputs.rho_inputs(7) == inputs.rho_inputs(7)
    assert inputs.certify_inputs(7) == inputs.certify_inputs(7)
    assert inputs.sweep_argv(7) == inputs.sweep_argv(7)
    assert inputs.rho_inputs(7) != inputs.rho_inputs(8)
    assert inputs.certify_inputs(7) != inputs.certify_inputs(8)
    assert "7" in inputs.sweep_argv(7)


def test_input_mix():
    rho = inputs.rho_inputs(1)
    assert sorted({i["cls"] for i in rho}) == sorted(inputs.RHO_CLASSES)
    assert len(rho) == inputs.RHO_PER_CLASS * len(inputs.RHO_CLASSES)
    batch = inputs.certify_inputs(1)
    assert sorted(i["want"] for i in batch if i["kind"] == "tau") == [0, 0, 1, 1, 2, 2]
    assert len(batch) == 4 * inputs.CERTIFY_PER_CLASS + 3 * inputs.TAU_PER_REGIME


def test_oracle_agrees_with_the_library():
    bb = pytest.importorskip("barbilliard")
    rng = random.Random(3)
    for verts in [inputs.sandwich(rng), inputs.strict_inside(rng), inputs.equilateral(rng),
                  inputs.random_triangle(rng)]:
        pts = [bb.DiskPoint(*v) for v in verts]
        _, delta = bb.foot_and_delta(pts[0], pts[1], pts[2])
        assert inputs.drop(verts[2], verts[0], verts[1]) == pytest.approx(delta, abs=1e-9)
        report = bb.condition_report(bb.Triangle(*pts))
        assert inputs.is_sandwich(verts) == report.two_fifths_sandwich
        assert inputs.is_strict_inside(verts) == report.all_strictly_inside


# --- metric lists and trace ---------------------------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_trace_counts_repeat_and_uninstall_restores():
    bb = pytest.importorskip("barbilliard")
    tri, _ = bb.standard_pentagram(0.9)
    before = (bb.certify_rational, bb.circlemap.TangentMap.eval_angle)
    traces = []
    for _ in range(2):
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            tmap = bb.triangle_map(tri)
            bb.certify_rational(tmap, 2, 5)
            bb.tau_n(bb.DiskPoint(0.0, 0.9), bb.DiskPoint(0.0, -0.9),
                     bb.DiskPoint(-0.02, 0.0), 1)
        finally:
            tracing.uninstall(undo)
        traces.append(tracer.to_dict())
    assert (bb.certify_rational, bb.circlemap.TangentMap.eval_angle) == before
    counts = tracing.exact_counts(traces[0])
    assert counts == tracing.exact_counts(traces[1])
    assert counts["rotation.certify_rational.calls"] == 1
    assert counts["circlemap.lift_iter.steps"] >= 10_000
    assert 0 < counts["pentagram.tau_n.map_evals"] < counts["circlemap.eval_angle.calls"]
    names = set(tracing.layer_metrics(traces[0])) | {
        "import.cli_s", "import.numpy_s", "cli.pool.efficiency",
        "trace.overhead_ratio", "trace.unrepeated_counts"}
    assert names == {name for name, _ in run.PER_LAYER}
