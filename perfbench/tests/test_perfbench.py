"""Tests of the benchmark itself: inputs, output checks and span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CONSTANTS_TEXT = run.CONSTANTS.read_text()


# -- seeded inputs -----------------------------------------------------------

def test_grid_is_a_function_of_the_seed():
    grid = inputs.seeded_grid(7, 25)
    assert grid == inputs.seeded_grid(7, 25)
    assert grid != inputs.seeded_grid(8, 25)
    assert len(set(grid)) == 25 and grid == sorted(grid)
    assert grid[0] == Fraction(1, 16) and grid[-1] == 64
    for x in grid[1:-1]:
        assert Fraction(1, 16) < x < 64
        assert x.denominator & (x.denominator - 1) == 0  # dyadic
        assert x.numerator.bit_length() <= inputs.GRID_BITS


def test_mutants_are_a_function_of_the_seed():
    mutants = inputs.seeded_mutants(3, CONSTANTS_TEXT, 31)
    assert mutants == inputs.seeded_mutants(3, CONSTANTS_TEXT, 31)
    assert mutants != inputs.seeded_mutants(4, CONSTANTS_TEXT, 31)
    assert len({text for _, text in mutants}) == 31
    original = CONSTANTS_TEXT.splitlines()
    for _, text in mutants:
        changed = [(a, b) for a, b in zip(original, text.splitlines()) if a != b]
        assert len(changed) == 1
        (old, new), = changed
        assert old.split()[0] == new.split()[0]
        assert abs(int(new.split()[1]) - int(old.split()[1])) == 1


# -- the scan oracle check ---------------------------------------------------

def _mpf_fraction(v) -> Fraction:
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)


def _synthetic_scan(shift: int = 0, widen: int = 1):
    """A 2-point, k <= 1 scan report whose balls sit on the reference values."""
    workload = run.ScanWorkload("g", kmax=1, prec=64, points=2)
    workload.points = [Fraction(1, 2), Fraction(3)]
    refs = oracle.reference_values("g", 1, workload.points, CONSTANTS_TEXT, 256)
    cells, entries = [], []
    for k in range(2):
        for x in workload.points:
            mid = _mpf_fraction(refs[(k, x)].value)
            rad = abs(mid) / 2 ** 80
            mid, rad = mid + shift * rad, rad * widen
            cells.append([k, str(x), str(mid), str(rad), "positive", 64])
            entries.append({"k": k, "x": str(x), "verdict": "positive"})
    report = json.dumps({"kind": "cm_scan", "payload": {"entries": entries}})
    rep = run.Rep(1.0, 1.0, 0, "", {"work_s": 1.0, "rc": 0, "cells": cells}, report)
    return workload, rep


def test_oracle_accepts_balls_on_the_reference():
    workload, rep = _synthetic_scan()
    attempted, failed, problems, certainty = workload.check([rep])
    assert (attempted, failed, problems) == (4, 0, [])
    assert certainty == pytest.approx(80)


def test_oracle_flags_a_shifted_ball():
    workload, rep = _synthetic_scan(shift=3)
    _, failed, problems, _ = workload.check([rep])
    assert failed == 4
    assert all("misses the reference" in p for p in problems)


def test_oracle_flags_a_widened_ball():
    workload, rep = _synthetic_scan(widen=2 ** 81)
    _, failed, problems, _ = workload.check([rep])
    assert failed == 4
    assert all("does not certify" in p for p in problems)


def test_scan_check_flags_a_report_that_disagrees_with_the_cells():
    workload, rep = _synthetic_scan()
    doc = json.loads(rep.report)
    doc["payload"]["entries"][0]["verdict"] = "negative"
    rep.report = json.dumps(doc)
    _, failed, problems, _ = workload.check([rep])
    assert failed == 4 and "differ" in problems[0]


def test_rational_part_matches_a_sympy_derivative():
    import sympy
    x = sympy.Symbol("x")
    p = oracle.read_poly(CONSTANTS_TEXT, "p")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(p)) / (900 * x ** 4 * (x + 1) ** 10)
    derivs = oracle.RationalDerivatives(p, *oracle.RATIONAL_PARTS["g"][1:])
    for k in (0, 1, 3):
        want = sympy.diff(expr, x, k).subs(x, sympy.Rational(2, 3))
        assert derivs.value(k, Fraction(2, 3)) == Fraction(int(want.p), int(want.q))


# -- the proof-sweep check ---------------------------------------------------

def _sweep_rep(*outcomes):
    workload = run.SweepWorkload(mutants=len(outcomes) - 1)
    workload.labels = ["pristine"] + [f"m{i}" for i in range(len(outcomes) - 1)]
    return workload, run.Rep(1.0, 1.0, 0, "", {"work_s": 1.0, "sets": list(outcomes)})


PRISTINE = {"certificate": True, "identity": True, "sha256": run.PRISTINE_CERT_SHA256}


def test_sweep_check_accepts_rejected_mutants():
    workload, rep = _sweep_rep(PRISTINE,
                               {"certificate": False, "identity": True, "sha256": "x"},
                               {"certificate": True, "identity": False, "sha256": "y"},
                               {"error": "ConstantsFormatError: bad"})
    assert workload.check([rep])[:3] == (4, 0, [])


def test_sweep_check_flags_an_accepted_mutant():
    workload, rep = _sweep_rep(PRISTINE, {"certificate": True, "identity": True, "sha256": "x"})
    _, failed, problems, _ = workload.check([rep])
    assert failed == 1 and problems == ["m0: mutant accepted"]


def test_sweep_check_flags_changed_certificate_bytes():
    workload, rep = _sweep_rep(dict(PRISTINE, sha256="0" * 64))
    _, failed, problems, _ = workload.check([rep])
    assert failed == 1 and "certificate bytes changed" in problems[0]


# -- spans and the traced child ----------------------------------------------

def test_self_times_on_a_hand_built_tree():
    tree = [
        spans.Span("root", -1, 0.0, 10.0),
        spans.Span("a", 0, 1.0, 4.0),
        spans.Span("b", 0, 5.0, 9.0),
        spans.Span("b.child", 2, 6.0, 8.0),
        spans.Span("other", -1, 20.0, 21.5),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.5])


def test_self_times_count_overlapping_children_once():
    tree = [
        spans.Span("root", -1, 0.0, 10.0),
        spans.Span("a", 0, 1.0, 5.0),
        spans.Span("b", 0, 3.0, 6.0),
        spans.Span("late", 0, 9.0, 12.0),  # clipped at the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_traced_child_sees_every_scan_layer(tmp_path):
    workload = run.ScanWorkload("g", kmax=1, prec=64, points=2)
    workload.points = [Fraction(1), Fraction(2)]
    result = tmp_path / "result.json"
    args = ["--trace"] + workload.child_args(result, tmp_path / "report.json")
    subprocess.run([sys.executable, str(run.CHILD), *args], check=True,
                   env=run._child_env(), cwd=run.ROOT, timeout=120)
    out = json.loads(result.read_text())
    calls = out["layer_calls"]
    assert all(calls.get(layer) for layer in workload.fires + ("ball.arith",))
    layers = out["layers"]
    assert layers["scan.cells"] == 4 and layers["scan.evals_per_cell"] == 1.0
    # k <= 1 needs psi', psi'' and psi''' at each point; k = 1 reuses two of them
    assert layers["polygamma.distinct"] == 6
    assert layers["polygamma.calls"] == 2 * (2 + 3)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = list(spans.Tracer().layer_metrics()[0]) + ["trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in names}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
