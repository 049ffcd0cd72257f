"""Grid scans: CM verification, the inequality, and decay."""

import hashlib
import importlib
import importlib.util
import json
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from cmgamma import bounds
from cmgamma.algebra import PartialFractionForm
from cmgamma.ball import Ball
from cmgamma.errors import DomainError
from cmgamma.scan import (ESCALATION_CAP_BITS, GridSpec, _certified_sign,
                          cm_scan, default_grid)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

SMALL_GRID = GridSpec.explicit([F(1, 16), F(1), F(64)])


class TestGridSpec:
    def test_explicit_sorts_and_validates(self):
        g = GridSpec.explicit([F(2), F(1, 2)])
        assert g.points == (F(1, 2), F(2))
        with pytest.raises(DomainError):
            GridSpec.explicit([])
        with pytest.raises(DomainError):
            GridSpec.explicit([F(0)])

    def test_geometric_exact(self):
        g = GridSpec.geometric(F(1, 16), F(2), 5)
        assert g.points == (F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(1))

    def test_geometric_span_endpoints_exact(self):
        g = GridSpec.geometric_span(F(1, 16), F(64), 25)
        assert len(g.points) == 25
        assert g.points[0] == F(1, 16) and g.points[-1] == F(64)
        assert all(p > 0 for p in g.points)
        # spacing roughly geometric: ratios within 2% of each other
        ratios = [g.points[i + 1] / g.points[i] for i in range(24)]
        assert max(ratios) / min(ratios) < F(102, 100)

    def test_default_grid(self):
        g = default_grid()
        assert g.points[0] == F(1, 16) and g.points[-1] == 64 and len(g.points) == 25


class TestCertifiedSign:
    def test_escalates_until_determined(self):
        calls = []

        def evaluate(prec):
            calls.append(prec)
            if prec >= 256:
                return Ball(F(1), F(1, 2), prec)
            return Ball(F(1), F(2), prec)

        sign, _, prec = _certified_sign(evaluate, 64)
        assert sign == 1 and prec == 256 and calls == [64, 128, 256]

    def test_gives_up_at_cap(self):
        calls = []

        def evaluate(prec):
            calls.append(prec)
            return Ball(F(0), F(1), prec)

        sign, _, prec = _certified_sign(evaluate, 1024)
        assert sign == 0 and prec == ESCALATION_CAP_BITS
        assert calls == [1024, 2048, 4096]


class TestCmScan:
    def test_g_small_grid(self):
        rep = cm_scan("g", 2, SMALL_GRID, 192)
        assert not rep.failed
        assert rep.indeterminate_count == 0
        assert rep.max_k_verified == 2
        assert len(rep.entries) == 9

    def test_h_small_grid(self):
        rep = cm_scan("H", 2, SMALL_GRID, 192)
        assert not rep.failed and rep.indeterminate_count == 0

    def test_doubling_grid_from_one_tenth(self):
        grid = GridSpec.geometric(F(1, 10), F(2), 12)
        for kind in ("g", "H"):
            rep = cm_scan(kind, 6, grid, 192)
            assert not rep.failed and rep.indeterminate_count == 0
            assert rep.max_k_verified == 6

    def test_single_cell(self):
        rep = cm_scan("g", 0, GridSpec.explicit([F(1)]), 128)
        (entry,) = rep.entries
        assert entry.verdict == "positive"
        assert entry.ball.mid > 0

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            cm_scan("x", 1, SMALL_GRID)
        with pytest.raises(DomainError):
            cm_scan("g", 99, SMALL_GRID)

    def test_verdicts_monotone_in_precision(self):
        grid = GridSpec.explicit([F(1, 16), F(4)])
        low = cm_scan("g", 1, grid, 128)
        high = cm_scan("g", 1, grid, 256)
        for a, b in zip(low.entries, high.entries):
            if a.verdict == "positive":
                assert b.verdict == "positive"

    def test_csv_layout(self):
        rep = cm_scan("g", 0, GridSpec.explicit([F(1)]), 96)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "k,x,mid,rad,verdict"
        k, x, mid, rad, verdict = lines[1].split(",")
        assert (k, x, verdict) == ("0", "1", "positive")
        assert mid.startswith("0.09635")

    @pytest.mark.parametrize("kind, sha256", [
        ("g", "1cec0a3fcebb0b892def4caeb8aafe5e448fecf18470927a38d0d4f735ef14c7"),
        ("H", "2b2e0c349178c83ea5af63cec3e73f9e692150e5000ebe0239b455889f6d2027"),
    ])
    def test_report_bytes_pinned(self, kind, sha256):
        # byte-stable reports: any change to a midpoint, radius or the
        # format shows here and has to be re-pinned on purpose
        doc = cm_scan(kind, 2, GridSpec.explicit([F(1, 3), F(5)]), 64).to_json()
        assert hashlib.sha256(doc.encode()).hexdigest() == sha256

    def test_json_round_trip(self):
        rep = cm_scan("g", 1, GridSpec.explicit([F(1), F(2)]), 96)
        doc = json.loads(rep.to_json())
        assert doc["kind"] == "cm_scan"
        assert doc["payload"]["summary"]["failed"] is False
        assert len(doc["payload"]["entries"]) == 4
        assert rep.to_json() == cm_scan("g", 1, GridSpec.explicit([F(1), F(2)]),
                                        96).to_json()


class TestInequalityScan:
    """The inequality psi'^2 + psi'' > B is the k = 0 row of the g scan."""

    def test_agrees_with_cm_scan_order_zero(self):
        grid = GridSpec.explicit([F(1, 16), F(1), F(8)])
        for entry in cm_scan("g", 0, grid, 160).entries:
            ball = bounds.g_eval(entry.x, 160)
            assert (entry.ball.mid, entry.ball.rad) == (ball.mid, ball.rad)
            assert entry.verdict == "positive" and ball.lower > 0

    def test_small_x_with_escalation(self):
        (entry,) = cm_scan("g", 0, GridSpec.explicit([F(1, 1024)]), 128).entries
        assert entry.verdict == "positive"
        assert entry.ball.lower > 0


def _decreasing_at_powers_of_two(evaluate, j_max=10):
    """Enclosures at x = 2^j, j = 0..j_max, each strictly below the last."""
    balls = [evaluate(F(2 ** j), 128) for j in range(j_max + 1)]
    assert all(b.upper < a.lower for a, b in zip(balls, balls[1:]))
    return balls


class TestDecay:
    def test_g_decreasing_full_range(self):
        balls = _decreasing_at_powers_of_two(bounds.g_eval)
        assert balls[-1].upper < F(1, 10 ** 6)  # g(1024) < 1e-6

    def test_h_decreasing(self):
        _decreasing_at_powers_of_two(bounds.h_eval)


@pytest.mark.parametrize("kind", ["g", "H"])
def test_scan_calls_the_traced_entry_points(monkeypatch, kind):
    # the benchmark's traced mode wraps these names where they are bound; a
    # scan that bypassed one would leave that layer blank
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    ball_module = importlib.import_module("cmgamma.ball")
    bounds_module = importlib.import_module("cmgamma.bounds")
    monkeypatch.setattr(ball_module, "round_nearest",
                        counted("round_nearest", ball_module.round_nearest))
    monkeypatch.setattr(PartialFractionForm, "eval_exact",
                        counted("eval_exact", PartialFractionForm.eval_exact))
    monkeypatch.setattr(bounds_module, "polygamma",
                        counted("polygamma", bounds_module.polygamma))
    cm_scan(kind, 2, GridSpec.explicit([F(1, 3), F(5)]), 64)
    assert set(calls) == {"round_nearest", "eval_exact", "polygamma"}


def test_traced_entry_points_resolve():
    # every (module, attribute path) the benchmark's tracer rebinds must
    # exist where the tracer looks for it, so renaming or deleting a layer
    # entry point fails here; the tracer itself is not installed
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for layer, module, path in spans.BOUNDARIES:
        obj = importlib.import_module(module)
        for part in path.split("."):
            assert part in vars(obj), f"{layer}: {module}.{path} is missing"
            obj = vars(obj)[part]
        assert callable(obj), f"{layer}: {module}.{path} is not callable"
