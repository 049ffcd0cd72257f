"""Grid scans: CM verification, the inequality, and decay."""

import importlib
import json
from collections import Counter
from fractions import Fraction as F

import pytest

from cmgamma.algebra import PartialFractionForm
from cmgamma.ball import Ball
from cmgamma.errors import DomainError
from cmgamma.polygamma import PrecisionPolicy
from cmgamma.scan import (GridSpec, _certified_sign, cm_scan, decay_check,
                          default_grid, inequality_scan)

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

        sign, _, prec = _certified_sign(evaluate, PrecisionPolicy(64), 4096)
        assert sign == 1 and prec == 256 and calls == [64, 128, 256]

    def test_gives_up_at_cap(self):
        sign, _, prec = _certified_sign(
            lambda p: Ball(F(0), F(1), p), PrecisionPolicy(64), 256)
        assert sign == 0 and prec == 256


class TestCmScan:
    def test_g_small_grid(self):
        rep = cm_scan("g", 2, SMALL_GRID, PrecisionPolicy(192))
        assert not rep.failed
        assert rep.indeterminate_count == 0
        assert rep.max_k_verified == 2
        assert len(rep.entries) == 9

    def test_h_small_grid(self):
        rep = cm_scan("H", 2, SMALL_GRID, PrecisionPolicy(192))
        assert not rep.failed and rep.indeterminate_count == 0

    def test_doubling_grid_from_one_tenth(self):
        grid = GridSpec.geometric(F(1, 10), F(2), 12)
        for kind in ("g", "H"):
            rep = cm_scan(kind, 6, grid, PrecisionPolicy(192))
            assert not rep.failed and rep.indeterminate_count == 0
            assert rep.max_k_verified == 6

    def test_single_cell(self):
        rep = cm_scan("g", 0, GridSpec.explicit([F(1)]), PrecisionPolicy(128))
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
        low = cm_scan("g", 1, grid, PrecisionPolicy(128))
        high = cm_scan("g", 1, grid, PrecisionPolicy(256))
        for a, b in zip(low.entries, high.entries):
            if a.verdict == "positive":
                assert b.verdict == "positive"

    def test_csv_layout(self):
        rep = cm_scan("g", 0, GridSpec.explicit([F(1)]), PrecisionPolicy(96))
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "k,x,mid,rad,verdict"
        k, x, mid, rad, verdict = lines[1].split(",")
        assert (k, x, verdict) == ("0", "1", "positive")
        assert mid.startswith("0.09635")

    def test_json_round_trip(self):
        rep = cm_scan("g", 1, GridSpec.explicit([F(1), F(2)]), PrecisionPolicy(96))
        doc = json.loads(rep.to_json())
        assert doc["kind"] == "cm_scan"
        assert doc["payload"]["summary"]["failed"] is False
        assert len(doc["payload"]["entries"]) == 4
        assert rep.to_json() == cm_scan("g", 1, GridSpec.explicit([F(1), F(2)]),
                                        PrecisionPolicy(96)).to_json()


class TestInequalityScan:
    def test_agrees_with_cm_scan_order_zero(self):
        grid = GridSpec.explicit([F(1, 16), F(1), F(8)])
        pol = PrecisionPolicy(160)
        scan_rep = cm_scan("g", 0, grid, pol)
        ineq_rep = inequality_scan(grid, pol)
        assert ineq_rep.passed
        for a, b in zip(scan_rep.entries, ineq_rep.entries):
            assert (a.verdict == "positive") == b.strict
            assert a.x == b.x

    def test_small_x_with_escalation(self):
        rep = inequality_scan(GridSpec.explicit([F(1, 1024)]), PrecisionPolicy(128))
        assert rep.passed
        assert rep.entries[0].margin > 0

    def test_json(self):
        rep = inequality_scan(GridSpec.explicit([F(1)]), PrecisionPolicy(96))
        doc = json.loads(rep.to_json())
        assert doc["payload"]["summary"]["passed"] is True


class TestDecay:
    def test_vacuous_single_point(self):
        rep = decay_check("g", 0, PrecisionPolicy(128))
        assert rep.strictly_decreasing  # vacuous with one point
        assert len(rep.entries) == 1

    def test_g_decreasing_full_range(self):
        rep = decay_check("g", 10, PrecisionPolicy(128))
        assert rep.strictly_decreasing
        assert rep.final_below_threshold  # g(1024) < 1e-6
        assert rep.passed

    def test_h_decreasing(self):
        rep = decay_check("H", 10, PrecisionPolicy(128))
        assert rep.strictly_decreasing
        assert rep.passed

    def test_jmax_validation(self):
        with pytest.raises(DomainError):
            decay_check("g", 17)
        with pytest.raises(DomainError):
            decay_check("nope", 2)


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
    cm_scan(kind, 2, GridSpec.explicit([F(1, 3), F(5)]), PrecisionPolicy(64))
    assert set(calls) == {"round_nearest", "eval_exact", "polygamma"}
