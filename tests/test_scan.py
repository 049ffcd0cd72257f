"""Grid scans: CM verification, the inequality, and decay."""

import hashlib
import importlib
import importlib.util
import json
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp

from cmgamma import bounds
from cmgamma.algebra import PartialFractionForm
from cmgamma.ball import Ball, _mpf_tuple_to_fraction, round_nearest
from cmgamma.cli import main
from cmgamma.errors import DomainError
from cmgamma.scan import (MAX_POINT_BITS, GridSpec, _certified_sign, cm_scan,
                          default_grid)
from oracles import g_derivative_ball_chain, overlaps, rational_part_derivatives

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

    def test_immutable_with_value_equality(self):
        g = GridSpec.explicit([F(2), F(1, 2)])
        with pytest.raises(AttributeError):
            g.points = (F(1),)
        with pytest.raises(AttributeError):
            del g.points
        assert g == GridSpec.explicit([F(1, 2), F(2)])
        assert hash(g) == hash(GridSpec.explicit([F(1, 2), F(2)]))
        assert g != GridSpec.explicit([F(1, 2)]) and g != g.points

    @staticmethod
    def span_mpmath(start, stop, count):
        """The span grid as it was computed with mpmath: 96-bit logarithms
        and exponential, then the 24-bit rounding."""
        pts = [start, stop]
        with mp.workprec(96):
            la = mp.log(mp.mpf(start.numerator)) - mp.log(mp.mpf(start.denominator))
            lb = mp.log(mp.mpf(stop.numerator)) - mp.log(mp.mpf(stop.denominator))
            for j in range(1, count - 1):
                v = mp.e ** (la + (lb - la) * j / (count - 1))
                pts.append(round_nearest(_mpf_tuple_to_fraction(v._mpf_), 24)[0])
        return tuple(sorted(pts))

    def test_span_matches_mpmath(self):
        specs = [(F(1, 16), F(64), 25), (F(1, 16), F(64), 1000)]
        rng = random.Random(8)
        for _ in range(300):
            a, b = (F(rng.randint(1, 10 ** rng.randint(1, 40)),
                      rng.randint(1, 10 ** rng.randint(1, 40))) for _ in range(2))
            specs.append((a, b, rng.randint(2, 80)))
        for a, b, n in specs:
            assert GridSpec.geometric_span(a, b, n).points == self.span_mpmath(a, b, n)

    def test_span_exact_ties_round_to_even(self):
        # the middle point is exactly halfway between two 24-bit dyadics
        for tail, even in ((1, F(1)), (3, F(2 ** 22 + 1, 2 ** 22))):
            mid = F(2 ** 24 + tail, 2 ** 24)
            assert GridSpec.geometric_span(1, mid * mid, 3).points[1] == even

    def test_span_at_the_size_limits(self):
        big = F(2 ** MAX_POINT_BITS - 1)
        g = GridSpec.geometric_span(1 / big, big, 10_000)
        assert len(g.points) == 10_000 and g.points[0] == 1 / big

    def test_geometric_point_size_limit(self):
        assert GridSpec.geometric(1, 2, MAX_POINT_BITS).points[-1] == 2 ** (MAX_POINT_BITS - 1)
        # only the ends are large; the middle points reduce
        g = GridSpec.geometric(F(1, 2 ** (MAX_POINT_BITS - 1)), 2, 2 * MAX_POINT_BITS - 1)
        assert g.points[-1] == 2 ** (MAX_POINT_BITS - 1)
        for start, ratio, count in ((1, 2, MAX_POINT_BITS + 2),
                                    (F(1, 2 ** MAX_POINT_BITS), 2, 3),
                                    (1, F(10) ** 100, 10_000),
                                    (1, F(2 ** 511 + 1, 2 ** 511), 10_000)):
            with pytest.raises(DomainError, match="bits"):
                GridSpec.geometric(start, ratio, count)


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
        assert sign == 0 and prec == bounds.ESCALATION_CAP_BITS
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

    @pytest.mark.parametrize("kind, k_max, prec, points, sha256", [
        pytest.param(kind, k_max, prec, points, sha256,
                     id=f"{kind}-{sha256}" if prec == 64
                     else f"{kind}-k{k_max}-{prec}bit-{sha256}")
        for kind, k_max, prec, points, sha256 in [
            ("g", 2, 64, (F(1, 3), F(5)),
             "6a2d9d4cb9ac927d140c24eaaf532856c5e1c3aa2d89476c27c6b0187c79a203"),
            ("H", 2, 64, (F(1, 3), F(5)),
             "2b2e0c349178c83ea5af63cec3e73f9e692150e5000ebe0239b455889f6d2027"),
            ("telescoping", 0, 64, (F(1, 3), F(5)),
             "3649ffb227f79f4d8341328aa3f36c0ec8573bd8f5092710eceb7129ded92328"),
            # the benchmark's scale: the scan_H_deep and scan_g settings
            ("H", 12, 512, (F(1, 16), F(1), F(64)),
             "52b7b99b056eb3ca824f9b139f72f94fc99715647195e525804087d143f1e13d"),
            ("g", 8, 256, (F(1, 16), F(1), F(64)),
             "258b67d6cb72174bf499f310ae5087765d8d50dc2650fa5717465ac797906e8a"),
        ]
    ])
    def test_report_bytes_pinned(self, kind, k_max, prec, points, sha256, capsys):
        # byte-stable reports: any change to a midpoint, radius or the
        # format shows here and has to be re-pinned on purpose
        if kind == "telescoping":
            # the g enclosures that `identity-check telescoping` and `eval g` print
            for x in points:
                x = str(x)
                assert main(["identity-check", "telescoping", "--x", x,
                             "--prec", str(prec)]) == 0
                assert main(["eval", "g", x, "--prec", str(prec)]) == 0
            doc = capsys.readouterr().out
        else:
            doc = cm_scan(kind, k_max, GridSpec.explicit(points), prec).to_json()
        assert hashlib.sha256(doc.encode()).hexdigest() == sha256

    def test_json_round_trip(self):
        rep = cm_scan("g", 1, GridSpec.explicit([F(1), F(2)]), 96)
        doc = json.loads(rep.to_json())
        assert doc["kind"] == "cm_scan"
        assert doc["payload"]["summary"]["failed"] is False
        assert len(doc["payload"]["entries"]) == 4
        assert rep.to_json() == cm_scan("g", 1, GridSpec.explicit([F(1), F(2)]),
                                        96).to_json()


class TestIntegerCells:
    """Each g cell is the Leibniz sum taken in integers and rounded once; the
    Ball chain that rounds every product and sum on its own is the reference."""

    GRIDS = {"default": default_grid(),
             "small-x": GridSpec.geometric(F(1, 1024), F(4), 6)}

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_cells_match_the_ball_chain(self, monkeypatch, grid, prec):
        k_max = bounds.MAX_DERIVATIVE_ORDER
        points = self.GRIDS[grid].points
        # polygamma is a pure function; one memo serves the scan, the
        # reference and the standalone evaluations alike
        memo = {}
        direct = bounds.polygamma

        def polygamma(m, x, p):
            if (m, x, p) not in memo:
                memo[m, x, p] = direct(m, x, p)
            return memo[m, x, p]

        monkeypatch.setattr(bounds, "polygamma", polygamma)
        rep = cm_scan("g", k_max, self.GRIDS[grid], prec)
        assert [(e.k, e.x) for e in rep.entries] == [(k, x) for k in range(k_max + 1)
                                                     for x in points]
        rational = {x: rational_part_derivatives("g", x, k_max) for x in points}
        for e in rep.entries:
            def reference(p, k=e.k, x=e.x):
                psi = {m: polygamma(m, x, p) for m in range(1, k + 3)}
                return g_derivative_ball_chain(k, x, psi, rational[x][k])

            sign, ref, used = _certified_sign(reference, prec)
            flip = -1 if e.k % 2 else 1
            assert e.verdict == {1: "positive", -1: "negative", 0: "indeterminate"}[sign * flip]
            assert e.prec_used == used
            assert e.ball.rad <= ref.rad and overlaps(e.ball, ref)
            alone = bounds.g_derivative(e.k, e.x, used)  # the jet built inside
            assert (alone.mid, alone.rad, alone.prec) == (e.ball.mid, e.ball.rad, e.ball.prec)

    @pytest.mark.parametrize("kind", ["g", "H"])
    def test_escalated_cells_use_a_jet_at_their_precision(self, monkeypatch, kind):
        # at 8 bits the cells at x = 64 and x = 1000 resolve only at 16 or
        # 32 bits; each escalation fills the jet of its own precision, and
        # no order is computed twice at one point and precision
        seen = Counter()
        direct = bounds.polygamma

        def polygamma(m, x, p):
            seen[m, x, p] += 1
            return direct(m, x, p)

        monkeypatch.setattr(bounds, "polygamma", polygamma)
        rep = cm_scan(kind, 12, GridSpec.explicit([F(1), F(64), F(1000)]), 8)
        assert {e.prec_used for e in rep.entries} == {8, 16, 32}
        assert max(seen.values()) == 1
        deriv = bounds.g_derivative if kind == "g" else bounds.h_derivative
        for e in rep.entries:
            alone = deriv(e.k, e.x, e.prec_used)
            assert (alone.mid, alone.rad) == (e.ball.mid, e.ball.rad)


class TestInequalityScan:
    """The inequality psi'^2 + psi'' > B is the k = 0 row of the g scan."""

    def test_agrees_with_cm_scan_order_zero(self):
        # g_eval is the k = 0 cell wherever that cell meets the 160-bit
        # target; at x = 8 the cancelling sum misses it, so g_eval is the
        # same cell at 320 bits
        grid = GridSpec.explicit([F(1, 16), F(1), F(8)])
        for entry in cm_scan("g", 0, grid, 160).entries:
            ball = bounds.g_eval(entry.x, 160)
            assert ball.prec == (320 if entry.x == 8 else 160)
            cell = bounds.g_derivative(0, entry.x, ball.prec)
            assert (cell.mid, cell.rad) == (ball.mid, ball.rad)
            if ball.prec == 160:
                assert (entry.ball.mid, entry.ball.rad) == (ball.mid, ball.rad)
            assert overlaps(entry.ball, ball)
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
    # scan that bypassed one would leave that layer blank.  Each grid point
    # gets one polygamma jet: every order is computed once per point, never
    # once per cell (no cell of this grid escalates)
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
    grid = GridSpec.explicit([F(1, 3), F(5)])
    k_max = 2  # g needs psi orders 1..k_max+2, H orders 1..k_max+1
    rep = cm_scan(kind, k_max, grid, 64)
    assert set(calls) == {"round_nearest", "eval_exact", "polygamma"}
    assert all(e.prec_used == 64 for e in rep.entries)
    assert calls["polygamma"] == (k_max + (2 if kind == "g" else 1)) * len(grid.points)


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
