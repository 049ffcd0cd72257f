"""Span tracer for the benchmark's traced mode.

The tracer wraps cmgamma's layer entry points from outside the package:
nothing in `src/` changes.  A wrapped call records one span (layer name,
parent span, start, end); a call into the layer it is already inside
(`Ball.__sub__` delegating to `Ball.__add__`, say) stays in the open span.
Spans are kept in memory and reduced to per-layer metrics at the end.

Every name is patched where it is bound, not only where it is defined:
`cmgamma.polygamma` is the function (the package shadows the submodule),
`scan._KINDS` holds `g_derivative`/`h_derivative` captured at import time,
`Ball.__radd__`/`__rmul__` are aliases made when the class was created, and
`bounds` imports `polygamma` and `pfd_decompose` by name.  `install` walks
every binding in the loaded cmgamma modules (module globals, module-level
dicts and class attributes), rebinds each one, and then fails if any
binding of an original function is left.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (layer, defining module, attribute path); a layer may have several.
BOUNDARIES = (
    ("cli", "cmgamma.cli", "main"),
    ("scan", "cmgamma.scan", "cm_scan"),
    ("scan.cell", "cmgamma.scan", "_certified_sign"),
    ("bounds", "cmgamma.bounds", "g_derivative"),
    ("bounds", "cmgamma.bounds", "h_derivative"),
    ("polygamma", "cmgamma.polygamma", "polygamma"),
    ("ball.round_nearest", "cmgamma.ball", "round_nearest"),
    ("ball.arith", "cmgamma.ball", "Ball.__add__"),
    ("ball.arith", "cmgamma.ball", "Ball.__sub__"),
    ("ball.arith", "cmgamma.ball", "Ball.__rsub__"),
    ("ball.arith", "cmgamma.ball", "Ball.__mul__"),
    ("algebra.pf_eval", "cmgamma.algebra", "PartialFractionForm.eval_exact"),
    ("algebra.exppoly_deriv", "cmgamma.algebra", "ExpPoly.deriv"),
    ("algebra.pfd", "cmgamma.algebra", "pfd_decompose"),
    ("algebra.pfd", "cmgamma.algebra", "pfd_recompose"),
    ("replay", "cmgamma.replay", "replay_proof"),
    ("replay.build_chain", "cmgamma.replay", "build_chain"),
    ("replay.verify", "cmgamma.replay", "verify_kernel_build"),
    ("replay.verify", "cmgamma.replay", "verify_derivative_fixtures"),
    ("replay.verify", "cmgamma.replay", "verify_initial_values"),
    ("replay.verify", "cmgamma.replay", "verify_divisibility"),
    ("replay.certificate", "cmgamma.replay", "chain_positivity_certificate"),
    ("constants.load", "cmgamma.constants", "load_constants"),
    ("reporting", "cmgamma.scan", "CmScanReport.to_json"),
    ("reporting", "cmgamma.replay", "CertificateReport.to_json"),
)

class TraceError(RuntimeError):
    """The tracer could not attach to, or did not see, a layer boundary."""


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: int, start: float, end: float = 0.0):
        self.name = name
        self.parent = parent  # index of the parent span, -1 for a root
        self.start = start
        self.end = end


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _cmgamma_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cmgamma" or name.startswith("cmgamma."))]


def _bindings():
    """(setter, value) for every module global, module-level dict entry and
    class attribute in the loaded cmgamma modules."""
    seen_classes = set()
    for mod in _cmgamma_modules():
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            yield functools.partial(namespace.__setitem__, key), value
            if type(value) is dict:
                for k2, v2 in list(value.items()):
                    yield functools.partial(value.__setitem__, k2), v2
            elif isinstance(value, type) and value.__module__.startswith("cmgamma") \
                    and value not in seen_classes:
                seen_classes.add(value)
                for k2, v2 in list(vars(value).items()):
                    yield functools.partial(setattr, value, k2), v2


def _resolve(module: str, path: str):
    # the module object, not getattr(cmgamma, ...): names shadow submodules
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.polygamma_args: set = set()  # distinct calls, for the reuse ratio
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        seen = self.polygamma_args if layer == "polygamma" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].name == layer:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            span = Span(layer, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Rebind every boundary everywhere it is bound; fail if one is missed."""
        wrappers = {}
        for layer, module, path in BOUNDARIES:
            try:
                original = _resolve(module, path)
            except (ImportError, KeyError):
                raise TraceError(f"boundary {module}.{path} ({layer}) does not exist")
            wrappers[id(original)] = (original, self.wrap(layer, original))
        for setter, value in _bindings():
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(hit[1])
        left = [repr(v) for _, v in _bindings()
                if id(v) in wrappers and wrappers[id(v)][0] is v]
        if left:
            raise TraceError(f"unpatched bindings left: {left}")

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics (see README.md) and the span count of every layer."""
        selfs = self_times(self.spans)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        evals = 0
        for s, own in zip(self.spans, selfs):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + own
            total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
            if s.name in ("polygamma", "scan.cell"):
                durations.setdefault(s.name, []).append(s.end - s.start)
            if s.name == "bounds" and s.parent >= 0 and self.spans[s.parent].name == "scan.cell":
                evals += 1

        def pct(name: str, q: int, scale: float) -> float:
            d = durations.get(name, [])
            if len(d) < 2:
                return d[0] * scale if d else 0.0
            return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * scale

        n_poly = calls.get("polygamma", 0)
        distinct = len(self.polygamma_args)
        cells = calls.get("scan.cell", 0)
        out = {
            "polygamma.calls": n_poly,
            "polygamma.distinct": distinct,
            "polygamma.reuse_ratio": 1 - distinct / n_poly if n_poly else 0.0,
            "polygamma.self_s": self_s.get("polygamma", 0.0),
            "polygamma.call_p50_us": pct("polygamma", 50, 1e6),
            "polygamma.call_p95_us": pct("polygamma", 95, 1e6),
            "scan.cells": cells,
            "scan.evals": evals,
            "scan.evals_per_cell": evals / cells if cells else 0.0,
            "scan.cell_p50_ms": pct("scan.cell", 50, 1e3),
            "scan.cell_p95_ms": pct("scan.cell", 95, 1e3),
            "scan.self_s": self_s.get("scan", 0.0) + self_s.get("scan.cell", 0.0),
            "replay.build_chain_s": total_s.get("replay.build_chain", 0.0),
            "replay.verify_s": total_s.get("replay.verify", 0.0),
            "replay.certificate_s": total_s.get("replay.certificate", 0.0),
            "replay.self_s": sum(self_s.get(n, 0.0) for n in (
                "replay", "replay.build_chain", "replay.verify", "replay.certificate")),
            "constants.load.calls": calls.get("constants.load", 0),
            "constants.load_s": total_s.get("constants.load", 0.0),
            "reporting.serialize_s": total_s.get("reporting", 0.0),
            "cli.self_s": self_s.get("cli", 0.0),
        }
        for layer in ("ball.round_nearest", "ball.arith", "bounds", "algebra.pf_eval",
                      "algebra.exppoly_deriv", "algebra.pfd"):
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        return out, calls
