"""One cold repetition of a benchmark workload, in a fresh interpreter.

    child.py setup
    child.py [--trace] scan RESULT CM-SCAN-ARGS...
    child.py [--trace] sweep RESULT CONSTANTS-PATH...

`setup` imports cmgamma, loads the constants and prints the clock.  `scan`
runs `cmgamma cm-scan` through `cli.main`; `sweep` loads each constants
file, replays the proof, serializes the certificate and runs the
expansion identity check.  Both write a JSON result to RESULT: the time of
the work, the outputs to check and, with --trace, the per-layer metrics.
The parent puts the checkout's `src` first on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


def _import_cmgamma():
    import cmgamma
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cmgamma.__file__).startswith(src + os.sep):
        raise SystemExit(f"cmgamma imported from {cmgamma.__file__}, not from {src}")
    return cmgamma


def _scan(argv: list[str]) -> dict:
    from cmgamma import cli, scan
    captured = []
    run_scan = scan.cm_scan

    def capture(*args, **kwargs):
        report = run_scan(*args, **kwargs)
        captured.append(report)
        return report

    scan.cm_scan = capture
    t0 = time.perf_counter()
    rc = cli.main(argv)
    work_s = time.perf_counter() - t0
    cells = [[e.k, str(e.x), str(e.ball.mid), str(e.ball.rad), e.verdict, e.prec_used]
             for report in captured for e in report.entries]
    return {"work_s": work_s, "rc": rc, "cells": cells}


def _sweep(cmgamma, paths: list[str]) -> dict:
    outcomes, docs = [], []
    t0 = time.perf_counter()
    for path in paths:
        try:
            consts = cmgamma.load_constants(path)
            report = cmgamma.replay_proof(consts)
            docs.append(report.to_json())
            identity = cmgamma.pf_expansion_identity_check(consts)
        except cmgamma.CmGammaError as exc:
            docs.append(None)
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        outcomes.append({"certificate": report.overall, "identity": identity.passed})
    work_s = time.perf_counter() - t0
    for outcome, doc in zip(outcomes, docs):
        if doc is not None:
            outcome["sha256"] = hashlib.sha256(doc.encode()).hexdigest()
    return {"work_s": work_s, "sets": outcomes}


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    mode, rest = argv[0], argv[1:]
    cmgamma = _import_cmgamma()
    if mode == "setup":
        cmgamma.load_constants()
        print(repr(time.perf_counter()))
        return 0
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    result_path, args = rest[0], rest[1:]
    result = _scan(args) if mode == "scan" else _sweep(cmgamma, args)
    if tracer is not None:
        result["layers"], result["layer_calls"] = tracer.layer_metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
