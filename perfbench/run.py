"""Cold-process benchmark of cmgamma: three seeded workloads, one command.

    python3 perfbench/run.py --workload scan_g --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout that has `src/cmgamma`; it imports
the package from that `src`.  Every repetition is a fresh interpreter, so
every cache inside cmgamma starts empty, as it does for a user who runs the
`cmgamma` command.  Repetitions run one at a time, nothing in parallel, and
each process runs one workload only.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced repetitions and prints the per-layer
metrics of the traced ones.  Both modes check every output.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONSTANTS = SRC / "cmgamma" / "data" / "source_constants.txt"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"

SETUPS_PER_REP = 3

#: calibrate() took about this long on the machine the benchmark was tuned
#: on (2 vCPUs, CPython 3.11.7); reported times are scaled to that speed.
CAL_REF_S = 0.04
CAL_REPEATS = 3

#: SHA-256 of `cmgamma replay-proof --emit -` on the pristine constants,
#: pinned from the source release; the certificate is byte-stable.
PRISTINE_CERT_SHA256 = "ea4a9750679def5c44e5b6d21829761fa124dffb40fa9af67fe4c834604916e9"

#: proof_sweep's outputs are exact (no radius), so its certainty is unbounded;
#: it reports this fixed stand-in for certainty_bits_min.
EXACT_CERTAINTY_BITS = 1e6

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "work_s": "s", "items_per_s": "1/s",
    "peak_rss_mb": "MB", "certainty_bits_min": "bits",
}


class BenchError(Exception):
    """The benchmark itself cannot run or its traced self-check failed."""


@dataclass
class Rep:
    """One child process: its wall time, peak RSS, result file and speed scale."""

    job_s: float
    rss_mb: float
    rc: int
    stderr: str
    result: dict | None
    report: str | None = None
    scale: float = 1.0  # CAL_REF_S / the calibration time around this child
    setups: list[float] = field(default_factory=list)


# -- machine speed -----------------------------------------------------------

def _calibration_kernel() -> Fraction:
    """Fixed Fraction and big-integer work, like the scans' inner loops."""
    x = Fraction(12345, 8192)
    acc = Fraction(0)
    for i in range(1500):
        term = (x + i) ** -9
        e = term.numerator.bit_length() - term.denominator.bit_length() - 400
        acc += Fraction(round(term / Fraction(2) ** e)) * Fraction(2) ** e
    return acc


def calibrate() -> float:
    """Median seconds the calibration kernel takes now: the machine's speed."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- child processes ---------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CMGAMMA_PREC", None)  # the workloads pass --prec explicitly
    return env


def spawn(args: list[str], work: Path) -> tuple[float, float, float, int, str, str]:
    """Run child.py with args: (start clock, wall s, peak RSS MB, rc, stdout, stderr)."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], stdout=out,
                                stderr=err, cwd=ROOT, env=_child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (t0, wall, usage.ru_maxrss / 1024, proc.returncode,
            out_path.read_text(), err_path.read_text())


def setup_time(work: Path) -> float:
    """Seconds from spawning an interpreter until cmgamma is imported and
    its constants are loaded (both clocks are the system monotonic clock)."""
    t0, _, _, rc, out, err = spawn(["setup"], work)
    if rc != 0:
        raise BenchError(f"setup child failed (rc={rc}): {err.strip()[-2000:]}")
    return float(out.strip()) - t0


def run_rep(workload, work: Path, trace: bool) -> Rep:
    result_path = work / "result.json"
    report_path = work / "report.out"
    for p in (result_path, report_path):
        p.unlink(missing_ok=True)
    args = (["--trace"] if trace else []) + workload.child_args(result_path, report_path)
    _, wall, rss, rc, _, err = spawn(args, work)
    result = json.loads(result_path.read_text()) if rc == 0 and result_path.exists() else None
    report = report_path.read_text() if report_path.exists() else None
    return Rep(wall, rss, rc, err, result, report)


# -- workloads ---------------------------------------------------------------

class ScanWorkload:
    """`cmgamma cm-scan KIND --kmax K --prec P --format json` on a seeded grid."""

    fires = ("cli", "scan", "scan.cell", "bounds", "polygamma", "ball.round_nearest",
             "algebra.pf_eval", "constants.load", "reporting")
    silent = ()

    def __init__(self, kind: str, kmax: int, prec: int, points: int):
        self.kind, self.kmax, self.prec, self.n_points = kind, kmax, prec, points
        self.points: list[Fraction] = []

    @property
    def items(self) -> int:
        return (self.kmax + 1) * self.n_points

    def prepare(self, seed: int, work: Path) -> None:
        self.points = inputs.seeded_grid(seed, self.n_points)

    def child_args(self, result: Path, report: Path) -> list[str]:
        return ["scan", str(result), "cm-scan", self.kind, "--kmax", str(self.kmax),
                "--prec", str(self.prec), "--grid", inputs.grid_arg(self.points),
                "--format", "json", "--output", str(report)]

    def verdicts(self, rep: Rep):
        """What the traced run must reproduce: the report bytes."""
        return rep.rc, rep.result and rep.result["rc"], rep.report

    def check(self, reps: list[Rep]) -> tuple[int, int, list[str], float]:
        """(attempted, failed, problems, certainty_bits_min) over all reps."""
        import oracle  # sympy is slow to import; only scans need it
        cells_by_rep = [self._cells(rep) for rep in reps]
        used = [c["prec_used"] for cells in cells_by_rep if cells for c in cells]
        refs = oracle.reference_values(
            self.kind, self.kmax, self.points, CONSTANTS.read_text(),
            oracle.oracle_bits(max(used, default=self.prec), self.kmax))
        failed, problems, certainty = 0, [], math.inf
        for rep, cells in zip(reps, cells_by_rep):
            if cells is None:
                failed += self.items
                problems.append(f"scan crashed (rc={rep.rc}): {rep.stderr.strip()[-500:]}")
                continue
            bad = self._report_problem(rep, cells)
            if bad:
                failed += self.items
                problems.append(bad)
                continue
            for cell in cells:
                why = oracle.check_cell(cell, refs[(cell["k"], cell["x"])])
                if why:
                    failed += 1
                    problems.append(f"k={cell['k']} x={cell['x']}: {why}")
                else:
                    certainty = min(certainty, oracle.certainty_bits(cell))
        return self.items * len(reps), failed, problems, certainty

    def _cells(self, rep: Rep) -> list[dict] | None:
        if rep.result is None:
            return None
        return [{"k": k, "x": Fraction(x), "mid": Fraction(mid), "rad": Fraction(rad),
                 "verdict": verdict, "prec_used": prec}
                for k, x, mid, rad, verdict, prec in rep.result["cells"]]

    def _report_problem(self, rep: Rep, cells: list[dict]) -> str | None:
        """Why the written report disagrees with the scan's cells, if it does."""
        want = {(k, x) for k in range(self.kmax + 1) for x in self.points}
        if len(cells) != self.items or {(c["k"], c["x"]) for c in cells} != want:
            return f"scan returned {len(cells)} cells, not the {self.items} of the grid"
        try:
            doc = json.loads(rep.report or "")
            kind = doc["kind"]
            shown = [(e["k"], Fraction(e["x"]), e["verdict"]) for e in doc["payload"]["entries"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"report is not a cm_scan JSON document: {exc!r}"
        if kind != "cm_scan" or shown != [(c["k"], c["x"], c["verdict"]) for c in cells]:
            return "report entries differ from the scan's cells"
        expected_rc = 1 if any(c["verdict"] == "negative" for c in cells) else 0
        if rep.result["rc"] != expected_rc:
            return f"cm-scan exited {rep.result['rc']}, expected {expected_rc}"
        return None


class SweepWorkload:
    """The pristine constants plus seeded single-coefficient mutants, each
    through load_constants, replay_proof, to_json and the identity check."""

    fires = ("replay", "replay.build_chain", "replay.verify", "replay.certificate",
             "algebra.exppoly_deriv", "algebra.pfd", "constants.load", "reporting")
    silent = ("polygamma",)

    def __init__(self, mutants: int):
        self.n_mutants = mutants
        self.paths: list[Path] = []
        self.labels: list[str] = []

    @property
    def items(self) -> int:
        return 1 + self.n_mutants

    def prepare(self, seed: int, work: Path) -> None:
        text = CONSTANTS.read_text()
        self.paths, self.labels = [CONSTANTS], ["pristine"]
        for i, (label, mutated) in enumerate(inputs.seeded_mutants(seed, text, self.n_mutants)):
            path = work / f"mutant{i:02d}.txt"
            path.write_text(mutated)
            self.paths.append(path)
            self.labels.append(label)

    def child_args(self, result: Path, report: Path) -> list[str]:
        return ["sweep", str(result)] + [str(p) for p in self.paths]

    def verdicts(self, rep: Rep):
        return rep.rc, rep.result and rep.result["sets"]

    def check(self, reps: list[Rep]) -> tuple[int, int, list[str], float]:
        failed, problems = 0, []
        for rep in reps:
            sets = rep.result["sets"] if rep.result else None
            if sets is None or len(sets) != self.items:
                failed += self.items
                problems.append(f"sweep crashed (rc={rep.rc}): {rep.stderr.strip()[-500:]}")
                continue
            for label, outcome in zip(self.labels, sets):
                why = sweep_problem(label == "pristine", outcome)
                if why:
                    failed += 1
                    problems.append(f"{label}: {why}")
        return self.items * len(reps), failed, problems, EXACT_CERTAINTY_BITS


def sweep_problem(pristine: bool, outcome: dict) -> str | None:
    """Why one constants set's outcome is wrong, or None.

    The pristine set must pass the certificate and the identity check with
    the pinned certificate bytes; a mutant must be rejected by one of them
    or fail to load.
    """
    accepted = "error" not in outcome and outcome["certificate"] and outcome["identity"]
    if not pristine:
        return "mutant accepted" if accepted else None
    if not accepted:
        return f"pristine set rejected: {outcome}"
    if outcome["sha256"] != PRISTINE_CERT_SHA256:
        return f"certificate bytes changed: sha256 {outcome['sha256']}"
    return None


WORKLOADS = {
    "scan_g": functools.partial(ScanWorkload, "g", kmax=8, prec=256, points=25),
    "scan_H_deep": functools.partial(ScanWorkload, "H", kmax=12, prec=512, points=16),
    "proof_sweep": functools.partial(SweepWorkload, mutants=31),
}


# -- the two modes -----------------------------------------------------------

def _reps_for(seconds: float, one_rep):
    """Call one_rep until `seconds` have passed (at least once)."""
    out = []
    end = time.perf_counter() + seconds
    while not out or time.perf_counter() < end:
        out.append(one_rep())
    return out


def run_untraced(workload, seconds: float, work: Path):
    setup_time(work)  # warm-up: byte-compiles the package, not counted

    def one_rep() -> Rep:
        before = calibrate()
        # set-up samples are spread over the run, like the workload runs
        setups = [setup_time(work) for _ in range(SETUPS_PER_REP)]
        rep = run_rep(workload, work, trace=False)
        rep.scale = CAL_REF_S / statistics.mean((before, calibrate()))
        rep.setups = setups
        return rep

    reps = _reps_for(seconds, one_rep)
    attempted, failed, problems, certainty = workload.check(reps)

    def scaled(pairs) -> float:
        return statistics.median(t * scale for t, scale in pairs)

    job_s = scaled((r.job_s, r.scale) for r in reps)
    done = [(r.result["work_s"], r.scale) for r in reps if r.result]
    work_s = scaled(done) if done else job_s  # every run crashed: correct is false
    metrics = {
        "setup_s": scaled((t, r.scale) for r in reps for t in r.setups),
        "job_s": job_s,
        "work_s": work_s,
        "items_per_s": workload.items / work_s,
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "certainty_bits_min": certainty if certainty < math.inf else 0.0,
    }
    setups = [t for r in reps for t in r.setups]
    notes = (f"samples: {len(setups)} setup spawns, {len(reps)} workload runs; "
             f"speed factor median {statistics.median(r.scale for r in reps):.3f}; "
             f"unscaled medians setup_s={statistics.median(setups):.4f} "
             f"job_s={statistics.median(r.job_s for r in reps):.4f} "
             f"work_s={statistics.median(t for t, _ in done) if done else math.nan:.4f}")
    return attempted, failed, problems, metrics, notes


def run_traced(workload, seconds: float, work: Path):
    setup_time(work)  # warm-up, as in the untraced mode
    pairs = _reps_for(seconds, lambda: (run_rep(workload, work, trace=False),
                                        run_rep(workload, work, trace=True)))
    plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
    attempted, failed, problems, _ = workload.check(plain + traced)
    self_check(workload, plain, traced)
    layers = [r.result["layers"] for r in traced]
    metrics = {name: (statistics.median_low if layer_unit(name) == "count"
                      else statistics.median)(l[name] for l in layers)
               for name in layers[0]}
    # each pair ran back to back, so its ratio cancels most of the machine's drift
    metrics["trace.overhead_frac"] = statistics.median(
        t.result["work_s"] / u.result["work_s"] for u, t in pairs) - 1
    notes = f"samples: {len(pairs)} untraced and {len(pairs)} traced runs"
    return attempted, failed, problems, metrics, notes


def self_check(workload, plain: list[Rep], traced: list[Rep]) -> None:
    """The traced run must see every layer it should and change no verdict."""
    for u, t in zip(plain, traced):
        if t.result is None or "layer_calls" not in t.result:
            raise BenchError(f"traced run failed (rc={t.rc}): {t.stderr.strip()[-2000:]}")
        calls = t.result["layer_calls"]
        blank = [layer for layer in workload.fires if not calls.get(layer)]
        if blank:
            raise BenchError(f"traced run recorded no calls for {blank}; "
                             "the tracer no longer attaches to these layers")
        noisy = [layer for layer in workload.silent if calls.get(layer)]
        if noisy:
            raise BenchError(f"traced run recorded calls for {noisy}, which must stay idle")
        if workload.verdicts(u) != workload.verdicts(t):
            raise BenchError("traced outputs differ from untraced outputs")


# -- reporting ---------------------------------------------------------------

def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".distinct", ".cells", ".evals")):
        return "count"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def machine_notes() -> str:
    import mpmath
    try:
        import gmpy2  # noqa: F401
        gmpy = "present"
    except ImportError:
        gmpy = "absent"
    return (f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"mpmath={mpmath.__version__} mpmath_backend={mpmath.libmp.BACKEND} "
            f"gmpy2={gmpy}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cmgamma" / "__init__.py").is_file() or not CONSTANTS.is_file():
        print(f"error: no cmgamma sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(machine_notes())
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        workload.prepare(args.seed, work)
        mode = run_traced if args.trace else run_untraced
        attempted, failed, problems, metrics, notes = mode(workload, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    units = END_TO_END_UNITS if not args.trace else {m: layer_unit(m) for m in metrics}
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}; {notes}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
