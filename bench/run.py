"""bddist benchmark: run one workload for a fixed time and check its outputs.

    python3 bench/run.py --workload estimate_1m --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports ``bddist`` from the
checkout's ``src/`` and keeps its inputs and outputs in ``.bench_build/``.
The inputs are drawn from ``--seed``; a fresh worker process
(``worker.py``) then runs the workload as a closed loop for ``--seconds``.
Every metric is printed with its unit, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The exit status
is 0 only when every output check passed.  See README.md for the workloads,
the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
REFERENCE_DIR = BENCH / "reference"

REFERENCE_SEED = 0
GRID_SIZE = 21
COMMON = ["--grid-size", str(GRID_SIZE), "--p", "1", "--kernel", "triangular",
          "--band-draws", "10000"]
SIM_REPS = 25          # replications per simulate call
T_BOUND = 8.0          # loose bound on max |theta_hat - tau| / se over the grid
REL_TOL = 1e-12        # reference match for --precision full estimates
SETUP_PROBES = 7       # fresh interpreters timed for setup_s (after one warm-up)
RUN_LIMIT_S = 175.0
# The plain single-threaded baseline: bddist's grid fits and BLAS run on one
# thread, and only one worker process runs at a time.
THREAD_ENV = {"BDD_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    "estimate_1m": {"kind": "estimate", "n": 1_000_000,
                    "argv": ["--bw-rule", "rot", "--c0", "8"]},
    "simulate_5k": {"kind": "simulate", "n": 5000,
                    "argv": ["--bw-rule", "rot", "--c0", "8", "--reps", str(SIM_REPS)]},
    "pilot_20k": {"kind": "estimate", "n": 20_000,
                  "argv": ["--bw-rule", "kink", "--c0", "8"]},
}

END_TO_END_UNITS = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "frac"}

ESTIMATE_HEADER = ["point_id", "b1", "b2", "h", "n_eff_0", "n_eff_1", "theta_hat", "se",
                   "ci_lower", "ci_upper", "band_lower", "band_upper", "error"]
SIMULATE_HEADER = ["point_id", "b1", "b2", "h", "bias", "sd", "rmse", "ec", "il"]

SETUP_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
               "import bddist.cli; print(time.perf_counter() - t)")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_estimate_inputs(work: Path, n: int, seed: int) -> tuple[list, int]:
    """Data CSV (repr floats, so it round-trips) and boundary JSON; returns tau."""
    from bddist.geometry import make_grid
    from bddist.oracle import population_tau
    from bddist.simulation import default_dgp, draw_sample

    spec = default_dgp()
    sample = draw_sample(spec, n, seed)
    data = work / "data.csv"
    with open(data, "w") as fh:
        fh.write("y,x1,x2\n")
        fh.writelines(map("%r,%r,%r\n".__mod__,
                          zip(sample.y.tolist(), sample.x[:, 0].tolist(),
                              sample.x[:, 1].tolist())))
    sign = {1.0: "+", -1.0: "-"}
    boundary = {
        "vertices": spec.boundary.vertices.tolist(),
        "kinks": sorted(spec.boundary.kink_indices),
        "assignment": {"quadrant": {"x1_sign": sign[spec.assignment.x1_sign],
                                    "x2_sign": sign[spec.assignment.x2_sign]}},
    }
    (work / "boundary.json").write_text(json.dumps(boundary))
    tau = [population_tau(spec, pt) for pt in make_grid(spec.boundary, GRID_SIZE).points]
    return tau, data.stat().st_size


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _parse_csv(text: str) -> tuple[list, list]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_estimate(text: str, tau: list, problems: list, codes: Counter) -> int:
    """Check one estimate report; returns the number of failed grid points."""
    header, rows = _parse_csv(text)
    if header != ESTIMATE_HEADER or len(rows) != len(tau):
        problems.append(f"estimate report has header {header} and {len(rows)} rows")
        codes["unreadable-report"] += len(tau)
        return len(tau)
    failed, worst = 0, 0.0
    for k, row in enumerate(rows):
        rec = dict(zip(header, row))
        if rec["error"]:
            codes[rec["error"]] += 1
            failed += 1
            continue
        v = {c: float(rec[c]) for c in ESTIMATE_HEADER[3:12]}
        if not all(math.isfinite(x) for x in v.values()):
            problems.append(f"point {k + 1}: non-finite output")
            continue
        if not v["se"] > 0.0:
            problems.append(f"point {k + 1}: se = {v['se']}")
            continue
        if not v["ci_lower"] <= v["theta_hat"] <= v["ci_upper"]:
            problems.append(f"point {k + 1}: theta_hat outside its interval")
        if not v["band_lower"] <= v["theta_hat"] <= v["band_upper"]:
            problems.append(f"point {k + 1}: theta_hat outside its band")
        worst = max(worst, abs(v["theta_hat"] - tau[k]) / v["se"])
    if worst > T_BOUND:
        problems.append(f"max |theta_hat - tau| / se = {worst:.3f} > {T_BOUND}")
    return failed


def check_simulate(text: str, problems: list):
    header, rows = _parse_csv(text)
    if header != SIMULATE_HEADER or len(rows) != GRID_SIZE + 1 or rows[-1][0] != "uniform":
        problems.append(f"simulate report has header {header} and {len(rows)} rows")
        return
    for row in rows:
        rec = dict(zip(header, row))
        cols = ("ec", "il") if rec["point_id"] == "uniform" else header[1:]
        v = {c: float(rec[c]) for c in cols}
        if not all(math.isfinite(x) for x in v.values()):
            problems.append(f"row {rec['point_id']}: non-finite output")
        elif not (v["il"] > 0.0 and 0.0 <= v["ec"] <= 1.0 and v.get("sd", 1.0) > 0.0):
            problems.append(f"row {rec['point_id']}: il, ec or sd out of range")


def matches_reference(text: str, reference: str) -> bool:
    """Same cells; numbers equal to REL_TOL relative (absolute below 1)."""
    h1, r1 = _parse_csv(text)
    h2, r2 = _parse_csv(reference)
    if h1 != h2 or len(r1) != len(r2):
        return False
    for row, ref_row in zip(r1, r2):
        if len(row) != len(ref_row):
            return False
        for a, b in zip(row, ref_row):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                if a != b:
                    return False
                continue
            if not abs(fa - fb) <= REL_TOL * max(1.0, abs(fb)):
                return False
    return True


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def quartile_summary(values: list) -> str:
    """Sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return f"{n} samples; too few for a percentile above the median"
    pct = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"{n} samples; p{pct} = {value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bddist" / "__init__.py").is_file():
        print(f"error: no bddist sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    started = time.monotonic()
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    for stale in ("result.json", "report.csv"):
        (work / stale).unlink(missing_ok=True)

    cli_argv = [wl["kind"], *COMMON, *wl["argv"]]
    tau, input_bytes = None, 0
    if wl["kind"] == "estimate":
        tau, input_bytes = write_estimate_inputs(work, wl["n"], args.seed)
        cli_argv += ["--precision", "full", "--data", str(work / "data.csv"),
                     "--boundary", str(work / "boundary.json"), "--seed", str(args.seed)]
        per_op, seed_base = 1, args.seed
    else:
        # Call k of the loop simulates with --seed seed * 100000 + k.
        cli_argv += ["--n", str(wl["n"]), "--seed", "{seed}"]
        per_op, seed_base = SIM_REPS, args.seed * 100000

    env = dict(os.environ)
    setup = []
    for _ in range(SETUP_PROBES + 1):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        setup.append(float(probe.stdout.split()[-1]))
    setup = setup[1:]  # the first probe pays for compiling bytecode

    job = {"src": str(SRC), "kind": wl["kind"], "argv": cli_argv, "per_op": per_op,
           "seed_base": seed_base, "seconds": args.seconds, "trace": args.trace,
           "out": str(work / "report.csv"), "result": str(work / "result.json")}
    job_file = work / "job.json"
    job_file.write_text(json.dumps(job))
    problems = []
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_file)],
                              env=env, stdout=sys.stderr,
                              timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)))
        if proc.returncode != 0:
            problems.append(f"worker exited with status {proc.returncode}")
    except subprocess.TimeoutExpired:
        problems.append("worker ran past the time limit and was stopped")
    if problems:
        for p in problems:
            print(f"CHECK FAILED: {p}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    result = json.loads((work / "result.json").read_text())
    ops = result["ops"]

    # -- output checks -----------------------------------------------------
    codes = Counter()
    for k, op in enumerate(ops):
        if op["rc"] != 0:
            problems.append(f"operation {k} exited with status {op['rc']}")
    if wl["kind"] == "estimate":
        unit = "grid points"
        attempted = len(ops) * len(tau)
        failed = sum(check_estimate(op["text"], tau, problems, codes) for op in ops)
        if any(op["text"] != ops[0]["text"] for op in ops):
            problems.append("repeated operations on the same input gave different reports")
        reference_exact = False
    else:
        unit = "replications"
        attempted = len(ops) * SIM_REPS
        failed = 0
        for op in ops:
            check_simulate(op["text"], problems)
            n_failed = op.get("reps_failed", SIM_REPS)
            failed += n_failed
            if n_failed:
                codes["replication-failed"] += n_failed
        reference_exact = True
    if args.seed == REFERENCE_SEED:
        ref_file = REFERENCE_DIR / f"{args.workload}.csv"
        reference = ref_file.read_text() if ref_file.is_file() else None
        text = ops[0]["text"]
        if reference is None:
            problems.append(f"missing reference/{ref_file.name}")
        elif not (text == reference if reference_exact else matches_reference(text, reference)):
            problems.append(f"first report differs from reference/{ref_file.name}")
    if failed:
        problems.append(f"{failed} of {attempted} {unit} failed")

    # -- metrics -----------------------------------------------------------
    plain = [op["seconds"] for op in ops if not op["traced"]]
    lines = [f"op_s {statistics.median(plain):.6g} s per operation ({quartile_summary(plain)})",
             f"failed_frac {failed / attempted:.6g} of {attempted} {unit}"
             + (f"; by error code: {dict(codes)}" if codes else "")]
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        layers = [op["layers"] for op in traced]
        names = [k for k in layers[0] if k != "errors"]
        metrics = {k: {"value": statistics.median(lay[k] for lay in layers),
                       "unit": layer_unit(k)} for k in names}
        from spans import EXACT_COUNTS

        for k in EXACT_COUNTS:
            if len({lay[k] for lay in layers}) != 1:
                problems.append(f"count {k} differs between traced operations: "
                                f"{[lay[k] for lay in layers]}")
        ratio = statistics.median(op["seconds"] for op in traced) / statistics.median(plain)
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        lines.append(f"traced operations: {len(traced)}; layer errors (raised and caught "
                     f"inside the program): {layers[-1]['errors']}")
        if result["missing_wraps"]:
            lines.append(f"functions not found to wrap: {result['missing_wraps']}")
        (work / "spans.json").write_text(json.dumps(result["last_spans"]))
    else:
        metrics = {
            "op_s": statistics.median(plain),
            "peak_rss_mb": result["maxrss_mb"],
            "setup_s": statistics.median(setup),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        lines.append(f"setup probes {[round(s, 4) for s in setup]} s; "
                     f"worker import {result['import_s']:.4f} s")

    import numpy
    import scipy

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "threads": THREAD_ENV,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "input_bytes": input_bytes, "src_lines": src_lines()}
    for line in lines:
        print(line)
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print("meta " + json.dumps(meta))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems
    (work / f"summary-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "correct": correct, "problems": problems,
                    "op_seconds": [op["seconds"] for op in ops], "setup": setup,
                    "metrics": metrics}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
