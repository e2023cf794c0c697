"""Fresh-process side of the benchmark: one workload as a closed loop.

``run.py`` starts ``python3 bench/worker.py JOB.json`` after writing the
inputs.  The worker imports ``bddist`` from the checkout's ``src/``, calls
``bddist.cli.main`` in-process, one operation after the other (the next one
starts only when the previous one returned), and writes every operation's
time and output to the job's result file.  With tracing on, a first phase
runs untraced and a second phase traced, so the overhead ratio comes from
one process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _loop(run_op, seconds: float, min_ops: int, first: int) -> list:
    ops, start = [], time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(run_op(first + len(ops)))
    return ops


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import bddist.cli as cli
    import_s = time.perf_counter() - t0

    reports = []
    if job["kind"] == "simulate":
        # Keep each McReport so failed replications can be counted; one
        # pass-through call per operation, no timing inside it.
        run_monte_carlo = cli.run_monte_carlo

        def capture(*args, **kwargs):
            reports.append(run_monte_carlo(*args, **kwargs))
            return reports[-1]

        cli.run_monte_carlo = capture

    tracer = None
    last_spans = []
    out_path = Path(job["out"])

    def run_op(k: int) -> dict:
        argv = [a.replace("{seed}", str(job["seed_base"] + k)) for a in job["argv"]]
        argv += ["--out", str(out_path)]
        if tracer is not None:
            tracer.reset()
        n_reports = len(reports)
        t = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t
        op = {"rc": rc, "seconds": elapsed / job["per_op"], "traced": tracer is not None,
              "text": out_path.read_text() if out_path.exists() else ""}
        out_path.unlink(missing_ok=True)
        if len(reports) > n_reports:
            op["reps_failed"] = reports[-1].n_failed
        if tracer is not None:
            op["layers"] = tracer.layer_metrics(job["per_op"])
            last_spans[:] = tracer.spans_as_records()
        return op

    seconds, trace = job["seconds"], job["trace"]
    ops = _loop(run_op, seconds / 2 if trace else seconds, 1, 0)
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        ops += _loop(run_op, seconds / 2, 2, len(ops))

    result = {
        "import_s": import_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "missing_wraps": tracer.missing if tracer else [],
        "ops": ops,
        "last_spans": last_spans,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
