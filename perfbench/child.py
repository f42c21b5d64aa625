"""One benchmark repetition, run by run.py in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD_JSON SEED MODE WORKDIR

MODE is ``setup`` (set up and exit), ``run`` or ``traced``.  The child writes
``result.json`` and, after a run, ``controls.npz`` into WORKDIR; a workload
that writes files puts them under WORKDIR/out.  Set-up ends at the
``time.monotonic()`` stamp ``ready``.  A run then times each call into the
program (one ``run_experiment`` per shape, or one ``cg_solve`` per solve),
which for the harness ends after its last output file is closed, with the
calibration loop of calibrate.py timed before the first call and after each
one; the loop is not part of the wall time.  Peak RSS is read after the
last call.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from adrcontrol import CGConfig, harness, optimizer
from calibrate import speed_seconds
from spans import Tracer, layer_metrics
from workloads import Workload, cases, experiment_specs


def peak_rss_mb():
    """Peak resident set of this process image, VmHWM.

    ru_maxrss is not used: on Linux it also carries the peak of the process
    that spawned this one (run.py), inherited at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _solve_record(report):
    return {
        "status": report.status,
        "iterations": report.iterations,
        "costs": [c.total for c in report.cost_history],
    }


def _row_record(row):
    record = _solve_record(row.report)
    record["row"] = {
        "M": row.M,
        "iterations": row.iterations,
        "status": row.status,
        "J_total": row.cost.total,
        "control_energy": row.control_energy,
        "terminal_norm": row.terminal_norm,
        "uncontrolled_terminal_norm": row.uncontrolled_terminal_norm,
        "cfl_ratio": row.cfl_ratio,
    }
    record["run_dir"] = str(row.run_dir)
    return record


def main(argv):
    workload = Workload.from_json(json.loads(argv[0]))
    seed, mode, work = int(argv[1]), argv[2], Path(argv[3])
    todo = cases(workload, seed)
    specs = experiment_specs(workload, todo, work / "out") if workload.files else []
    config = CGConfig(tol=workload.tol)
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    ready = time.monotonic()
    result = {"ready": ready}
    if mode != "setup":
        if workload.files:
            calls = [lambda spec=spec: harness.run_experiment(spec) for spec in specs]
        else:
            calls = [lambda c=c: [optimizer.cg_solve(c.problem, c.y0, config)] for c in todo]
        solved, call_s, loop_s = [], [], [speed_seconds()]
        for call in calls:
            start = time.perf_counter()
            solved += call()
            call_s.append(time.perf_counter() - start)
            loop_s.append(speed_seconds())
        wall = sum(call_s)
        result["peak_rss_mb"] = peak_rss_mb()
        result["wall_s"] = wall
        result["call_s"] = call_s
        result["loop_s"] = loop_s
        if tracer:
            tracer.uninstall()
            written = sum(p.stat().st_size for p in (work / "out").rglob("*") if p.is_file())
            result["layers"] = layer_metrics(tracer.spans, wall, written)
        if workload.files:
            result["solves"] = [_row_record(row) for row in solved]
            controls = [row.control.values for row in solved]
        else:
            result["solves"] = [_solve_record(report) for _, report in solved]
            controls = [control.values for control, _ in solved]
        np.savez(work / "controls.npz", *controls)
    with open(work / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
