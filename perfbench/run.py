"""Oracle-checked benchmark of adrcontrol, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload in a fresh child interpreter, one at a
time, pinned with this process to one CPU, with BLAS/OpenMP threads capped
at 1.  Repetitions run while the next one should end within S seconds;
there is at least one (one of each kind with --trace 1).  Every solve is
checked against the exact discrete optimum of a Riccati oracle (oracle.py),
computed in this process, never in the child, so the child's peak RSS
covers the program only.

--trace 0 reports the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
j_gap_rel.  wall_s and setup_s are medians of times scaled to a reference
CPU speed by the calibration loop of calibrate.py, timed on the same CPU
just before and after each; the unscaled times are printed as well.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of spans.py, plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check passed;
without the program's source under src/ it exits with 1 and prints no
result.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # One CPU for this process, its calibration loop and every child
    # (calibrate.py says why).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
THREAD_CAPS = {var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS}
if not (SRC / "adrcontrol" / "__init__.py").is_file():
    sys.exit(f"run.py: the program's source is missing under {SRC}")
# Set before numpy loads here, and inherited by every child.
os.environ.update(THREAD_CAPS)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from calibrate import REFERENCE_S, speed_seconds  # noqa: E402
from checks import solve_failures  # noqa: E402
from oracle import CACHE_DIR, Oracle, self_check  # noqa: E402
from spans import METRICS  # noqa: E402
from workloads import WORKLOADS, cases  # noqa: E402

SETUP_SAMPLES = 7  # set-up-only children per run
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "j_gap_rel": "ratio"}


class ChildError(RuntimeError):
    pass


def scaled(seconds, loops):
    """Total of ``seconds`` at reference speed.

    Each time is scaled by REFERENCE_S over the mean of the calibration
    loop times taken just before and just after it.
    """
    return sum(s * 2.0 * REFERENCE_S / (a + b) for s, a, b in zip(seconds, loops, loops[1:]))


def spawn(workload, seed, mode, work):
    """Run one child; return its result dict and its set-up seconds."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(workload.to_json()), str(seed), mode, str(work)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(work / "result.json") as fh:
        result = json.load(fh)
    return result, result["ready"] - spawned


def git_rev():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "adrcontrol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
    }


def run(workload, seed, seconds, trace, work):
    """Measure and check one workload.

    Returns a dict with the metrics (None if no repetition completed), the
    solves attempted and failed, notes on failed checks, and the samples.
    """
    todo = cases(workload, seed)
    notes = list(self_check())
    oracles = {}
    for case in todo:
        if case.M not in oracles:
            oracles[case.M] = Oracle(case.problem, cache_dir=CACHE_DIR)
            notes += oracles[case.M].check()
    oracle_ok = not notes
    j_opt = [oracles[c.M].j_opt(c.y0) for c in todo]

    loops = [speed_seconds()]
    setups, unscaled_setups, unscaled_walls = [], [], []
    for i in range(SETUP_SAMPLES):
        unscaled_setups.append(spawn(workload, seed, "setup", work / f"setup{i}")[1])
        loops.append(speed_seconds())
        setups.append(scaled(unscaled_setups[-1:], loops[-2:]))
    walls = {"run": [], "traced": []}
    rss, gaps, rises, layers = [], [], [], []
    kinds = ("run", "traced") if trace else ("run",)
    attempted = failed = 0
    reference = None
    started = time.monotonic()
    rep_s = []
    for k in itertools.count():
        mode = "traced" if trace and k % 2 else "run"
        rep_dir = work / f"rep{k}"
        rep_start = time.monotonic()
        attempted += len(todo)
        try:
            result = spawn(workload, seed, mode, rep_dir)[0]
        except (ChildError, subprocess.TimeoutExpired) as exc:
            failed += len(todo)
            notes.append(f"repetition {k}: {exc}")
            break
        walls[mode].append(scaled(result["call_s"], result["loop_s"]))
        if mode == "run":
            unscaled_walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        else:
            layers.append(result["layers"])
        with np.load(rep_dir / "controls.npz") as npz:
            controls = [npz[f"arr_{i}"] for i in range(len(todo))]
        for i, (case, record) in enumerate(zip(todo, result["solves"])):
            ref = None if reference is None else (reference[0][i], reference[1][i])
            bad, gap, rise = solve_failures(workload, case, record, controls[i], j_opt[i], ref)
            gaps.append(gap)
            rises.append(rise)
            if bad or not oracle_ok:
                failed += 1
                notes += [f"repetition {k}, {case.shape} M={case.M}: {b}" for b in bad]
        if reference is None:
            reference = (result["solves"], controls)
        shutil.rmtree(rep_dir)
        now = time.monotonic()
        rep_s.append(now - rep_start)
        # Start another repetition only if it should end within the budget.
        if all(walls[m] for m in kinds) and now - started + statistics.median(rep_s) > seconds:
            break

    out = {
        "metrics": None,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "samples": {
            "wall_s": walls["run"],
            "traced_wall_s": walls["traced"],
            "setup_s": setups,
            "unscaled_wall_s": unscaled_walls,
            "unscaled_setup_s": unscaled_setups,
        },
    }
    if not all(walls[m] for m in kinds):
        return out
    if trace:
        metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
        overhead = statistics.median(walls["traced"]) / statistics.median(walls["run"]) - 1.0
        metrics["trace.overhead_pct"] = 100.0 * overhead
        metrics["optimizer.cost_rise_rel"] = max(rises)
    else:
        metrics = {
            "wall_s": statistics.median(walls["run"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "j_gap_rel": max(gaps),
        }
    out["metrics"] = metrics
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    print("record " + json.dumps(run_record(args)), flush=True)
    work = WORK_DIR / f"{os.getpid()}"
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    for note in out["notes"]:
        print(f"check: {note}", file=sys.stderr)
    metrics = out["metrics"]
    if metrics is None:
        print("no repetition completed", file=sys.stderr)
        return 1
    print("samples " + json.dumps(out["samples"]))
    units = METRICS if args.trace else E2E_UNITS
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
