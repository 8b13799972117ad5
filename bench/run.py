"""thetawell benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload beta-ladder --seed 1 --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (setup_s, pass_s,
peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics instead.  The
line before it is a JSON object with the details: every pass time (scaled to
the nominal host speed, and raw), the pass count and quartiles, failed_frac,
the failures seen, and the host (nproc, Python, numpy, BLAS, thread
settings).  See README.md in this directory.

The workload runs in a child process whose environment pins OpenBLAS and
OpenMP to one thread; set-up time is measured over several fresh child
interpreters.  Only the standard library is imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOAD_NAMES = ("verify-registry", "cli-grids", "beta-ladder")

SETUP_LAUNCHES = 7  # timed fresh interpreters per run, after one untimed launch
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run is allowed

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("THETAWELL_TOL", None)  # the CLI reads it; the inputs stay fixed
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise TimeoutError("benchmark ran past its deadline")
    return left


def measure_setup(args, workdir: str, started: float) -> tuple[list[float], list[float]]:
    """Set-up launches: raw launch-to-exit wall times, and the same rescaled to nominal host speed.

    Each fresh interpreter imports thetawell, makes the workload's first call,
    then runs the host probe, whose time is taken out of the launch and sets
    the rescaling (see ``worker.SpeedClock``).
    """
    cmd = [sys.executable, WORKER, "--first-call", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    raw, scaled = [], []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
        # a blocking wait returns at exit; wait(timeout=...) polls every 50 ms,
        # which would quantize the figure, so a timer enforces the deadline
        watchdog = threading.Timer(_remaining(started), proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        if i:  # the first launch may compile bytecode; it is not timed
            probe = json.loads(out.strip().splitlines()[-1])
            raw.append(elapsed - probe["probe_s"])
            scaled.append(raw[-1] * probe["scale"])
    return raw, scaled


def run_worker(args, workdir: str, started: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.PIPE,
                          text=True, timeout=_remaining(started))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one thetawell benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "thetawell", "__init__.py")):
        print(f"bench: no thetawell sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        setup_raw, setup = ([], []) if args.trace else measure_setup(args, workdir, started)
        report = run_worker(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = report["attempted"], report["failed"]
    pass_s = report["pass_s"]
    q1, _, q3 = statistics.quantiles(pass_s, n=4)  # the worker times at least two passes
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_s_samples": len(pass_s),
        "pass_s_quartiles": [q1, q3],
        "pass_s_all": pass_s,
        "pass_raw_s_median": statistics.median(report["pass_raw_s"]),
        "pass_raw_s_all": report["pass_raw_s"],
        "setup_s_all": setup,
        "setup_raw_s_all": setup_raw,
        "failed_frac": failed / attempted,
        "failures": report["failures"],
        "env": report["env"],
    }
    if args.trace:
        detail["traced_pass_s_all"] = report["traced_pass_s"]
        detail["counts_repeat"] = report["counts_repeat"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in report["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
