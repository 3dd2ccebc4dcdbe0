"""polysqueeze benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload eval_search --seed 1 --seconds 30 --trace 0

Workloads (see README.md): eval_search, sweep_nosearch, verify_suites.
With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of one traced round.  The program is imported from the
checkout's src/ directory; without it the benchmark exits 2.

Each workload runs in a fresh single-threaded interpreter (bench/worker.py).
With --trace 0, SETUP_PROBES more interpreters only set up, and setup_s is the
median of all set-ups.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import BUILDERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SQUEEZE_SAMPLES", None)       # the default 4096 samples hold
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"            # one dict layout in every run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, mode: str, workdir: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--src", SRC, "--workdir", workdir, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "polysqueeze", "cli.py")):
        print(f"error: no program to benchmark: {SRC}/polysqueeze/cli.py is missing", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills the worker and the workdir goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    try:
        if args.trace:
            res = spawn(args, "trace", workdir, deadline)
        else:
            setups = [spawn(args, "setup", workdir, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = spawn(args, "measure", workdir, deadline)
            setups.append(res["setup_s"])
            res["metrics"]["setup_s"] = (statistics.median(setups), "s")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, (value, unit) in res.get("info", {}).items():
        print(f"# {key}: {value:.6g} {unit}")
    for name, (value, unit) in sorted(res["metrics"].items()):
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
