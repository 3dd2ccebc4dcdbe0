"""Run one workload several times, one seed each, and summarise the spread.

    python3 bench/repeat.py --workload eval_search --runs 10 --first-seed 1
    python3 bench/repeat.py --workload eval_search --runs 10 --first-seed 101 \\
        --save bench/results/eval_b.json --against bench/results/eval_a.json

For each metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, which
is the figure the bounds in BENCHMARK.json are held against.  With
--against it also prints how far this set's median moved from the earlier
set's, in the direction that is worse for the metric.  The run length is
read from BENCHMARK.json unless --seconds is given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="write the raw results to this JSON file")
    ap.add_argument("--against", help="a file written by --save to compare medians with")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append({"seed": seed, **res})
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": results}, fh, indent=1)
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["runs"]

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"# workload={args.workload} runs={args.runs} seeds={args.first_seed}.."
          f"{args.first_seed + args.runs - 1} seconds={seconds} trace={args.trace}")
    print(f"# correct in every run: {all(r['correct'] for r in results)}; "
          f"failed shares: {sorted(shares)}")
    print(f"{'metric':44} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          + (f" {'moved':>8}" if earlier else ""))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        s = summarise(values)
        m = meta.get(name, {})
        line = (f"{name:44} {results[0]['metrics'][name]['unit']:6} {s['median']:12.6g} "
                f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f} {m.get('bound', ''):>6}")
        if earlier:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier)
            worse = (s["median"] - before) / before if before else 0.0
            if m.get("better") == "higher":
                worse = -worse
            line += f" {worse:+8.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
