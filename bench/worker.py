"""One workload in a fresh interpreter: set up, measure, check every output.

Started by run.py, never by hand.  The program is driven in process through
``polysqueeze.cli.main(argv)`` with stdout and stderr captured.  One client,
closed loop: each call starts when the previous one has returned and its
output has been checked.  Prints one JSON object as its last line.

Modes:
  setup    set up (import, spec files, inputs, warm-up) and report the time;
  measure  set up, then run whole rounds until --seconds have passed;
  trace    measure, then run one more round with every layer traced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

from checks import check
from workloads import Inputs

MAX_REPORTED_FAILURES = 5


class Runner:
    """Calls cli.main on one op, times the call alone, and checks its output."""

    def __init__(self, cli):
        self.cli = cli
        self._verdicts: dict = {}     # identical output, identical verdict
        self.attempted = 0
        self.failed = 0
        self.wrong = 0                # exited 0 but an output row failed a check
        self.failures: list[str] = []

    def run(self, op) -> tuple[float, int]:
        """(call seconds, data rows) of one call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.cli.main(list(op.argv))
            dt = time.perf_counter() - t0
        text = out.getvalue()
        key = (op.argv, rc, hashlib.blake2b(text.encode(), digest_size=16).digest())
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = check(op, rc, text)
        rows, fails = verdict
        self.attempted += 1
        if fails:
            self.failed += 1
            self.wrong += rc == 0
            if len(self.failures) < MAX_REPORTED_FAILURES:
                detail = "; ".join(fails[:3]) + (f" | stderr: {err.getvalue().strip()}" if rc else "")
                self.failures.append(f"{' '.join(op.argv)}: {detail}")
        return dt, rows


def measure(runner: Runner, ops, seconds: float):
    """Whole rounds until `seconds` of wall time have passed; at least one round."""
    latencies, rounds, rows = [], [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        spent = 0.0
        for op in ops:
            dt, n = runner.run(op)
            latencies.append(dt)
            spent += dt
            rows += n
        rounds.append(spent)
    return latencies, rounds, rows


def traced_round(runner: Runner, ops):
    """One round with every layer traced: (per-layer metrics, traced round seconds)."""
    from polysqueeze import domains
    from tracer import Tracer

    cache = getattr(domains, "boundary_samples", None)
    has_cache = hasattr(cache, "cache_info")
    if has_cache:
        # Start empty, so misses count the distinct (factor, samples) keys of a round.
        cache.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        spent = sum(runner.run(op)[0] for op in ops)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    info = cache.cache_info() if has_cache else None
    metrics["domains.boundary_samples.hits"] = (info.hits if info else 0, "count")
    metrics["domains.boundary_samples.misses"] = (info.misses if info else 0, "count")
    return metrics, spent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    from polysqueeze import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"polysqueeze imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    inputs = Inputs(args.workload, args.seed, args.workdir)
    runner = Runner(cli)
    for op in inputs.warmup():
        runner.run(op)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        runner.attempted = runner.failed = runner.wrong = 0
        latencies, rounds, rows = measure(runner, inputs.ops, args.seconds)
        if args.mode == "measure":
            result["metrics"] = {
                "points_per_s": (rows / sum(latencies), "1/s"),
                "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            # Printed for people, not gated: see README.md, "End-to-end metrics".
            result["info"] = {"calls": (len(latencies), "count"), "rounds": (len(rounds), "count"),
                              "rows": (rows, "count"), "pass_s": (statistics.median(rounds), "s")}
            if len(latencies) >= 100:
                # At least ten samples lie beyond the 90th percentile.
                p90 = statistics.quantiles(latencies, n=10)[-1]
                result["info"]["latency_p90_ms"] = (p90 * 1e3, "ms")
        else:
            metrics, traced_s = traced_round(runner, inputs.ops)
            untraced_s = statistics.median(rounds)
            metrics["trace.untraced_round_s"] = (untraced_s, "s")
            metrics["trace.traced_round_s"] = (traced_s, "s")
            metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
            result["metrics"] = metrics
    result.update(attempted=runner.attempted, failed=runner.failed, wrong=runner.wrong,
                  failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
