"""One workload in one process: set-up, warm-up, timed rounds, checks.

Started by run.py with polyschwarz's source directory on PYTHONPATH.  The
last line of standard output is one JSON object.  With --setup-only the
process stops after the warm-up and reports when it was ready, so that
run.py can time set-up across several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    times, traced_times, layers = [], [], []
    first = None
    mismatched = 0
    origin = time.perf_counter()
    # In a traced run every second round is traced, so the untraced rounds
    # in between measure the tracing overhead.
    while sum(times) + sum(traced_times) < args.seconds or (tracer and not traced_times):
        traced = tracer is not None and len(times) > len(traced_times)
        if traced:
            tracer.install()
            mark = tracer.mark()
        start = time.perf_counter()
        outputs = workload.round()
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            layers.append(tracer.summary(mark))
            traced_times.append(elapsed)
        else:
            times.append(elapsed)
        if first is None:
            first = outputs
        elif outputs != first:
            mismatched += 1

    failed, problems = workload.check(first)
    if mismatched:
        problems.append(f"{mismatched} rounds gave outputs different from the first round")
    rounds = len(times) + len(traced_times)
    result = {
        "ready": ready,
        "rounds": rounds,
        "ops_per_round": len(workload.ops),
        "failed_per_round": failed,
        "checks_per_round": workload.checks(first),
        "round_seconds": times,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": problems,
    }
    if tracer:
        result["layers"] = {name: statistics.median(s[name] for s in layers) for name in layers[0]}
        result["layers"]["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_times) / statistics.median(times) - 1.0)
        tracer.dump(args.workdir / "trace.jsonl", origin)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
