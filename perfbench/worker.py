"""One workload process: set up, print READY, measure whole passes, report.

run.py starts this process once per set-up it times and once more to
measure; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work DIR [--setup-only]

The process prints READY when its set-up is done, so that the parent can time
set-up from process start, and a final line RESULT <json>.  Everything ghcalc
returns is checked by the workload's oracles; a query that raises, crashes or
returns a wrong answer counts as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

MIN_PASSES = 4           # so that the tail value lies among the slow query kinds
TAIL_BEYOND = 10         # samples above the reported tail value
# Address-space cap of an in-process workload: its peak RSS is ~0.3 GB, and a
# regression must fail its queries rather than exhaust the host's memory.
IN_PROCESS_AS_LIMIT = 2 << 30
VEE_BASELINE = {"iterations": 600, "eval_many_calls": 2500, "eval_lo_hi_visits": 32900}


def attempt(query):
    """Time one query; return (seconds, ok, why it failed or None)."""
    t0 = perf_counter()
    try:
        result = query.run()
    except Exception as exc:  # a failed query is recorded, and the loop goes on
        return perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"[:300]
    elapsed = perf_counter() - t0
    try:
        ok = bool(query.check(result))
    except Exception as exc:  # a malformed result is a wrong result
        return elapsed, False, f"wrong result ({type(exc).__name__}: {exc})"[:300]
    if ok:
        return elapsed, True, None
    failure = getattr(result, "failure", None)
    return elapsed, False, failure()[:300] if failure else "wrong result"


def measure(deck, seconds: float):
    """Run whole passes over the deck until `seconds` have gone by."""
    samples = []
    passes = 0
    t0 = perf_counter()
    while passes < MIN_PASSES or perf_counter() - t0 < seconds:
        for query in deck:
            samples.append((query.kind, *attempt(query)))
        passes += 1
    return samples, passes, perf_counter() - t0


def summarize(samples) -> Dict:
    import numpy as np

    lat = np.array([s[1] for s in samples])
    good = sum(1 for s in samples if s[2])
    ordered = np.sort(lat)
    tail_index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    kinds: Dict[str, Dict] = {}
    for kind, elapsed, ok, why in samples:
        entry = kinds.setdefault(kind, {"n": 0, "failed": 0, "times": [], "why": None})
        entry["n"] += 1
        entry["times"].append(elapsed)
        if not ok:
            entry["failed"] += 1
            entry["why"] = entry["why"] or why
    for entry in kinds.values():
        entry["median_ms"] = float(np.median(entry.pop("times"))) * 1e3
    return {
        "attempted": len(samples),
        "failed": len(samples) - good,
        "wrong": sum(1 for s in samples if s[3] and s[3].startswith("wrong result")),
        "query_p50_ms": float(np.median(lat)) * 1e3,
        "query_tail_ms": float(ordered[tail_index]) * 1e3,
        "tail_percentile": 100.0 * (tail_index + 1) / len(ordered),
        "tail_beyond": len(ordered) - 1 - tail_index,
        "verdicts_per_s": good / float(lat.sum()),
        "ok_frac": good / len(samples),
        "kinds": kinds,
    }


def calibrate_vee(tracer) -> Dict:
    """Trace one vee descent from -2 at grid 201 and time it with and without
    the tracer; the counts reproduce the ROADMAP baseline."""
    from ghcalc import iop, problems
    from ghcalc.ivf import Ivf

    import tracer as tracing

    f = Ivf.from_text(1, problems.PIECEWISE_VEE_TEXT, problems.PIECEWISE_VEE_DOMAIN)
    p, grid = iop.Iop(f), f.grid(201)

    def descent():
        return iop.scalarized_descent(p, [-2.0], grid=grid)

    def median_time(repeats=3):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            descent()
            times.append(perf_counter() - t0)
        return sorted(times)[repeats // 2]

    tracer.reset()
    result = descent()
    spans = tracer.export()
    counts = {
        "iterations": len(result.trace),
        "eval_many_calls": int((spans["code"] == tracing.CODE["ivf.eval_many"]).sum()),
        "eval_lo_hi_visits": int(spans["visits"]),
    }
    traced = median_time()
    tracer.uninstall()
    untraced = median_time()
    tracer.install()
    tracer.reset()
    return {**counts, "matches_baseline": counts == VEE_BASELINE,
            "traced_s": traced, "untraced_s": untraced,
            "overhead_frac": traced / untraced - 1.0}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import tracer as tracing
    import workloads

    in_process = args.workload != "cli"
    if in_process:
        resource.setrlimit(resource.RLIMIT_AS, (IN_PROCESS_AS_LIMIT, IN_PROCESS_AS_LIMIT))
    tracer = runner = calibration = None
    if not in_process:
        runner = workloads.CliRunner(args.work if args.trace else None)
    elif args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        if args.workload == "verdicts_1d":
            calibration = calibrate_vee(tracer)

    load = workloads.BUILDERS[args.workload](args.seed, args.work, runner)
    for query in load.warmup:
        attempt(query)
    if tracer is not None:
        tracer.reset()
    if runner is not None:
        runner.span_files.clear()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    samples, passes, wall = measure(load.deck, args.seconds)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    report = summarize(samples)
    report.update(passes=passes, wall_s=wall, deck=len(load.deck), peak_rss_mb=peak_rss_mb,
                  calibration=calibration)
    if args.trace:
        if tracer is not None:
            path = args.work / "spans.npz"
            tracer.save(path)
            files = [path]
        else:
            files = [p for p in runner.span_files if p.exists()]
        traces = [dict(np.load(p)) for p in files]
        report["layers"] = tracing.layer_metrics(
            traces, passes, peak_rss_mb if not in_process else 0.0)
        report["spans"] = tracing.span_table(traces, passes)
    report["defects"] = []
    for query in load.defects:
        elapsed, ok, why = attempt(query)
        report["defects"].append({"kind": query.kind, "ok": ok, "why": why,
                                  "seconds": elapsed})
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
