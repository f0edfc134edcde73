"""The ghcalc benchmark.

    python3 perfbench/run.py --workload verdicts_1d|grid_nd|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a ghcalc checkout; it needs nothing installed, as it
puts `src` on the path itself.  One client waits for each verdict (a closed
loop with one client).  Each run starts fresh workload processes: with
`--trace 0` it times SETUP_REPEATS set-ups and measures the last process for
S seconds of whole passes over the workload's deck, then prints the
end-to-end metrics.  With `--trace 1` it sets up once, measures under the
tracer and prints the per-layer metrics instead.  The last line of output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

perfbench/README.md says why each workload exists, which layer metric should
move which end-to-end metric, and gives the first baseline.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verdicts_1d", "grid_nd", "cli")
SETUP_REPEATS = 5
RUN_GRACE_S = 140.0      # beyond --seconds, before the run counts as hung

END_TO_END = (
    ("setup_s", "s"), ("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
    ("verdicts_per_s", "1/s"), ("ok_frac", "fraction"), ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def run_worker(args, work: Path, setup_only: bool,
               deadline: float) -> Tuple[float, Optional[Dict]]:
    """Start one workload process; return its set-up time and its report.

    The process is killed if it is still running at `deadline` (monotonic).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = monotonic() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"workload process exited with {code} before finishing")
    if setup_only:
        return setup_s, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise WorkerError("workload process printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def report_lines(args, setups: List[float], rep: Dict) -> List[str]:
    out = [f"ghcalc benchmark: workload={args.workload} seed={args.seed} "
           f"seconds={args.seconds} trace={args.trace}",
           f"{rep['passes']} passes over a deck of {rep['deck']} queries in "
           f"{rep['wall_s']:.2f} s; {rep['attempted']} attempted, {rep['failed']} failed "
           f"(fail_frac {rep['failed'] / rep['attempted']:.6f}), {rep['wrong']} wrong"]
    if not args.trace:
        out.append(f"setup_s         {statistics.median(setups):.6f} s   (median of "
                   + ", ".join(f"{s:.4f}" for s in setups) + ")")
        out.append(f"query_p50_ms    {rep['query_p50_ms']:.6f} ms")
        out.append(f"query_tail_ms   {rep['query_tail_ms']:.6f} ms  "
                   f"(p{rep['tail_percentile']:.2f}: {rep['tail_beyond']} of "
                   f"{rep['attempted']} samples beyond it)")
        out.append(f"verdicts_per_s  {rep['verdicts_per_s']:.6f} 1/s  (correct verdicts per "
                   f"second the client waited)")
        out.append(f"ok_frac         {rep['ok_frac']:.6f}")
        out.append(f"peak_rss_mb     {rep['peak_rss_mb']:.3f} MB")
    out.append("per query kind: n, median ms, failed")
    for kind, entry in rep["kinds"].items():
        why = f"  ({entry['why']})" if entry["why"] else ""
        out.append(f"  {kind:34s} {entry['n']:6d} {entry['median_ms']:11.3f} "
                   f"{entry['failed']:5d}{why}")
    for defect in rep["defects"]:
        state = "now passes" if defect["ok"] else f"still fails: {defect['why']}"
        out.append(f"known defect {defect['kind']}: {state} ({defect['seconds']:.3f} s)")
    if rep.get("calibration"):
        c = rep["calibration"]
        out.append(f"vee descent from -2, grid 201: {c['iterations']} iterations, "
                   f"{c['eval_many_calls']} eval_many calls, {c['eval_lo_hi_visits']} "
                   f"eval_lo_hi visits (ROADMAP baseline 600 / 2500 / 32900: "
                   f"{'match' if c['matches_baseline'] else 'differ'}); tracing overhead "
                   f"{100 * c['overhead_frac']:.1f}% ({c['untraced_s']:.4f} s -> "
                   f"{c['traced_s']:.4f} s)")
    if args.trace:
        out.append("spans per pass: name, calls, inclusive s, self s")
        for name, calls, incl, own in rep["spans"]:
            out.append(f"  {name:18s} {calls:12.2f} {incl:12.6f} {own:12.6f}")
        for name, value in rep["layers"].items():
            out.append(f"{name:32s} {value!r}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ghcalc" / "__init__.py").is_file():
        print(f"error: no ghcalc sources under {ROOT / 'src'}; run from a ghcalc checkout",
              file=sys.stderr)
        return 2

    import tracer as tracing

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = monotonic() + args.seconds + RUN_GRACE_S
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_REPEATS - 1):
            setups.append(run_worker(args, work, True, deadline)[0])
        setup_s, rep = run_worker(args, work, False, deadline)
        setups.append(setup_s)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for line in report_lines(args, setups, rep):
        print(line)
    if args.trace:
        metrics = {name: {"value": rep["layers"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        values = dict(rep, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": rep["wrong"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
