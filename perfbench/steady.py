#!/usr/bin/env python3
"""Steadiness check for one workload of the repository benchmark.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1]
        [--same-seed] [--trace 0|1] [--out set.json] [--compare other.json]

Runs `perfbench/run.py` N times (seeds seed0, seed0+1, ... or one seed with
--same-seed), then prints for every metric its median, quartiles and
spread = (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). A metric whose spread exceeds its bound
in BENCHMARK.json is flagged OVER, one above a third of it "warn". The
machine.calib_ms reference kernel of each run is shown beside the results,
so a slow machine period can be told apart from a slow program.

--compare loads an earlier --out file of the same workload and flags every
metric whose median got worse by more than its bound. --same-seed also
checks that the exact counts (doc moves, final link log-likelihood) repeat.
Exits 1 when a run fails, a check fails or a metric is flagged OVER.
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    wall = time.time() - start
    if done.returncode != 0:
        return {"seed": seed, "ok": False, "wall_s": wall}
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return {"seed": seed, "ok": True, "wall_s": wall, "result": result,
            "detail": detail}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(new, old, better):
    """Relative change of `new` against `old` in the worse direction."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    catalog = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 if args.same_seed else args.seed0 + i
        run = run_once(args.workload, seed, seconds, args.trace)
        runs.append(run)
        status = "ok" if run["ok"] and run["result"]["correct"] else "FAILED"
        calib = run.get("detail", {}).get("workload", {}).get("calib_ms", 0.0)
        print("run %2d seed %-6d %-6s wall %5.1fs calib %.3fms" %
              (i, seed, status, run["wall_s"], calib), flush=True)

    failed = [r for r in runs if not r["ok"] or not r["result"]["correct"]
              or r["result"]["failed"] != 0]
    good = [r for r in runs if r not in failed]
    summary = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
               "runs": len(runs), "failed_runs": len(failed), "metrics": {},
               "details": [r.get("detail", {}) for r in runs]}
    flagged = []
    print("\n%-34s %-6s %12s %12s %12s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for metric in catalog:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in good]
        if len(values) < 2:
            continue
        median, q1, q3, rel = spread(values)
        bound = metric.get("bound")
        flag = ""
        if bound is not None and metric["name"] != "setup_s" and rel > bound:
            flag = "OVER"
            flagged.append(metric["name"])
        elif bound is not None and rel > bound / 3:
            flag = "warn"
        summary["metrics"][metric["name"]] = {
            "values": values, "median": median, "q1": q1, "q3": q3, "spread": rel,
            "bound": bound, "better": metric["better"]}
        print("%-34s %-6s %12.6g %12.6g %12.6g %7.2f%% %6s %s" %
              (metric["name"], metric["unit"], median, q1, q3, rel * 100,
               "" if bound is None else "%.2f" % bound, flag))

    calib = [r["detail"].get("workload", {}).get("calib_ms", 0.0) for r in good]
    if len(calib) >= 2:
        median, q1, q3, rel = spread(calib)
        summary["calib_ms"] = calib
        print("%-34s %-6s %12.6g %12.6g %12.6g %7.2f%%  (reference kernel)" %
              ("machine.calib_ms", "ms", median, q1, q3, rel * 100))

    problems = list(flagged)
    if args.same_seed and args.workload == "train_cold":
        counts = {(r["detail"]["workload"]["doc_moves_per_chain"],
                   r["detail"]["workload"]["final_link_ll"]) for r in good}
        print("exact counts across runs: %s" % ("repeat" if len(counts) == 1 else counts))
        if len(counts) != 1:
            problems.append("counts differ")

    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        print("\nmedian drift against %s (positive = worse):" % args.compare)
        for name, now in summary["metrics"].items():
            then = before["metrics"].get(name)
            if then is None or now["bound"] is None:
                continue
            drift = worse_by(now["median"], then["median"], now["better"])
            flag = "WORSE" if drift > now["bound"] else ""
            if flag:
                problems.append(name + " drift")
            print("  %-34s %+7.2f%% (bound %.0f%%) %s" %
                  (name, drift * 100, now["bound"] * 100, flag))

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    if failed:
        problems.append("%d failed runs" % len(failed))
    print("\n%s" % ("STEADY" if not problems else "NOT STEADY: " + ", ".join(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
