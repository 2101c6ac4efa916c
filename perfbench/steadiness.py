#!/usr/bin/env python3
"""Steadiness report: how much the end-to-end metrics move between runs.

Runs every workload --runs times, one seed per run (seeds --first_seed,
--first_seed + 1, ...), interleaving the workloads so slow machine drift hits
all of them alike. For each (workload, metric) it reports the median and the
quartiles of the runs, and the spread (Q3 - Q1) / median next to the bound
BENCHMARK.json fixes. With --sets 2 the whole batch runs twice and the report
adds how far the second median moved from the first, which is the check a
regression gate applies to two runs of the same code.

    python3 perfbench/steadiness.py --runs 10 --sets 2 \\
        --json perfbench/steadiness.json --markdown perfbench/STEADINESS.md

--report re-renders the report from the raw values a previous batch saved in
--json, without running anything. The "derived bound" column applies the rule
the bounds in BENCHMARK.json were set by: at least three times the larger
spread of the sets and twice the median shift, never below 2 %, rounded up to
a whole percent and capped at 25 %. setup_s always gets the cap.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect result: %s seed %d" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def measure(args, bench, workloads):
    """Runs the batch; returns raw[workload][set] = [metrics of each run]."""
    raw = {w: [[] for _ in range(args.sets)] for w in workloads}
    started = time.time()
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                raw[w][s].append(run_once(w, args.first_seed + i, bench["run_seconds"]))
                print("set %d run %d %-16s done (%.0f s elapsed)" % (
                    s + 1, i + 1, w, time.time() - started), file=sys.stderr)
                if args.json:  # keep what is measured so far if the batch stops
                    with open(args.json, "w") as f:
                        json.dump({"raw": raw}, f, indent=1)
    return raw


def derived_bound(metric, spreads, shift):
    if metric == "setup_s":
        return 0.25
    need = max(3 * max(spreads), 2 * abs(shift), 0.02)
    return min(0.25, math.ceil(100 * need - 1e-9) / 100)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first_seed", type=int, default=1)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all in BENCHMARK.json)")
    parser.add_argument("--json", default="", help="write raw values + summary here")
    parser.add_argument("--markdown", default="", help="write the report table here")
    parser.add_argument("--report", action="store_true",
                        help="render from the raw values in --json instead of running")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    if args.report:
        with open(args.json) as f:
            saved = json.load(f)
        raw = {w: saved["raw"][w] for w in workloads}
        args.sets = len(raw[workloads[0]])
        args.runs = len(raw[workloads[0]][0])
    else:
        raw = measure(args, bench, workloads)

    rows = []
    for w in workloads:
        for metric in bounds:
            sets = [summarize([r[metric] for r in raw[w][s]]) for s in range(args.sets)]
            row = {"workload": w, "metric": metric, "bound": bounds[metric], "sets": sets}
            row["median_shift"] = 0.0
            if args.sets == 2:
                a, b = sets[0]["median"], sets[1]["median"]
                row["median_shift"] = (b - a) / a if a else 0.0
            row["derived_bound"] = derived_bound(
                metric, [x["spread"] for x in sets], row["median_shift"])
            rows.append(row)

    header = "| workload | metric | median | Q1 | Q3 | spread |"
    rule = "|---|---|---|---|---|---|"
    if args.sets == 2:
        header += " set-2 spread | set-2 median shift |"
        rule += "---|---|"
    header += " derived bound | bound |"
    rule += "---|---|"
    lines = [header, rule]
    for row in rows:
        first = row["sets"][0]
        line = "| %s | %s | %.6g | %.6g | %.6g | %.2f%% |" % (
            row["workload"], row["metric"], first["median"], first["q1"], first["q3"],
            100 * first["spread"])
        if args.sets == 2:
            line += " %.2f%% | %+.2f%% |" % (100 * row["sets"][1]["spread"],
                                             100 * row["median_shift"])
        line += " %.0f%% | %.0f%% |" % (100 * row["derived_bound"], 100 * row["bound"])
        lines.append(line)
    table = "\n".join(lines)
    print(table)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": args.runs, "sets": args.sets, "first_seed": args.first_seed,
                       "run_seconds": bench["run_seconds"], "rows": rows, "raw": raw},
                      f, indent=1)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("# Steadiness report\n\n"
                    "%d run(s) per workload per set, %d set(s), seeds %d..%d, "
                    "%d s per run; generated by perfbench/steadiness.py.\n"
                    "spread = (Q3 - Q1) / median over the runs of a set.\n\n%s\n" % (
                        args.runs, args.sets, args.first_seed,
                        args.first_seed + args.runs - 1, bench["run_seconds"], table))
    worst = max(r["sets"][s]["spread"] / r["bound"]
                for r in rows if r["metric"] != "setup_s" for s in range(args.sets))
    print("largest spread / bound (setup_s excluded): %.2f" % worst, file=sys.stderr)
    shift = max(abs(r["median_shift"]) / r["bound"] for r in rows)
    print("largest median shift / bound: %.2f" % shift, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
