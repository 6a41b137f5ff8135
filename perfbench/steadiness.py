#!/usr/bin/env python3
"""Steadiness report for the stordep benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--out FILE] [--baseline FILE]

Run from the repository root. Runs BENCHMARK.json's command with --trace 0
once per seed (seeds first-seed .. first-seed+runs-1) on every workload, then
prints, per workload and end-to-end metric, the median and quartiles of the
runs (statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median.
A metric whose spread exceeds its bound is flagged FAIL; one above a third of
its bound is flagged WIDE. The ungated metrics the run prints under
facts.ungated get the same columns but are not judged. --out writes the
report as JSON, every run's facts line included. With --baseline (such a
report), each median is also compared with the baseline's: a median worse by
more than the bound is flagged SHIFT. Exits 1 when a run fails, a check
fails, a spread is over its bound, or a median shifted.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=1000)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    def detail(prefix):
        return next((json.loads(l[len(prefix):]) for l in lines
                     if l.startswith(prefix)), {})
    return json.loads(lines[-1]), detail("facts "), detail("host "), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the report as JSON here")
    parser.add_argument("--baseline", help="report (--out) to compare with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)["workloads"]

    ok = True
    report = {"runs": args.runs, "first_seed": args.first_seed,
              "workloads": {}}
    for workload in workloads:
        metrics = list(spec["end_to_end"])
        values = {m["name"]: [] for m in metrics}
        walls = []
        facts = []
        host = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, run_facts, host, wall = run_once(spec, workload, seed)
            walls.append(wall)
            facts.append(run_facts)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            ungated = run_facts.get("ungated", {})
            for name, entry in {**result["metrics"], **ungated}.items():
                if name not in values:
                    metrics.append({"name": name, "unit": entry["unit"]})
                    values[name] = []
                values[name].append(entry["value"])
            print(f"  {workload} seed {seed} done in {wall:.1f} s",
                  file=sys.stderr)
        print(f"\n== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, run wall median "
              f"{statistics.median(walls):.1f} s, host {json.dumps(host)}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'shift':>8}")
        rows = {}
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], None, vals[0])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "FAIL"
                    ok = False
                elif spread > bound / 3:
                    flag = "WIDE"
            old = baseline.get(workload, {}).get("metrics", {}).get(m["name"])
            shift = None
            if old and bound is not None:
                # Positive = worse than the baseline, as a share of it.
                sign = 1 if m["better"] == "lower" else -1
                shift = sign * (med - old["median"]) / abs(old["median"])
                if shift > bound:
                    flag = (flag + " SHIFT").strip()
                    ok = False
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": vals,
                               "unit": m["unit"], "flag": flag,
                               "shift": shift}
            shown = f"{shift:+8.3f}" if shift is not None else ""
            print(f"{m['name']:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{shown:>8} {flag}")
        report["workloads"][workload] = {"host": host, "metrics": rows,
                                         "run_wall_s": walls, "facts": facts}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
