#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json (or those named) untraced for
run_seconds, once per seed, and repeats the whole set of runs --sets
times, one workload after another in each set. For every workload and
end-to-end metric it prints each set's median and spread (the distance
between the first and third quartile, statistics.quantiles(n=4), as a
share of the median), and applies the test the bounds express:

- in every set, each spread except setup_s's is within the metric's
  bound;
- each later set's median is not worse than the first set's by more
  than the bound, setup_s included.

    python3 perfbench/steady.py --seeds 1-10 --sets 2
    python3 perfbench/steady.py --workload live_ingest --sets 1

Run it from the root of the repository. It exits 1 when a run fails or
a test does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_set(bench, workload, seeds):
    """Runs one workload once per seed; returns {metric: [values]}."""
    values = {d["name"]: [] for d in bench["end_to_end"]}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        began = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        took = time.monotonic() - began
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        res = json.loads(lines[-1])
        noise = json.loads(lines[-2]).get("noise", {}) if len(lines) > 1 else {}
        print(f"{workload} seed {seed} ({took:.1f} s): correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"  noise {json.dumps(noise, sort_keys=True)}", flush=True)
        if not res["correct"] or res["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect or failed operations\n{proc.stderr[-2000:]}")
        for k in values:
            values[k].append(res["metrics"][k]["value"])
    return values


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def report(bench, workload, sets):
    """Prints the table for one workload; returns whether every test held."""
    ok = True
    print(f"\n{workload}")
    head = "".join(f" {'median':>11} {'spread':>7}" for _ in sets)
    print(f"  {'metric':14} {'bound':>5}{head}  {'change':>7}  verdict")
    for d in bench["end_to_end"]:
        name, bound = d["name"], d["bound"]
        cells, notes = "", []
        for i, values in enumerate(sets):
            xs = values[name]
            s = spread(xs)
            cells += f" {statistics.median(xs):11.5g} {s:7.3f}"
            if name != "setup_s" and s > bound:
                notes.append(f"set {i + 1} spread over bound")
        change = ""
        first = statistics.median(sets[0][name])
        for i, values in enumerate(sets[1:], start=2):
            m = statistics.median(values[name])
            worse = (m - first) / first if d["better"] == "lower" else (first - m) / first
            change = f"{worse:+7.3f}"
            if worse > bound:
                notes.append(f"set {i} worse than set 1 by more than the bound")
        ok = ok and not notes
        print(f"  {name:14} {bound:5.2f}{cells}  {change:>7}  {'; '.join(notes) or 'ok'}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every workload)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    results = {w: [] for w in workloads}
    for n in range(args.sets):
        for w in workloads:
            print(f"--- set {n + 1}, {w}", flush=True)
            results[w].append(run_set(bench, w, seeds))
    ok = all([report(bench, w, results[w]) for w in workloads])
    print("\nevery test holds" if ok else "\nsome test does not hold")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
