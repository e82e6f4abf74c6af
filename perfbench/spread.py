#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs `perfbench/run.py` once per seed (seeds first-seed .. first-seed+runs-1)
with BENCHMARK.json's run_seconds and tracing off, then prints, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median.  A spread above the metric's bound (setup_s excepted) fails;
one above a third of the bound is flagged as not yet steady.  Exits 1 on
a failed spread or a run that was not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if not lines:
            sys.exit("seed %d: no result (exit %d)\n%s" % (seed, out.returncode, out.stderr))
        result = json.loads(lines[-1])
        if out.returncode != 0 or not result["correct"]:
            print("seed %d: not correct (exit %d)" % (seed, out.returncode))
            ok = False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v[-1]) for k, v in values.items())), flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "ok"
        if m["name"] != "setup_s" and spread > m["bound"]:
            verdict = "FAIL"
            ok = False
        elif spread > m["bound"] / 3:
            verdict = "unsteady"
        print("%-20s median %-14.6g spread %.4f bound %.2f %s"
              % (m["name"], med, spread, m["bound"], verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
