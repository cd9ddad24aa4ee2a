#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/check.py

1. Builds and runs perfbench_test: the trace check rejects hand-corrupted
   results, and on shrunken inputs each workload's traced decomposition
   reproduces its untraced result bit for bit.
2. Cross-checks the simulated results against tictac_cli: for every
   workload with a CLI equivalent, the CLI run on the same inputs must
   print exactly the benchmark's canonical output, and the simulated
   metrics recomputed from the CLI's output must equal the benchmark's.
   It runs at seed 1 (the CLI's default) and at the held-out seed the
   benchmark binary reports.

Exits 1 on any mismatch. Takes about three minutes.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build paths and helpers)


def simulated_from_cli(workload, text):
    """The benchmark's simulated metrics, recomputed from CLI output with
    the benchmark's arithmetic and summation order."""
    if workload == "zoo-train":
        rows = list(csv.DictReader(io.StringIO(text)))
        baseline = {}
        sums = {"tac": 0.0, "tic": 0.0}
        stragglers = {"tac": 0.0, "baseline": 0.0}
        models = []
        for row in rows:
            if row["policy"] == "baseline":
                baseline[row["model"]] = float(row["throughput"])
                models.append(row["model"])
        for row in rows:
            policy = row["policy"]
            if policy in sums:
                sums[policy] += (float(row["throughput"]) /
                                 baseline[row["model"]] - 1.0)
            if policy in stragglers:
                stragglers[policy] += float(row["max_straggler_pct"])
        n = float(len(models))
        return {"tac_speedup_pct": 100.0 * sums["tac"] / n,
                "tic_speedup_pct": 100.0 * sums["tic"] / n,
                "tac_straggler_pct": stragglers["tac"] / n,
                "baseline_straggler_pct": stragglers["baseline"] / n}
    report = json.loads(text)
    if workload == "cluster-1000":
        return {"p99_job_iter_s": report["p99_job_iteration_s"],
                "jain_fairness": report["fairness"]}
    return {"p99_slowdown": report["slo"]["p99_slowdown"],
            "svc_makespan_s": report["slo"]["makespan_s"]}


def cross_check(binary, cli, workload, seed):
    """Returns (problems, the benchmark's report)."""
    output = os.path.join(run.RESULTS, f"{workload}-seed{seed}-output.txt")
    report = run.execute(binary, workload, seed, "measure",
                         ("--output", output))
    if report["failed"] or report["exit_code"]:
        return [f"{workload}: benchmark checks failed: "
                f"{report['failures']}"], report
    if not report["cli"]:
        print(f"  {workload}: no CLI equivalent, skipped")
        return [], report
    done = subprocess.run([cli, *report["cli"]], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    with open(output) as handle:
        expected = handle.read()
    problems = []
    if done.returncode or done.stdout != expected:
        problems.append(f"{workload} seed {seed}: tictac_cli "
                        f"{report['cli'][0]} output differs from the "
                        f"benchmark's (exit {done.returncode})")
    for name, value in simulated_from_cli(workload, done.stdout).items():
        mine = report["simulated"][name]["value"]
        if value != mine:
            problems.append(f"{workload} seed {seed}: {name} is {mine!r} in "
                            f"the benchmark, {value!r} from the CLI")
    if not problems:
        print(f"  {workload} seed {seed}: CLI output identical; "
              + ", ".join(f"{k}={v['value']!r}" for k, v in
                          report["simulated"].items()))
    return problems, report


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    if not all(run.build(t) for t in ("perfbench", "perfbench_test",
                                          "tictac_cli")):
        return 1
    binary = os.path.join(run.BUILD, "perfbench")
    tests = os.path.join(run.BUILD, "perfbench_test")
    cli = os.path.join(run.BUILD, "tictac", "tictac_cli")
    os.makedirs(run.RESULTS, exist_ok=True)

    problems = []
    if subprocess.run([tests]).returncode:
        problems.append("perfbench_test failed")
    held_out = None
    for workload in run.WORKLOADS:
        found, report = cross_check(binary, cli, workload, 1)
        problems += found
        held_out = report["context"]["held_out_seed"]
    for workload in run.WORKLOADS:
        problems += cross_check(binary, cli, workload, held_out)[0]
    for problem in problems:
        print("FAILED: " + problem)
    print("perfbench checks: " + ("FAILED" if problems else "all passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
