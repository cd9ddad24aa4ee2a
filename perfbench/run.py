#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/ (and with it libtictac from this checkout's sources) in
Release under .bench_build/perfbench, then runs the workload in fresh
processes for about --seconds:

  --trace 0  repeats the untraced workload (at least three times) and
             reports the end-to-end metrics of BENCHMARK.json. Each process
             sets up once, cold; after each measured execution set-up is
             also sampled in set-up-only processes, and before it the host
             speed is sampled with perfbench_reference. setup_s is the
             smallest set-up time and wall_s is setup_s plus, for each
             part of the run (a spec run, a schedule, or the whole entry
             call where it cannot be split), that part's smallest time,
             both corrected for host speed (below); peak_rss_mb is the
             median;
  --trace 1  alternates an untraced and a traced execution and reports the
             per-layer metrics of BENCHMARK.json from the traced one, in
             raw host seconds. The traced run fails when it no longer does
             the program's work: when a work counter the library reports
             differs from the traced one, or when the traced wall time,
             checks excluded, and the untraced one are more than
             TRACE_DRIFT_FACTOR apart.

Host-speed correction. On a shared VM other tenants slow this kind of
code by up to 1.9x, in spells from seconds to many minutes, and slow plain
arithmetic far less. They only ever add time, so of many samples the
smallest is the one they disturbed least; but a spell can cover a whole
run. So each run also times perfbench_reference (perfbench/reference.cc),
a fixed simulation kernel that does not use the library and slows down
with the workloads, and scales its times by REFERENCE_S / (the kernel's
smallest time in the run). Reported times are thus host seconds at the
speed at which the kernel takes REFERENCE_S. The record keeps the raw
times and the kernel's times. Over five seeds of schedule-zoo, through a
spell that made one run 1.6x slower, the median-based wall time spread
(IQR/median) 0.42, the smallest times 0.21 and the corrected ones 0.04.

Every execution checks its outputs; all executions of one seed must
produce bit-identical simulated results. A readable report goes to stdout
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs the four workloads
in turn, with metric names prefixed by the workload. The full record (run
context, every execution) is written to .bench_build/perfbench/results/.
Exits 1 when a check fails, the build fails, or the sources are missing.

Workload definitions and the reasons for them are in perfbench/workloads.h.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ("zoo-train", "schedule-zoo", "cluster-1000", "serve-mix")
MIN_MEASURED_RUNS = 3
# The host speed times are reported at: the one at which perfbench_reference
# takes this long. On the 4-vCPU Xeon VM (GCC 12, Release) the benchmark
# was written on, its smallest time in a run was 23 to 33 ms.
REFERENCE_S = 0.030
# The sum of completion times perfbench_reference computes; any other
# value means the kernel's work changed and the correction is void.
REFERENCE_CHECKSUM = 145188016.656001
# Set-up takes microseconds to seconds, and a cold set-up's time varies
# by up to 3x from one process to the next, in bursts that last seconds.
# So after each measured execution it is also sampled in a few set-up-only
# processes: as many as fit in this budget, up to the cap.
SETUP_BURST_S = 0.7
MAX_SETUP_BURST = 8
# The largest factor by which the traced wall time (checks excluded) may
# be longer or shorter than the untraced wall time. On a shared 4-vCPU VM
# two executions of the same work differed by up to 1.5x, so this catches
# only gross drift; the work counters are the exact check.
TRACE_DRIFT_FACTOR = 2.0
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(*targets):
    """Configures (once) and builds `targets` (by default the benchmark and
    its reference kernel); False when a step fails."""
    targets = targets or ("perfbench", "perfbench_reference")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", *targets, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def execute(binary, workload, seed, mode, extra=()):
    """One execution of the workload; returns its parsed JSON report."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--mode", mode, *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode} "
                           "without a report")
    report = json.loads(lines[-1])
    report["exit_code"] = done.returncode
    return report


def reference():
    """Runs the host-speed reference kernel; returns the seconds of each
    of its repetitions."""
    done = subprocess.run([os.path.join(BUILD, "perfbench_reference")],
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    report = json.loads(done.stdout)
    if report["checksum"] != REFERENCE_CHECKSUM:
        raise RuntimeError("perfbench_reference no longer does its fixed "
                           f"work (checksum {report['checksum']})")
    return report["reference_s"]


def context(seed, first):
    """Where and on what the numbers were taken."""
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        git_sha = done.stdout.strip() or None
    sources = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                path = os.path.join(directory, name)
                sources.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    sources.update(handle.read())
    return {**first["context"], "git_sha": git_sha,
            "sources_sha256": sources.hexdigest(), "nproc": os.cpu_count(),
            "seed": seed}


def repeat(seconds, minimum, step, maximum=None):
    """Calls step() at least `minimum` times (and at least once), then
    again while the mean duration so far says another call still ends
    within `seconds`, at most `maximum` times."""
    start = time.monotonic()
    results = []
    while True:
        results.append(step())
        elapsed = time.monotonic() - start
        if len(results) == maximum or (
                len(results) >= minimum and
                elapsed + elapsed / len(results) > seconds):
            return results


def bench(binary, definition, workload, seed, seconds, trace):
    """Runs one workload, prints its report and writes its record; returns
    (correct, attempted, failed, metrics)."""
    stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}")
    run = lambda mode, extra=(): execute(binary, workload, seed, mode, extra)
    if trace == 0:
        steps = repeat(seconds, MIN_MEASURED_RUNS, lambda: (
            reference(),
            run("measure"),
            repeat(SETUP_BURST_S, 1, lambda: run("setup"), MAX_SETUP_BURST)))
        measured = [m for _, m, _ in steps]
        traced = []
        references = [t for ref, _, _ in steps for t in ref]
        speed = REFERENCE_S / min(references)
        setup_s = speed * min(r["setup_s"] for _, m, burst in steps
                              for r in [m, *burst])
        parts = zip(*(m["parts_s"] for m in measured))
        values = {
            "wall_s": setup_s + speed * sum(min(p) for p in parts),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        }
        for ref, m, burst in steps:
            m["reference_s"] = ref
            m["burst_setup_s"] = [r["setup_s"] for r in burst]
        host = {"reference_min_s": min(references), "scale": speed}
        wanted = definition["end_to_end"]
    else:
        host = None
        pairs = repeat(seconds, 1, lambda: (
            run("measure"), run("trace", ("--spans", stem + "-spans.json"))))
        measured = [m for m, _ in pairs]
        traced = [t for _, t in pairs]
        # Layer metrics all come from one traced execution (the one with
        # the median traced wall), so its self times sum to its wall.
        chosen = sorted(traced, key=lambda t: t["layers"]["traced_wall_s"])[
            (len(traced) - 1) // 2]
        values = dict(chosen["layers"])
        untraced_wall = statistics.median(r["wall_s"] for r in measured)
        traced_wall = statistics.median(
            t["layers"]["traced_wall_s"] - t["layers"]["bench.check_s"]
            for t in traced)
        values["trace_overhead_s"] = traced_wall - untraced_wall
        wanted = definition["per_layer"]

    executions = measured + traced
    attempted = sum(r["attempted"] for r in executions)
    failed = sum(r["failed"] for r in executions)
    problems = [f for r in executions for f in r["failures"]]
    if traced:
        if not (untraced_wall / TRACE_DRIFT_FACTOR <= traced_wall
                <= untraced_wall * TRACE_DRIFT_FACTOR):
            problems.append(
                f"the traced wall time is {traced_wall:.3g} s against "
                f"{untraced_wall:.3g} s untraced (more than a factor "
                f"{TRACE_DRIFT_FACTOR:g} apart): the traced decomposition no "
                "longer does the program's work")
        for name, value in measured[0]["work"].items():
            mine = {t["counters"].get(name) for t in traced}
            if mine != {value}:
                problems.append(f"the library reports {name} = {value}, the "
                                f"traced decomposition {list(mine)}")
    if any(r["exit_code"] for r in executions) and not problems:
        problems.append("an execution exited non-zero")
    digests = {r["digest"] for r in executions}
    if len(digests) != 1:
        problems.append("simulated outputs differ between executions of one "
                        f"seed (digests {sorted(digests)})")
    simulated = {json.dumps(r["simulated"], sort_keys=True) for r in executions}
    if len(simulated) != 1:
        problems.append("simulated metrics differ between executions")
    correct = not problems and failed == 0

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {"workload": workload, "trace": trace,
              "context": context(seed, executions[0]),
              "correct": correct, "problems": problems, "metrics": metrics,
              "host_speed": host,
              "simulated": executions[0]["simulated"],
              "executions": executions}
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)

    ctx = record["context"]
    print(f"perfbench {workload}: seed {seed}, trace {trace}, "
          f"{len(measured)} untraced + {len(traced)} traced executions")
    print(f"  context: {ctx['build_type']} build, {ctx['compiler']}, "
          f"git {ctx['git_sha'] or 'n/a'}, sources "
          f"{ctx['sources_sha256'][:12]}, nproc {ctx['nproc']}, held-out "
          f"seed {ctx['held_out_seed']}")
    if host:
        print(f"  host speed: reference kernel {1e3 * host['reference_min_s']:.2f} "
              f"ms, so times are scaled by {host['scale']:.3f}")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':<26} {failed / max(attempted, 1):>16.6g} "
          f"({failed} of {attempted} operations failed)")
    for name, metric in record["simulated"].items():
        print(f"  simulated {name:<22} {metric['value']:>16.10g} "
              f"{metric['unit']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(f"  record: {os.path.relpath(stem + '.json', ROOT)}")
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        definition = json.load(handle)
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    os.makedirs(RESULTS, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: bench(binary, definition, name, args.seed, args.seconds,
                           args.trace) for name in names}
    correct = all(r[0] for r in results.values())
    metrics = {(name + "." if len(names) > 1 else "") + metric: value
               for name, r in results.items() for metric, value in r[3].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r[1] for r in results.values()),
                      "failed": sum(r[2] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
