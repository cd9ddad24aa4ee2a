#!/usr/bin/env bash
# Runs the scheduling-overhead and multi-job interference benchmark
# suites and emits one merged google-benchmark JSON, seeding the repo's
# perf trajectory: check BENCH_sched.json numbers against the previous
# run before landing scheduling-path changes.
#
# Besides the TIC/TAC scheduling costs, bench_sched_overhead's
# BM_SessionSweep cases record the wall-clock of a representative
# experiment grid through harness::Session's executor — serial (/1) vs
# one thread per core — bench_multijob's BM_MultiJob* cases record
# the contended-simulation cost plus per-policy slowdown/fairness
# counters, bench_service's BM_ServiceOpenSystem cases record the
# open-system scheduler-service SLOs (p99 slowdown, windowed fairness,
# utilization, queueing delay) per (policy x placement), and
# bench_faults' BM_FaultRecovery cases record the robustness SLOs
# (goodput vs offered, retries, lost iterations, MTTR) per (placement x
# fault scenario), and bench_exec's BM_ExecValidate cases record the
# sim-to-real round-trip cost plus prediction-fidelity counters
# (measured vs predicted iteration time, calibrated and uncalibrated
# error) per policy, and bench_lowering's BM_Lower* cases record the
# pass-pipeline lowering cost over the arena-interned IR against the
# frozen pre-IR implementation plus the arena interning counters
# (pool entries vs naive pred storage, dedup hits), and
# bench_clustersweep's BM_ClusterSweep cases record the 100/1000-job
# contended sweep through the sharded parallel engine plus the population
# SLO counters (p99 job iteration, Jain fairness) at 1 and 4 engine
# threads; the summary below echoes all seven, plus the BM_RecvSetScan
# scalar-vs-widened bitset scans, bench_sched_overhead's BM_Tac
# schedules with their M re-sum counters, and its BM_SimDispatch
# event-engine runs with their dispatch-visit counters.
#
# The JSON's "context" also records what libbenchmark cannot know: this
# repo's build type (from CMakeCache.txt), the compiler, the git commit
# (suffixed "-dirty" when tracked files differ from it) and nproc.
#
# Usage: bench/run_benches.sh [build_dir] [out.json] [extra benchmark args]
#   BENCH_MIN_TIME=0.2 bench/run_benches.sh build-release
#
# The bare-number min-time default keeps old libbenchmark (< 1.7, which
# rejects a unit suffix) working; on >= 1.8 (deprecation warning for bare
# numbers) set the suffixed form explicitly, as CI does:
#   BENCH_MIN_TIME=0.05s bench/run_benches.sh
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_sched.json}"
shift $(( $# > 2 ? 2 : $# ))

BIN="${BUILD_DIR}/bench_sched_overhead"
if [[ ! -x "${BIN}" ]]; then
  echo "error: ${BIN} not found — configure with Google Benchmark installed" >&2
  exit 1
fi

# BENCH_sched.json is the repo's perf trajectory; numbers from anything
# but an optimized build poison it (a debug row once shipped as the
# committed baseline). Refuse unless the tree was configured Release, or
# the caller explicitly opts out for a local smoke run.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null || true)"
if [[ "${BUILD_TYPE}" != "Release" && "${BENCH_ALLOW_DEBUG:-0}" != "1" ]]; then
  echo "error: ${BUILD_DIR} is configured as '${BUILD_TYPE:-unknown}', not" \
       "Release — benchmark numbers from unoptimized builds must not enter" \
       "${OUT}." >&2
  echo "  configure one with: cmake -B build-release -S ." \
       "-DCMAKE_BUILD_TYPE=Release" >&2
  echo "  or set BENCH_ALLOW_DEBUG=1 to run anyway (numbers are then" \
       "labeled '${BUILD_TYPE:-unknown}', not fit for committing)." >&2
  exit 1
fi

"${BIN}" \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json \
  --benchmark_min_time="${BENCH_MIN_TIME:-0.05}" \
  "$@"

# Multi-job interference and scheduler-service cases are merged into the
# same JSON, idempotently: rows are keyed by benchmark name, so a
# re-run (or a partial re-run against an existing BENCH_sched.json)
# replaces entries in place instead of duplicating them. The merge needs
# python3; the benchmarks themselves still run and print without it.
merge_rows() {
  local extra="$1"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${OUT}" "${extra}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    merged = json.load(f)
with open(sys.argv[2]) as f:
    extra = json.load(f)
rows = merged.setdefault("benchmarks", [])
index = {row.get("name"): i for i, row in enumerate(rows)}
for row in extra.get("benchmarks", []):
    i = index.get(row.get("name"))
    if i is None:
        index[row.get("name")] = len(rows)
        rows.append(row)
    else:
        rows[i] = row
with open(sys.argv[1], "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
EOF
  else
    echo "note: python3 not found — rows of ${extra} not merged into ${OUT}" >&2
  fi
}

EXTRA_OUT="$(mktemp)"
trap 'rm -f "${EXTRA_OUT}"' EXIT
for extra_bench in bench_multijob bench_service bench_faults bench_exec \
                   bench_lowering bench_clustersweep; do
  EXTRA_BIN="${BUILD_DIR}/${extra_bench}"
  if [[ -x "${EXTRA_BIN}" ]]; then
    : > "${EXTRA_OUT}"
    "${EXTRA_BIN}" \
      --benchmark_out="${EXTRA_OUT}" \
      --benchmark_out_format=json \
      --benchmark_min_time="${BENCH_MIN_TIME:-0.05}" \
      "$@"
    # A --benchmark_filter matching none of its cases leaves it empty.
    if [[ -s "${EXTRA_OUT}" ]]; then
      merge_rows "${EXTRA_OUT}"
    fi
  else
    echo "note: ${EXTRA_BIN} not found — BENCH JSON has no ${extra_bench} rows" >&2
  fi
done

# Run context for this repo's build; libbenchmark's own
# "library_build_type" describes the system libbenchmark, not this tree.
CXX_PATH="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' \
    "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null || true)"
COMPILER="$("${CXX_PATH:-c++}" --version 2>/dev/null | head -n 1 || true)"
REPO_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
GIT_SHA="$(git -C "${REPO_DIR}" rev-parse HEAD 2>/dev/null || true)"
if [[ -n "${GIT_SHA}" ]] &&
   [[ -n "$(git -C "${REPO_DIR}" status --porcelain --untracked-files=no)" ]]; then
  GIT_SHA="${GIT_SHA}-dirty"
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "${OUT}" "${BUILD_TYPE:-unknown}" "${COMPILER:-unknown}" \
      "${GIT_SHA:-n/a}" "$(nproc)" <<'EOF'
import json
import sys

path, build_type, compiler, git_sha, nproc = sys.argv[1:]
with open(path) as f:
    data = json.load(f)
data.setdefault("context", {}).update({
    "build_type": build_type, "compiler": compiler, "git_sha": git_sha,
    "nproc": int(nproc)})
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
EOF
else
  echo "note: python3 not found — ${OUT} has no build context" >&2
fi

echo "wrote ${OUT}"

# Sweep executor wall-clock and multi-job interference, from the JSON
# just written (best effort: skipped when python3 is unavailable).
if command -v python3 >/dev/null 2>&1; then
  python3 - "${OUT}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)
rows = [b for b in data.get("benchmarks", [])
        if b.get("name", "").startswith("BM_SessionSweep")]
if rows:
    print("sweep executor wall-clock (BM_SessionSweep):")
    for b in rows:
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}")
    if len(rows) >= 2:
        serial = rows[0]["real_time"]
        best = min(b["real_time"] for b in rows[1:])
        print(f"  serial vs parallel speedup: {serial / best:.2f}x")
multijob = [b for b in data.get("benchmarks", [])
            if b.get("name", "").startswith("BM_MultiJob")]
if multijob:
    print("multi-job interference (BM_MultiJob*):")
    for b in multijob:
        slowdown = b.get("mean_slowdown")
        fairness = b.get("fairness")
        extras = ""
        if slowdown is not None and fairness is not None:
            extras = f" (mean slowdown {slowdown:.3f}x, fairness {fairness:.3f})"
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
service = [b for b in data.get("benchmarks", [])
           if b.get("name", "").startswith("BM_Service")]
if service:
    print("scheduler-service SLOs (BM_ServiceOpenSystem, policy x placement):")
    for b in service:
        p99 = b.get("p99_slowdown")
        fairness = b.get("mean_fairness")
        util = b.get("utilization")
        extras = ""
        if p99 is not None:
            extras = (f" (p99 slowdown {p99:.3f}x, fairness {fairness:.3f},"
                      f" utilization {util:.3f})")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
faults = [b for b in data.get("benchmarks", [])
          if b.get("name", "").startswith("BM_FaultRecovery")]
if faults:
    print("fault recovery SLOs (BM_FaultRecovery, placement x scenario):")
    for b in faults:
        goodput = b.get("goodput_iters_per_s")
        retries = b.get("retries")
        mttr = b.get("mttr_ms")
        extras = ""
        if goodput is not None:
            extras = (f" (goodput {goodput:.1f} iters/s,"
                      f" retries {retries:.0f}, MTTR {mttr:.1f} ms)")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
execs = [b for b in data.get("benchmarks", [])
         if b.get("name", "").startswith("BM_ExecValidate")]
if execs:
    print("sim-to-real fidelity (BM_ExecValidate, per policy):")
    for b in execs:
        err = b.get("prediction_error_pct")
        uncal = b.get("uncalibrated_error_pct")
        ok = b.get("calibration_ok")
        extras = ""
        if err is not None:
            extras = (f" (prediction error {err:.2f}%,"
                      f" uncalibrated {uncal:.2f}%,"
                      f" fit {'ok' if ok else 'POOR'})")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
lowering = [b for b in data.get("benchmarks", [])
            if b.get("name", "").startswith(("BM_Lower", "BM_Shared",
                                             "BM_PropertyIndex"))]
if lowering:
    print("lowering pipeline vs frozen reference (bench_lowering):")
    for b in lowering:
        pool = b.get("arena_pool_entries")
        naive = b.get("naive_pred_entries")
        hits = b.get("arena_dedup_hits")
        extras = ""
        if pool is not None and naive:
            extras = (f" (arena {pool:.0f} of {naive:.0f} naive pred"
                      f" entries, {hits:.0f} dedup hits)")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
cluster = [b for b in data.get("benchmarks", [])
           if b.get("name", "").startswith("BM_ClusterSweep")]
if cluster:
    print("datacenter contended sweep (BM_ClusterSweep, sharded engine):")
    for b in cluster:
        fabrics = b.get("fabrics")
        p99 = b.get("p99_job_iteration_s")
        fairness = b.get("fairness")
        extras = ""
        if fabrics is not None:
            extras = (f" ({fabrics:.0f} fabrics, p99 job iteration"
                      f" {p99:.3f} s, fairness {fairness:.3f})")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
tac = [b for b in data.get("benchmarks", [])
       if b.get("name", "").startswith("BM_Tac/")]
if tac:
    print("TAC schedule (BM_Tac, one schedule):")
    for b in tac:
        visits = b.get("resum_visits")
        extras = ""
        if visits is not None:
            extras = (f" ({visits:.0f} M re-sum visits,"
                      f" {b.get('recvs', 0):.0f} recvs)")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
dispatch = [b for b in data.get("benchmarks", [])
            if b.get("name", "").startswith("BM_SimDispatch")]
if dispatch:
    print("event-engine dispatch (BM_SimDispatch, one Run):")
    for b in dispatch:
        visits = b.get("visits")
        tasks = b.get("tasks")
        extras = ""
        if visits is not None and tasks:
            extras = (f" ({visits:.0f} dispatch visits for {tasks:.0f} tasks,"
                      f" {visits / tasks:.2f} per task)")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
scans = [b for b in data.get("benchmarks", [])
         if b.get("name", "").startswith("BM_RecvSetScan")]
if scans:
    print("RecvSet hot-path scans (BM_RecvSetScan, scalar vs widened):")
    by_arg = {}
    for b in scans:
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}")
        name = b["name"]
        arg = name.rsplit("/", 1)[-1]
        kind = "widened" if "widened" in name else "scalar"
        by_arg.setdefault(arg, {})[kind] = b["real_time"]
    for arg, kinds in by_arg.items():
        if "scalar" in kinds and "widened" in kinds and kinds["widened"]:
            print(f"  {arg} bits: widened is"
                  f" {kinds['scalar'] / kinds['widened']:.2f}x scalar")
EOF
fi
