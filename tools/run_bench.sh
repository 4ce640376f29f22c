#!/usr/bin/env bash
# Benchmark runner for the two engine head-to-heads whose perf trajectory
# is recorded alongside the code:
#   * Phase I-1 build (bench_micro BM_Phase1Build): sorted CSR grouping,
#     GeoLifeLike at two sizes -> BENCH_phase1.json
#   * Phase II query kernel (bench_micro BM_Phase2Query): lattice-stencil
#     vs kd-tree descent, the Phase III merge
#     engines (BM_MergeForest: edge-parallel lock-free
#     union-find vs sequential tournament at 1/2/4 threads), plus the
#     Fig. 12 phase breakdown -> BENCH_phase2.json
#   * Out-of-core Phase I-1 (bench_oocore): external build vs in-RAM
#     over a memory-mapped .rpds -> BENCH_oocore.json (validated below:
#     spill accounting, bit-identity flag, release provenance)
#   * Multi-eps hierarchy (bench_hierarchy): one shared-dictionary sweep
#     vs N independent runs at the same (eps, minPts) settings, plus a
#     sampled-core ladder scored against the exact one ->
#     BENCH_hierarchy.json (validated below: >= 4 levels, per-level
#     bit-identity to the independent runs, the sweep/independent cost
#     ratio, release provenance)
#   * Host-speed reference (bench_micro BM_HostKernel: 2^20 seeded keys
#     sorted on one thread, no library code, perfbench's HostSpeed
#     kernel): run once, its seconds written as `host_kernel_1t_s` into
#     all four records (the oocore and hierarchy checks below require
#     it), so records taken on a drifting shared host compare at the
#     speed each one saw
#
# Usage: tools/run_bench.sh [--smoke] [--allow-debug] [BUILD_DIR]
#                           [OUTPUT_JSON] [PHASE1_JSON] [OOCORE_JSON]
#                           [HIERARCHY_JSON]
#   --smoke        tiny data (RPDBSCAN_BENCH_SCALE=0.02) + short min_time;
#                  used by the `run_bench_smoke` ctest entry.
#   --allow-debug  permit a non-Release build dir. Without it the script
#                  refuses: numbers from unoptimized builds poison the
#                  perf trajectory the BENCH jsons record.
#   BUILD_DIR    cmake build directory (default: ./build)
#   OUTPUT_JSON  Phase II output path (default: ./BENCH_phase2.json)
#   PHASE1_JSON  Phase I output path (default: OUTPUT_JSON with "phase2"
#                replaced by "phase1", else ./BENCH_phase1.json)
#   OOCORE_JSON  out-of-core output path (default: OUTPUT_JSON with
#                "phase2" replaced by "oocore", else ./BENCH_oocore.json)
#   HIERARCHY_JSON  multi-eps hierarchy output path (default: OUTPUT_JSON
#                with "phase2" replaced by "hierarchy", else
#                ./BENCH_hierarchy.json)
set -euo pipefail

SMOKE=0
ALLOW_DEBUG=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --allow-debug) ALLOW_DEBUG=1 ;;
    *) echo "run_bench.sh: unknown flag $1" >&2; exit 2 ;;
  esac
  shift
done
BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_phase2.json}"
OUT1_JSON="${3:-}"
if [[ -z "$OUT1_JSON" ]]; then
  OUT1_JSON="${OUT_JSON//phase2/phase1}"
  if [[ "$OUT1_JSON" == "$OUT_JSON" ]]; then
    OUT1_JSON="BENCH_phase1.json"
  fi
fi
OUT_OOCORE_JSON="${4:-}"
if [[ -z "$OUT_OOCORE_JSON" ]]; then
  OUT_OOCORE_JSON="${OUT_JSON//phase2/oocore}"
  if [[ "$OUT_OOCORE_JSON" == "$OUT_JSON" ]]; then
    OUT_OOCORE_JSON="BENCH_oocore.json"
  fi
fi
OUT_HIERARCHY_JSON="${5:-}"
if [[ -z "$OUT_HIERARCHY_JSON" ]]; then
  OUT_HIERARCHY_JSON="${OUT_JSON//phase2/hierarchy}"
  if [[ "$OUT_HIERARCHY_JSON" == "$OUT_JSON" ]]; then
    OUT_HIERARCHY_JSON="BENCH_hierarchy.json"
  fi
fi

# Only a Release build yields numbers worth recording. (The default cmake
# configure here is RelWithDebInfo, and a stale Debug tree silently skews
# every ratio in the output jsons.) The CMakeCache check catches a wrongly
# configured tree early; the authoritative check is the binary's own
# "rpdbscan_build_type" JSON context below — google-benchmark's
# "library_build_type" reports how *libbenchmark* was compiled, which once
# let a debug library build record itself as a release run.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" != 1 ]]; then
  echo "run_bench.sh: build dir '$BUILD_DIR' has CMAKE_BUILD_TYPE=" \
       "'${BUILD_TYPE:-unknown}', not Release." >&2
  echo "  configure with -DCMAKE_BUILD_TYPE=Release, or pass" \
       "--allow-debug to record anyway (smoke/CI only)." >&2
  exit 1
fi

# Fails unless the benchmark binary itself reports an NDEBUG build in its
# JSON context (or --allow-debug was given).
check_provenance() {
  local json="$1"
  python3 - "$json" "$ALLOW_DEBUG" <<'PY'
import json
import sys

path, allow_debug = sys.argv[1], sys.argv[2] == "1"
with open(path) as f:
    ctx = json.load(f).get("context", {})
bt = ctx.get("rpdbscan_build_type")
if bt != "release" and not allow_debug:
    sys.exit(f"run_bench.sh: benchmark binary reports rpdbscan_build_type="
             f"{bt!r}, not 'release' — the library itself was compiled "
             "without NDEBUG. Rebuild with -DCMAKE_BUILD_TYPE=Release "
             "(or pass --allow-debug for smoke/CI runs).")
print(f"  provenance: rpdbscan_build_type={bt!r}, "
      f"simd={ctx.get('rpdbscan_simd')!r}")
PY
}

BENCH_MICRO="$BUILD_DIR/bench/bench_micro"
BENCH_FIG12="$BUILD_DIR/bench/bench_fig12_breakdown"
BENCH_OOCORE="$BUILD_DIR/bench/bench_oocore"
BENCH_HIERARCHY="$BUILD_DIR/bench/bench_hierarchy"
for bin in "$BENCH_MICRO" "$BENCH_FIG12" "$BENCH_OOCORE" \
           "$BENCH_HIERARCHY"; do
  if [[ ! -x "$bin" ]]; then
    echo "run_bench.sh: missing binary $bin (build the project first)" >&2
    exit 1
  fi
done

SCALE="${RPDBSCAN_BENCH_SCALE:-1.0}"
MIN_TIME=""
if [[ "$SMOKE" == 1 ]]; then
  SCALE="0.02"
  MIN_TIME="--benchmark_min_time=0.05"
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "== Host-speed reference (bench_micro BM_HostKernel) =="
"$BENCH_MICRO" \
  --benchmark_filter='BM_HostKernel' \
  --benchmark_out="$TMP_DIR/host.json" \
  --benchmark_out_format=json \
  ${MIN_TIME:+$MIN_TIME}
HOST_KERNEL_1T_S="$(python3 - "$TMP_DIR/host.json" <<'PY'
import json
import sys

scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
with open(sys.argv[1]) as f:
    rows = json.load(f).get("benchmarks", [])
row = next((b for b in rows if b["name"] == "BM_HostKernel"), None)
if row is None:
    sys.exit("run_bench.sh: bench_micro ran no BM_HostKernel row")
print(f"{row['real_time'] * scale[row['time_unit']]:.6g}")
PY
)"
echo "  host_kernel_1t_s=$HOST_KERNEL_1T_S"

echo "== Phase I-1 build (bench_micro, scale=$SCALE) =="
RPDBSCAN_BENCH_SCALE="$SCALE" "$BENCH_MICRO" \
  --benchmark_filter='BM_Phase1Build' \
  --benchmark_out="$TMP_DIR/phase1.json" \
  --benchmark_out_format=json \
  ${MIN_TIME:+$MIN_TIME}
check_provenance "$TMP_DIR/phase1.json"

echo "== Phase II query kernels (bench_micro, scale=$SCALE) =="
RPDBSCAN_BENCH_SCALE="$SCALE" "$BENCH_MICRO" \
  --benchmark_filter='BM_Phase2Query' \
  --benchmark_out="$TMP_DIR/phase2.json" \
  --benchmark_out_format=json \
  ${MIN_TIME:+$MIN_TIME}
check_provenance "$TMP_DIR/phase2.json"

echo "== Phase III merge engines (bench_micro, scale=$SCALE) =="
RPDBSCAN_BENCH_SCALE="$SCALE" "$BENCH_MICRO" \
  --benchmark_filter='BM_MergeForest' \
  --benchmark_out="$TMP_DIR/merge.json" \
  --benchmark_out_format=json \
  ${MIN_TIME:+$MIN_TIME}
check_provenance "$TMP_DIR/merge.json"

echo "== Phase breakdown (bench_fig12_breakdown, scale=$SCALE) =="
RPDBSCAN_BENCH_SCALE="$SCALE" "$BENCH_FIG12" | tee "$TMP_DIR/fig12.txt"

# Adds the host-speed reference to a record a harness wrote itself.
stamp_host_speed() {
  python3 - "$1" "$HOST_KERNEL_1T_S" <<'PY'
import json
import sys

path, seconds = sys.argv[1], float(sys.argv[2])
with open(path) as f:
    report = json.load(f)
report["host_kernel_1t_s"] = seconds
with open(path, "w") as f:
    f.write(json.dumps(report, separators=(",", ":")) + "\n")
PY
}

echo "== Out-of-core Phase I-1 (bench_oocore, scale=$SCALE) =="
RPDBSCAN_BENCH_SCALE="$SCALE" "$BENCH_OOCORE" "$OUT_OOCORE_JSON"
stamp_host_speed "$OUT_OOCORE_JSON"

# The oocore report must carry the spill accounting, prove the external
# build stayed bit-identical, and record release provenance.
python3 - "$OUT_OOCORE_JSON" "$ALLOW_DEBUG" <<'PY'
import json
import sys

path, allow_debug = sys.argv[1], sys.argv[2] == "1"
with open(path) as f:
    report = json.load(f)

bt = report.get("build_type")
if bt != "release" and not allow_debug:
    sys.exit(f"run_bench.sh: {path} reports build_type={bt!r}, not "
             "'release' — rebuild with -DCMAKE_BUILD_TYPE=Release (or "
             "pass --allow-debug for smoke/CI runs).")

phase1 = report.get("oocore_phase1")
if not phase1:
    sys.exit(f"{path}: missing 'oocore_phase1'")
if not report.get("host_kernel_1t_s", 0) > 0:
    sys.exit(f"{path}: missing 'host_kernel_1t_s'")
for key in ("memory_budget_bytes", "chunks", "runs", "spill_bytes",
            "peak_accounted_bytes", "external_seconds", "in_ram_seconds",
            "bit_identical"):
    if key not in phase1:
        sys.exit(f"{path}: oocore_phase1 lacks '{key}'")
if phase1["bit_identical"] is not True:
    sys.exit(f"{path}: external Phase I-1 diverged from the in-RAM build")

print(f"{path}: oocore report OK (chunks={phase1['chunks']}, "
      f"runs={phase1['runs']}, external {phase1['external_seconds']:.3f}s "
      f"vs in-RAM {phase1['in_ram_seconds']:.3f}s)")
PY

echo "== Multi-eps hierarchy (bench_hierarchy, scale=$SCALE) =="
RPDBSCAN_BENCH_SCALE="$SCALE" "$BENCH_HIERARCHY" "$OUT_HIERARCHY_JSON"
stamp_host_speed "$OUT_HIERARCHY_JSON"

# The hierarchy report must prove every ladder rung stayed bit-identical
# to its independent run, cover at least 4 levels (the regime where the
# shared-stage economy is the story), carry the sweep/independent cost
# ratio and the sampled-core scores, and record release provenance.
python3 - "$OUT_HIERARCHY_JSON" "$ALLOW_DEBUG" <<'PY'
import json
import sys

path, allow_debug = sys.argv[1], sys.argv[2] == "1"
with open(path) as f:
    report = json.load(f)

bt = report.get("build_type")
if bt != "release" and not allow_debug:
    sys.exit(f"run_bench.sh: {path} reports build_type={bt!r}, not "
             "'release' — rebuild with -DCMAKE_BUILD_TYPE=Release (or "
             "pass --allow-debug for smoke/CI runs).")

for key in ("num_levels", "sweep_seconds", "independent_seconds_total",
            "ratio_sweep_over_independent", "bit_identical",
            "sampled_sweep_seconds", "host_kernel_1t_s"):
    if key not in report:
        sys.exit(f"{path}: missing '{key}'")
if report["num_levels"] < 4:
    sys.exit(f"{path}: only {report['num_levels']} ladder levels, want "
             ">= 4")
if report["bit_identical"] is not True:
    sys.exit(f"{path}: a ladder level diverged from its independent run")
levels = report.get("levels")
if not levels or len(levels) != report["num_levels"]:
    sys.exit(f"{path}: missing or short 'levels'")
required = ("eps", "num_clusters", "num_core_cells", "seeded",
            "phase2_seconds", "independent_seconds", "bit_identical")
for lv in levels:
    for key in required:
        if key not in lv:
            sys.exit(f"{path}: levels entry lacks '{key}'")
sampled = report.get("sampled_levels")
if not sampled:
    sys.exit(f"{path}: missing or empty 'sampled_levels'")
for lv in sampled:
    for key in ("nmi_vs_exact", "rand_index_vs_exact"):
        if key not in lv:
            sys.exit(f"{path}: sampled_levels entry lacks '{key}'")
ratio = report["ratio_sweep_over_independent"]
print(f"{path}: hierarchy report OK ({report['num_levels']} levels, "
      f"sweep/independent {ratio:.1%}, sampled NMI "
      f"{min(l['nmi_vs_exact'] for l in sampled):.3f} min)")
PY

python3 - "$TMP_DIR/phase1.json" "$OUT1_JSON" "$SCALE" \
    "$HOST_KERNEL_1T_S" <<'PY'
import json
import sys

bench_json, out_path, scale, host = sys.argv[1:5]
with open(bench_json) as f:
    raw = json.load(f)

# Names look like "BM_Phase1Build/40000".
engines = []
for b in raw.get("benchmarks", []):
    parts = b["name"].split("/")
    engines.append({
        "engine": "sorted",
        "points": int(parts[1]) if len(parts) > 1 else None,
        "real_time_ms": b["real_time"],
        "cpu_time_ms": b["cpu_time"],
        "items_per_second": b.get("items_per_second"),
        "key_seconds": b.get("key_seconds"),
        "sort_seconds": b.get("sort_seconds"),
        "scatter_seconds": b.get("scatter_seconds"),
    })

out = {
    "generated_by": "tools/run_bench.sh",
    "bench_scale": float(scale),
    "host_kernel_1t_s": float(host),
    "dataset": "GeoLifeLike",
    "context": raw.get("context", {}),
    "phase1_engines": engines,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
print(f"wrote {out_path}")
PY

python3 - "$TMP_DIR/phase2.json" "$TMP_DIR/merge.json" \
    "$TMP_DIR/fig12.txt" "$OUT_JSON" "$SCALE" "$HOST_KERNEL_1T_S" <<'PY'
import json
import sys

bench_json, merge_json, fig12_txt, out_path, scale, host = sys.argv[1:7]
with open(bench_json) as f:
    raw = json.load(f)

kernels = []
for b in raw.get("benchmarks", []):
    name = b["name"].split("/")[-1]
    kernels.append({
        "kernel": name,
        "real_time_ms": b["real_time"],
        "cpu_time_ms": b["cpu_time"],
        "items_per_second": b.get("items_per_second"),
        "candidate_cells_scanned": b.get("candidate_cells_scanned"),
        "early_exits": b.get("early_exits"),
        "stencil_probes": b.get("stencil_probes"),
    })

times = {k["kernel"]: k["real_time_ms"] for k in kernels}
speedups = {}
if times.get("stencil") and times.get("batched_tree"):
    speedups["speedup_stencil_over_batched_tree"] = (
        times["batched_tree"] / times["stencil"])

# Merge engines: "BM_MergeForest/sequential/2" -> engine + thread count.
with open(merge_json) as f:
    merge_raw = json.load(f)
merge = []
for b in merge_raw.get("benchmarks", []):
    parts = b["name"].split("/")
    merge.append({
        "engine": parts[1] if len(parts) > 1 else b["name"],
        "threads": int(parts[2]) if len(parts) > 2 else None,
        "real_time_ms": b["real_time"],
        "cpu_time_ms": b["cpu_time"],
        "clusters": b.get("clusters"),
    })
merge_speedups = {}
mt = {(m["engine"], m["threads"]): m["real_time_ms"] for m in merge}
for threads in sorted({m["threads"] for m in merge if m["threads"]}):
    seq = mt.get(("sequential", threads))
    par = mt.get(("parallel", threads))
    if seq and par:
        merge_speedups[str(threads)] = seq / par

with open(fig12_txt) as f:
    fig12 = f.read()

out = {
    "generated_by": "tools/run_bench.sh",
    "bench_scale": float(scale),
    "host_kernel_1t_s": float(host),
    "context": raw.get("context", {}),
    "phase2_kernels": kernels,
    **speedups,
    "merge_engines": merge,
    "merge_speedup_parallel_over_sequential": merge_speedups,
    "fig12_breakdown": fig12,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
summary = ", ".join(f"{k.removeprefix('speedup_')}: {v:.2f}x"
                    for k, v in speedups.items())
merge_summary = ", ".join(f"{t}t: {s:.2f}x"
                          for t, s in merge_speedups.items())
print(f"wrote {out_path}" + (f" ({summary})" if summary else "")
      + (f" (merge par/seq {merge_summary})" if merge_summary else ""))
PY
