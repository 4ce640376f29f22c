#!/usr/bin/env bash
# Sanitizer / release check matrix:
#   1. Debug + ASan + UBSan (float-cast-overflow included, see
#      CMakeLists.txt) over the full test suite (minus `slow` tests —
#      the bench smoke run rebuilds nothing and times out under ASan).
#      Includes the lattice-stencil engine suites (stencil_query_test,
#      lattice_stencil_test), the out-of-core layer (mmap_dataset_test,
#      external_phase1_test's spill/merge paths, oocore_e2e_test with the
#      forked-child builds at sanitizer-reduced sizes, oocore_cli_test),
#      the hierarchy metrics + stencil-family suites
#      (hausdorff_test, metrics_edge_case_test, stencil_prefix_test's
#      randomized prefix-vs-probe ladders), and, with NDEBUG off, the
#      sub-cell-range MBR containment assertions in ProcessCellBatched.
#   2. TSan (RelWithDebInfo) over the `sanitizer-safe` subset: the
#      thread-pool, parallel-sort, phase2 (all query engines, incl. the
#      concurrent FlatCellIndex::BuildHashed), merge — now including the
#      lock-free ConcurrentDisjointSet (disjoint_set_test's multi-thread
#      union stress) and the edge-parallel merge path
#      (parallel_merge_test) — the SIMD-vs-scalar equivalence suite
#      (simd_kernel_test),
#      end-to-end and snapshot-serving (serve_concurrent_test: one frozen
#      snapshot, many reader threads; serve_batch_test: grouped-batch
#      bit-identity across thread counts; request_loop_test: the framed
#      request loop's reader thread + admission queue + classification
#      pool) suites that exercise every concurrent path, and the
#      streaming layer (ingest_buffer_test: parallel batch re-grouping
#      into the shared CSR; stream_incremental_test: pooled epochs that
#      assemble each dictionary over the last one, carrying stencil
#      neighborhoods over; epoch_swap_test: reader threads hammering
#      LabelServer queries while the EpochRegistry's shared_ptr slot
#      hot-swaps epochs under them), the dictionary assembly
#      (cell_dictionary_test: the pool-parallel fragment fill and the
#      stencil CSR merge-join's count and fill passes, with and without
#      a prior, against single-threaded builds and a brute-force
#      oracle), the external Phase I-1 build
#      (external_phase1_test: chunked sort + spill + k-way merge driven
#      through the shared thread pool), and the multi-eps hierarchy +
#      multi-model serving layer (hierarchy_test /
#      hierarchy_differential_test: thread-pooled ladder sweeps vs
#      independent runs; model_registry_test: routed frames against N
#      resident snapshots through the concurrent request loop).
#   3. Plain Release over everything, including the slow tests, built
#      with -DRPDBSCAN_WERROR=ON so any compiler warning fails the check.
#
# Usage: tools/run_checks.sh [build-root]
# Build trees land under <build-root> (default: ./build-checks).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-checks}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1" build_type="$2" sanitize="$3" werror="$4"
  shift 4
  local dir="${build_root}/${name}"
  echo "==== [${name}] configure (${build_type}, sanitize='${sanitize}', werror=${werror})"
  cmake -B "${dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DRPDBSCAN_SANITIZE="${sanitize}" \
    -DRPDBSCAN_WERROR="${werror}" >/dev/null
  echo "==== [${name}] build"
  cmake --build "${dir}" -j "${jobs}" >/dev/null
  echo "==== [${name}] ctest $*"
  (cd "${dir}" && ctest --output-on-failure -j "${jobs}" "$@")
}

# 1. ASan + UBSan, full suite minus the slow label.
ASAN_OPTIONS="detect_leaks=0" \
  run_config asan Debug "address,undefined" OFF -LE slow

# 2. TSan on the parallel subset. halt_on_error turns any race into a
#    test failure instead of a log line.
TSAN_OPTIONS="halt_on_error=1" \
  run_config tsan RelWithDebInfo thread OFF -L sanitizer-safe

# 3. Plain Release, everything, warnings as errors.
run_config release Release "" ON

echo "==== all check configurations passed"
