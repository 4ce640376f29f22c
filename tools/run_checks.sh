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
#      slot and sub-cell-range MBR containment assertions in
#      ProcessCellBatched,
#      and Phase II's successor-row sort (parallel_sort_test's
#      SerialCellIdRowsMatchStdSort: the serial radix sort over cell ids
#      below 1 to 2^24 + 1 cells, keyed on RadixKeyBytes(n - 1) bytes,
#      against std::sort).
#   2. TSan (RelWithDebInfo) over the `sanitizer-safe` subset: the
#      fork-join pool (thread_pool_test: each claimant at most once, the
#      caller's take-back of claimants no worker started, the destructor
#      joining its workers; parallel_for_test's
#      ConcurrentCallersWaitOnlyForTheirOwnLoops: two threads sharing one
#      pool, the first's loop blocked until the second's returns,
#      NestedLoopsOnOnePool, WorkerIndicesAreDistinctAndIncludeTheCaller
#      and BackToBackTinyLoopsRunEveryIndexOnce: 4,000 loops of 1-8
#      iterations at 4 threads racing the take-back), parallel-sort (the
#      row-sort case included), phase2
#      (all query engines, incl. the concurrent
#      FlatCellIndex::BuildHashed, and
#      Phase2Test.VisitOrderChangesNothing: slot-order partition tasks at
#      1 and 4 threads against the ascending-id RecomputeCells), merge —
#      now including the
#      lock-free ConcurrentDisjointSet (disjoint_set_test's multi-thread
#      union stress) and the edge-parallel merge path
#      (parallel_merge_test) — the kernel-tier suite (simd_kernel_test:
#      the detected tier's multi-count kernel against the scalar
#      reference and a DistanceSquared brute force, over gather views
#      of 1-33 queries on both sides of the AVX2 16-query tile; every
#      tier's first-match kernel against the scalar counts, with a block
#      matching only in its last stride and one whose in-radius slots are
#      all padding (SimdKernelTest.DetectedLevelMatchesScalarExactly);
#      its group-bounds kernel bit for bit; and every tier's box-pair
#      kernel, the kd gather's leaf test, against MbrPairDistBounds bit
#      for bit and verdict for verdict at d = 1-16 and 1-17 candidates,
#      with thresholds one ulp either side of each candidate's bounds
#      (SimdKernelTest.BoxPairBoundsMatchesScalarBitExactly) and an
#      early exit before the last dimension
#      (SimdKernelTest.BoxPairBoundsEarlyExitVerdictIsTheFullSums)),
#      end-to-end and snapshot-serving (serve_test: the brute-force
#      serving oracle through the pooled grouped path at d = 2-8 and on a
#      13-d snapshot, at 1 and 4 threads; serve_concurrent_test: one
#      frozen snapshot, many reader threads; serve_batch_test:
#      grouped-batch bit-identity across thread counts, a 13-d snapshot
#      included; request_loop_test: the framed
#      request loop's reader thread + admission queue + classification
#      pool) suites that exercise every concurrent path, and the
#      streaming layer (ingest_buffer_test: parallel batch re-grouping
#      into the shared CSR; stream_incremental_test: pooled epochs that
#      assemble each dictionary over the last one, carrying stencil
#      neighborhoods over, and extend the last cell graph — the touched
#      cells' pooled re-runs and the extension pass that writes each
#      reached cell's row from one task, with 1-8-point batches at 4
#      threads; epoch_swap_test: reader threads hammering
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
#   4. The perfbench self-test (perfbench/selftest.py, its own Release
#      build into .bench_build/): every workload at tiny size, so a change
#      that breaks a library call the benchmark makes, or the staged
#      replay's label check, fails the matrix.
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

# 4. The benchmark of record still builds and passes its own checks.
echo "==== [perfbench] selftest"
(cd "${repo_root}" && python3 perfbench/selftest.py)

echo "==== all check configurations passed"
