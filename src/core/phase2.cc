#include "core/phase2.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "parallel/parallel_for.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace rpdbscan {

bool SubcellRangeMbr(const CellDictionary& dict, const CellCoord& coord,
                     float* mbr_lo, float* mbr_hi) {
  // The dictionary precomputes every cell's occupied-sub-cell MBR at
  // Assemble (cell_dictionary.cc ComputeCellMbr — the decode + one-ulp
  // outward arithmetic that used to live here); this is now a lookup.
  const DictCellRef ref = dict.FindDictCell(coord);
  if (!ref) return false;
  const size_t dim = dict.geom().dim();
  const uint32_t local = static_cast<uint32_t>(
      ref.cell - ref.subdict->cells().data());
  const float* mbr = ref.subdict->cell_mbr(local);
  for (size_t d = 0; d < dim; ++d) {
    mbr_lo[d] = mbr[d];
    mbr_hi[d] = mbr[dim + d];
  }
  return true;
}

namespace {

/// Scratch buffers of one partition task, reused across its cells so the
/// hot loop never reallocates once the high-water marks are reached.
struct Phase2Scratch {
  CandidateCellList candidates;
  std::vector<uint32_t> neighbor_cells;
  std::vector<uint32_t> cell_edges;
  /// Per maybe-candidate: 1 once any core point of the current cell has
  /// matched it (the cell's edge set is a union over core points, so a
  /// matched candidate never needs re-evaluation for later points).
  std::vector<uint8_t> maybe_matched;
  /// suffix_remaining[i] = sum of total_counts[i..): the most density the
  /// still-unscanned candidates could add. Exact upper bound (matched
  /// never exceeds total), so pass 1 can abandon a point the moment
  /// count + suffix_remaining[i] < min_pts.
  std::vector<uint64_t> suffix_remaining;
  /// Per maybe-candidate squared lower bound from the current point to the
  /// candidate's MBR, filled by the vector bounds kernel (PointBoundsFn)
  /// once per point before the candidate scan. Sized to the padded
  /// maybe_stride — the kernel stores whole lanes.
  std::vector<double> point_min2;
};

/// The per-point kernels below are templated on a compile-time dimension
/// (kDim == 0 falls back to the runtime value): with the trip count a
/// constant, the compiler fully unrolls the per-dimension loops and the
/// inlined DistanceSquared. Unrolling a fixed-order sequential double
/// accumulation does not reassociate it, so every sum is bit-identical
/// to the runtime-dim path — the dispatch is pure speed.

/// Per-point squared upper bound to a maybe-candidate's occupied-sub-cell
/// MBR, read from the transposed (dimension-major, maybe_stride-strided)
/// candidate arrays. The matching lower bound is precomputed for all
/// candidates at once by the vector bounds kernel (core/simd.h
/// PointBoundsFn) into Phase2Scratch::point_min2; the upper bound is only
/// evaluated for candidates whose lower bound already passed, so it stays
/// a scalar on-demand computation.
///
/// Correctness of the MBR-based fast paths: every sub-cell center of the
/// candidate lies inside its occupied-sub-cell MBR, so max2 <= eps2
/// proves every center within eps (the lane kernel would count the full
/// total) and min2 > eps2 proves none is (the kernel would count zero).
/// Both shortcuts return exactly what the kernel would, so per-point
/// densities — and with them labels — are bit-identical to a run without
/// the bounds.
template <size_t kDim>
inline double PointMbrMaxDist2(const float* lo_t, const float* hi_t,
                               size_t stride, size_t i, const float* p,
                               size_t dim_rt) {
  const size_t dim = kDim ? kDim : dim_rt;
  double mx = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double lo = lo_t[d * stride + i];
    const double hi = hi_t[d * stride + i];
    const double v = p[d];
    const double to_lo = v > lo ? v - lo : lo - v;
    const double to_hi = v > hi ? v - hi : hi - v;
    const double far = to_lo > to_hi ? to_lo : to_hi;
    mx += far * far;
  }
  return mx;
}

/// Statistics one partition task accumulates and flushes once at the end.
struct TaskCounters {
  size_t visited = 0;
  size_t possible = 0;
  size_t scanned = 0;
  size_t early_exits = 0;
  size_t stencil_probes = 0;
};

/// Resolved kernel dispatch for one BuildSubgraphs run: the lane kernel
/// for the run's dimension and SIMD tier, and the per-point bounds kernel.
struct KernelConfig {
  SubcellCountFn exact_fn = nullptr;
  PointBoundsFn bounds_fn = nullptr;
};

/// Matched-density counters for the per-point scan: the Example 5.5 logic
/// (MBR lower bound first — most evaluations land on disjoint cells and
/// min2 > eps2 implies max2 > eps2 — then the containment fast path, then
/// the lane kernel over the cell's SoA block). The lower bounds for all
/// candidates are precomputed per point by the vector bounds kernel in
/// BeginPoint; the fast paths are exact shortcuts of the lane kernel (see
/// PointMbrMaxDist2), which itself reproduces the old AoS sub-cell scan
/// bit-for-bit (see core/simd.h), so neither the storage layout, the
/// vector tier, nor the MBR tightening can change any outcome.
template <size_t kDim>
struct ExactCounter {
  SubcellCountFn fn = nullptr;
  PointBoundsFn bounds_fn = nullptr;
  double* point_min2 = nullptr;
  size_t dim_rt = 0;
  double eps2 = 0.0;

  void BeginPoint(const float* p, const CandidateCellList& cand) {
    bounds_fn(p, cand.mbr_lo_t.data(), cand.mbr_hi_t.data(),
              cand.maybe_stride, kDim ? kDim : dim_rt, cand.num_maybe(),
              point_min2);
  }

  uint32_t Count(const CandidateCellList& cand, size_t i, const float* p) {
    const size_t dim = kDim ? kDim : dim_rt;
    if (point_min2[i] > eps2) return 0;
    const double max2 = PointMbrMaxDist2<kDim>(
        cand.mbr_lo_t.data(), cand.mbr_hi_t.data(), cand.maybe_stride, i, p,
        dim);
    if (max2 <= eps2) return cand.total_counts[i];
    return fn(p, cand.lane_centers[i], cand.lane_counts[i],
              cand.lane_padded[i], dim, eps2);
  }
};

/// The per-point half of the batched kernel: a two-pass flat scan over an
/// already-gathered candidate list — pass 1 counts toward min_pts with an
/// early exit, pass 2 (core points only) finishes neighbor-cell
/// collection. Instantiated per dimension so the innermost distance loops
/// unroll (see the kernel template note above).
template <size_t kDim>
void ScanCellPoints(const Dataset& data, const CellData& cell, uint32_t cid,
                    const CandidateCellList& cand, size_t min_pts,
                    const uint8_t* seed, ExactCounter<kDim>& counter,
                    Phase2Scratch& scratch, uint8_t* point_is_core,
                    bool& cell_core, TaskCounters& counters) {
  const size_t num_maybe = cand.num_maybe();
  size_t num_matched = 0;
  // Records that a core point matched maybe-candidate `idx`: later points
  // skip it in pass 2 (the edge union already has it), and its edge is
  // emitted exactly once.
  auto record_matched = [&](size_t idx) {
    if (!scratch.maybe_matched[idx]) {
      scratch.maybe_matched[idx] = 1;
      ++num_matched;
      if (cand.cell_ids[idx] != cid) {
        scratch.cell_edges.push_back(cand.cell_ids[idx]);
      }
    }
  };
  for (const uint32_t point_id : cell.point_ids) {
    const float* p = data.point(point_id);
    if (seed != nullptr && seed[point_id] != 0) {
      // Seeded core point (the ladder proved min_pts density at a smaller
      // query radius — density is monotone in the radius at fixed
      // geometry): skip the pass-1 count and finish the edge union
      // directly over the candidates no earlier core point has matched.
      // The per-point matched set is unchanged — pass 2 below covers
      // exactly the same unmatched candidates a counted pass would leave
      // — so the cell's edge union, and with it every label, is
      // bit-identical to the unseeded scan.
      point_is_core[point_id] = 1;
      cell_core = true;
      if (num_matched == num_maybe) continue;
      counter.BeginPoint(p, cand);
      for (size_t i = 0; i < num_maybe; ++i) {
        if (scratch.maybe_matched[i]) continue;
        ++counters.scanned;
        if (counter.Count(cand, i, p) > 0) record_matched(i);
      }
      continue;
    }
    counter.BeginPoint(p, cand);
    scratch.neighbor_cells.clear();
    uint64_t count = cand.always_count;
    size_t i = 0;
    // Pass 1: core test. QueryCell sorted the candidates nearest-first,
    // so the density sum usually crosses min_pts within the first few
    // evaluations. Matches are staged by index — they only enter the edge
    // union if this point turns out core.
    while (count < min_pts && i < num_maybe) {
      if (count + scratch.suffix_remaining[i] < min_pts) break;
      const uint32_t matched = counter.Count(cand, i, p);
      ++counters.scanned;
      if (matched > 0) {
        count += matched;
        scratch.neighbor_cells.push_back(static_cast<uint32_t>(i));
      }
      ++i;
    }
    if (count < min_pts) continue;  // not core: neighbors are irrelevant
    if (i < num_maybe) ++counters.early_exits;
    point_is_core[point_id] = 1;
    cell_core = true;
    for (const uint32_t idx : scratch.neighbor_cells) record_matched(idx);
    if (num_matched == num_maybe) continue;  // edge union already complete
    // Pass 2: finish neighbor collection over the cells pass 1 skipped,
    // but only those no earlier core point has matched yet.
    for (; i < num_maybe; ++i) {
      if (scratch.maybe_matched[i]) continue;
      ++counters.scanned;
      if (counter.Count(cand, i, p) > 0) {
        record_matched(i);
      }
    }
  }
}

/// Builds the dimension's counter and runs the per-point scan.
template <size_t kDim>
void ScanCellDispatch(const Dataset& data, const CellData& cell,
                      uint32_t cid, const CandidateCellList& cand,
                      size_t min_pts, size_t dim, double eps2,
                      const uint8_t* seed, const KernelConfig& kernels,
                      Phase2Scratch& scratch, uint8_t* point_is_core,
                      bool& cell_core, TaskCounters& counters) {
  ExactCounter<kDim> counter;
  counter.fn = kernels.exact_fn;
  counter.bounds_fn = kernels.bounds_fn;
  counter.point_min2 = scratch.point_min2.data();
  counter.dim_rt = dim;
  counter.eps2 = eps2;
  ScanCellPoints<kDim>(data, cell, cid, cand, min_pts, seed, counter,
                       scratch, point_is_core, cell_core, counters);
}

/// Batched kernel for one cell: a single candidate gather (the stencil
/// walk when the dictionary carries a stencil, kd-tree descent otherwise),
/// then per point a two-pass flat scan — pass 1 counts toward min_pts
/// with an early exit, pass 2 (core points only) finishes neighbor-cell
/// collection.
void ProcessCellBatched(const Dataset& data, const CellData& cell,
                        uint32_t cid, const CellDictionary& dict,
                        size_t min_pts, size_t num_subdicts,
                        bool use_stencil, const KernelConfig& kernels,
                        double query_eps, double eps2,
                        const uint8_t* seed, Phase2Scratch& scratch,
                        uint8_t* point_is_core, bool& cell_core,
                        TaskCounters& counters) {
  const GridGeometry& geom = dict.geom();
  const size_t dim = geom.dim();
  if (cell.point_ids.empty()) return;
  // Conservative bounding box of the cell's points: QueryCell classifies
  // candidates against it, which on skewed data resolves most of them at
  // cell level before any per-point work. Derived from the dictionary's
  // occupied sub-cell ranges — data the dictionary already holds — instead
  // of a fresh scan over the points every run. The dictionary covers every
  // CellSet cell, so a miss means the two were built from different data.
  float mbr_lo[CellCoord::kMaxDim];
  float mbr_hi[CellCoord::kMaxDim];
  const bool in_dict = SubcellRangeMbr(dict, cell.coord, mbr_lo, mbr_hi);
  RPDBSCAN_CHECK(in_dict) << "cell " << cid << " is not a dictionary cell";
#ifndef NDEBUG
  // Debug builds prove the sub-cell-range box really covers the points
  // (the sanitizer suite runs with NDEBUG off, so this stays exercised).
  for (const uint32_t point_id : cell.point_ids) {
    const float* p = data.point(point_id);
    for (size_t d = 0; d < dim; ++d) {
      RPDBSCAN_CHECK(p[d] >= mbr_lo[d] && p[d] <= mbr_hi[d])
          << "sub-cell-range MBR fails to cover point " << point_id
          << " in dim " << d;
    }
  }
#endif
  CandidateCellList& cand = scratch.candidates;
  if (use_stencil) {
    counters.stencil_probes +=
        dict.QueryCellStencil(cell.coord, mbr_lo, mbr_hi, &cand, query_eps);
  } else {
    counters.visited +=
        dict.QueryCell(cell.coord, mbr_lo, mbr_hi, &cand, query_eps);
    counters.possible += num_subdicts;
  }
  const size_t num_maybe = cand.num_maybe();
  scratch.cell_edges.reserve(cand.always_neighbors.size() + num_maybe);
  scratch.maybe_matched.assign(num_maybe, 0);
  // The bounds kernel stores whole lanes, so size to the padded stride.
  scratch.point_min2.resize(cand.maybe_stride);
  scratch.suffix_remaining.resize(num_maybe + 1);
  scratch.suffix_remaining[num_maybe] = 0;
  for (size_t i = num_maybe; i-- > 0;) {
    scratch.suffix_remaining[i] =
        scratch.suffix_remaining[i + 1] + cand.total_counts[i];
  }
  if (cand.always_count + scratch.suffix_remaining[0] < min_pts) {
    // No point of this cell can reach min_pts: all non-core. A *valid*
    // core seed implies min_pts density, i.e. a bound at least min_pts —
    // so the shortcut can only fire when the cell holds no seeded point,
    // and scanning for one keeps even an invalid seed from being
    // silently dropped.
    bool has_seed = false;
    if (seed != nullptr) {
      for (const uint32_t point_id : cell.point_ids) {
        if (seed[point_id] != 0) {
          has_seed = true;
          break;
        }
      }
    }
    if (!has_seed) return;
  }
  switch (dim) {
    case 2:
      ScanCellDispatch<2>(data, cell, cid, cand, min_pts, dim, eps2, seed,
                          kernels, scratch, point_is_core, cell_core,
                          counters);
      break;
    case 3:
      ScanCellDispatch<3>(data, cell, cid, cand, min_pts, dim, eps2, seed,
                          kernels, scratch, point_is_core, cell_core,
                          counters);
      break;
    case 4:
      ScanCellDispatch<4>(data, cell, cid, cand, min_pts, dim, eps2, seed,
                          kernels, scratch, point_is_core, cell_core,
                          counters);
      break;
    case 5:
      ScanCellDispatch<5>(data, cell, cid, cand, min_pts, dim, eps2, seed,
                          kernels, scratch, point_is_core, cell_core,
                          counters);
      break;
    default:
      ScanCellDispatch<0>(data, cell, cid, cand, min_pts, dim, eps2, seed,
                          kernels, scratch, point_is_core, cell_core,
                          counters);
      break;
  }
  if (cell_core) {
    // Every always-contained cell neighbors every core point; one append
    // per cell suffices.
    scratch.cell_edges.insert(scratch.cell_edges.end(),
                              cand.always_neighbors.begin(),
                              cand.always_neighbors.end());
  }
}

/// Kernel dispatch plus engine selection, resolved once per run (shared by
/// BuildSubgraphs and RecomputeCells so the incremental path always runs
/// the exact engine the full run would): SIMD tier (runtime-detected
/// unless the scalar_kernels option forces scalar), and the stencil
/// candidate engine whenever the dictionary carries a stencil.
struct EngineSetup {
  KernelConfig kernels;
  SimdLevel level = SimdLevel::kScalar;
  bool use_stencil = false;
  /// Query-radius decoupling (ladder levels): the radius handed to the
  /// candidate gathers, the resolved eps^2 of the per-point tests, and
  /// the borrowed seed/mask arrays.
  double query_eps = 0.0;
  double eps2 = 0.0;
  const uint8_t* seed = nullptr;
  const uint8_t* mask = nullptr;
};

EngineSetup ResolveEngine(const CellDictionary& dict,
                          const Phase2Options& opts) {
  EngineSetup setup;
  setup.level = opts.scalar_kernels ? SimdLevel::kScalar : DetectSimdLevel();
  setup.kernels.exact_fn = GetSubcellCountFn(setup.level, dict.geom().dim());
  setup.kernels.bounds_fn = GetPointBoundsFn(setup.level);
  setup.use_stencil = dict.has_stencil();
  setup.query_eps = opts.query_eps;
  const double qeps =
      opts.query_eps > 0.0 ? opts.query_eps : dict.geom().eps();
  setup.eps2 = qeps * qeps;
  setup.seed = opts.seed_point_core;
  setup.mask = opts.core_cell_mask;
  return setup;
}

/// Runs one cell through the run's engine. Leaves the cell's
/// deduplicated, ascending neighbor-cell list in scratch.cell_edges
/// (always empty for a non-core cell — only core points contribute edges)
/// and returns the cell's core flag. The per-cell unit shared by the full
/// run and the incremental recompute.
bool ProcessOneCell(const Dataset& data, const CellData& cell, uint32_t cid,
                    const CellDictionary& dict, size_t min_pts,
                    size_t num_subdicts, const EngineSetup& setup,
                    Phase2Scratch& scratch,
                    uint8_t* point_is_core, TaskCounters& counters) {
  bool cell_core = false;
  scratch.cell_edges.clear();
  // Sampled-core mode: unsampled cells are skipped outright — their points
  // stay non-core and they emit no edges (border labeling through sampled
  // neighbors still happens downstream).
  if (setup.mask != nullptr && setup.mask[cid] == 0) return false;
  ProcessCellBatched(data, cell, cid, dict, min_pts, num_subdicts,
                     setup.use_stencil, setup.kernels, setup.query_eps,
                     setup.eps2, setup.seed, scratch, point_is_core,
                     cell_core, counters);
  if (!scratch.cell_edges.empty()) {
    std::vector<uint32_t>& cell_edges = scratch.cell_edges;
    std::sort(cell_edges.begin(), cell_edges.end());
    cell_edges.erase(std::unique(cell_edges.begin(), cell_edges.end()),
                     cell_edges.end());
  }
  return cell_core;
}

}  // namespace

Phase2Result BuildSubgraphs(const Dataset& data, const CellSet& cells,
                            const CellDictionary& dict, size_t min_pts,
                            ThreadPool& pool, const Phase2Options& opts) {
  Phase2Result result;
  const size_t k = cells.num_partitions();
  result.subgraphs.resize(k);
  result.point_is_core.assign(data.size(), 0);
  result.cell_is_core.assign(cells.num_cells(), 0);
  result.task_seconds.assign(k, 0.0);
  std::atomic<size_t> subdict_visited{0};
  std::atomic<size_t> subdict_possible{0};
  std::atomic<size_t> cells_scanned{0};
  std::atomic<size_t> early_exits{0};
  std::atomic<size_t> stencil_probes{0};
  const size_t num_subdicts = dict.num_subdictionaries();
  const EngineSetup setup = ResolveEngine(dict, opts);
  result.simd_level = setup.level;

  // Longest-first schedule (LPT): partition tasks are submitted by
  // descending cached point count so a straggler cannot land on the last
  // free worker and stretch the makespan — the Fig. 13 imbalance numbers
  // then measure the partitioning, not the submission order. stable_sort
  // keeps equal-sized partitions in id order for determinism.
  std::vector<uint32_t> schedule(k);
  std::iota(schedule.begin(), schedule.end(), 0u);
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&cells](uint32_t a, uint32_t b) {
                     return cells.PartitionPoints(a) >
                            cells.PartitionPoints(b);
                   });

  ParallelFor(
      pool, k,
      [&](size_t slot) {
        const size_t pid = schedule[slot];
        Stopwatch watch;
        CellSubgraph& graph = result.subgraphs[pid];
        graph.partition_id = static_cast<uint32_t>(pid);
        TaskCounters counters;
        Phase2Scratch scratch;
        scratch.neighbor_cells.reserve(64);
        for (const uint32_t cid : cells.partition(pid)) {
          const bool cell_core = ProcessOneCell(
              data, cells.cell(cid), cid, dict, min_pts, num_subdicts, setup,
              scratch, result.point_is_core.data(), counters);
          result.cell_is_core[cid] = cell_core ? 1 : 0;
          graph.owned.emplace_back(
              cid, cell_core ? CellType::kCore : CellType::kNonCore);
          for (const uint32_t to : scratch.cell_edges) {
            graph.edges.push_back(CellEdge{cid, to, EdgeType::kUndetermined});
          }
        }
        subdict_visited.fetch_add(counters.visited,
                                  std::memory_order_relaxed);
        subdict_possible.fetch_add(counters.possible,
                                   std::memory_order_relaxed);
        cells_scanned.fetch_add(counters.scanned,
                                std::memory_order_relaxed);
        early_exits.fetch_add(counters.early_exits,
                              std::memory_order_relaxed);
        stencil_probes.fetch_add(counters.stencil_probes,
                                 std::memory_order_relaxed);
        result.task_seconds[pid] = watch.ElapsedSeconds();
      },
      /*chunk=*/1);

  result.subdict_visited = subdict_visited.load();
  result.subdict_possible = subdict_possible.load();
  result.candidate_cells_scanned = cells_scanned.load();
  result.early_exits = early_exits.load();
  result.stencil_probes = stencil_probes.load();
  return result;
}

Phase2CellUpdate RecomputeCells(const Dataset& data, const CellSet& cells,
                                const CellDictionary& dict, size_t min_pts,
                                ThreadPool& pool, const Phase2Options& opts,
                                const std::vector<uint32_t>& targets,
                                uint8_t* point_is_core) {
  Phase2CellUpdate update;
  const EngineSetup setup = ResolveEngine(dict, opts);
  update.simd_level = setup.level;
  const size_t m = targets.size();
  update.cell_is_core.assign(m, 0);
  update.cell_edges.resize(m);
  if (m == 0) return update;
  // The scan only *sets* core bits, so stale flags from the prior epoch
  // must be cleared up front for every target cell's points (densities are
  // monotone under appends, but targets are caller-chosen — clear all).
  for (const uint32_t cid : targets) {
    for (const uint32_t pid : cells.cell(cid).point_ids) {
      point_is_core[pid] = 0;
    }
    update.recomputed_points += cells.cell(cid).point_ids.size();
  }
  std::atomic<size_t> subdict_visited{0};
  std::atomic<size_t> subdict_possible{0};
  std::atomic<size_t> cells_scanned{0};
  std::atomic<size_t> early_exits{0};
  std::atomic<size_t> stencil_probes{0};
  const size_t num_subdicts = dict.num_subdictionaries();
  // Chunked over the target list (targets share no points, so the per-cell
  // tasks are independent); each chunk reuses one scratch set like a
  // partition task does.
  const size_t num_chunks = std::min(m, pool.num_threads() * 4);
  const size_t chunk_len = (m + num_chunks - 1) / num_chunks;
  ParallelFor(
      pool, num_chunks,
      [&](size_t c) {
        TaskCounters counters;
        Phase2Scratch scratch;
        scratch.neighbor_cells.reserve(64);
        const size_t end = std::min(m, (c + 1) * chunk_len);
        for (size_t t = c * chunk_len; t < end; ++t) {
          const uint32_t cid = targets[t];
          const bool cell_core =
              ProcessOneCell(data, cells.cell(cid), cid, dict, min_pts,
                             num_subdicts, setup, scratch, point_is_core,
                             counters);
          update.cell_is_core[t] = cell_core ? 1 : 0;
          update.cell_edges[t].assign(scratch.cell_edges.begin(),
                                      scratch.cell_edges.end());
        }
        subdict_visited.fetch_add(counters.visited,
                                  std::memory_order_relaxed);
        subdict_possible.fetch_add(counters.possible,
                                   std::memory_order_relaxed);
        cells_scanned.fetch_add(counters.scanned, std::memory_order_relaxed);
        early_exits.fetch_add(counters.early_exits,
                              std::memory_order_relaxed);
        stencil_probes.fetch_add(counters.stencil_probes,
                                 std::memory_order_relaxed);
      },
      /*chunk=*/1);
  update.subdict_visited = subdict_visited.load();
  update.subdict_possible = subdict_possible.load();
  update.candidate_cells_scanned = cells_scanned.load();
  update.early_exits = early_exits.load();
  update.stencil_probes = stencil_probes.load();
  return update;
}

}  // namespace rpdbscan
