#include "core/phase2.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace rpdbscan {

namespace {

/// Scratch buffers of one partition task, reused across its cells so the
/// hot loop never reallocates once the high-water marks are reached.
struct Phase2Scratch {
  CandidateCellList candidates;
  std::vector<uint32_t> cell_edges;
  /// The radix sort's ping-pong buffer for ordering cell_edges.
  std::vector<uint32_t> cell_edges_sort;
  /// Per maybe-candidate: 1 once any core point of the current cell is
  /// known to match it (the cell's edge set is a union over core points,
  /// so a matched candidate never needs another test).
  std::vector<uint8_t> maybe_matched;
  /// suffix_remaining[i] = sum of total_counts[i..): the most density the
  /// still-unscanned candidates could add. Exact upper bound (matched
  /// never exceeds total), so pass 1 can drop a point the moment
  /// count + suffix_remaining[i] < min_pts.
  std::vector<uint64_t> suffix_remaining;
  /// The cell's points, row-major in point-list order: the gather source
  /// of the lane kernels (SubcellCountMultiFn, SubcellAnyMatchFn).
  std::vector<float> q;
  /// Per point of the cell: the candidate index after which it was proven
  /// core (0 for seeded points and points the always group alone makes
  /// core), kNotCore otherwise.
  std::vector<uint32_t> exit;
  /// Per point of the cell: its pass-1 density so far.
  std::vector<uint64_t> count;
  /// Pass 1's undecided points, compacted in order as points leave: their
  /// point-list indices and their coordinates transposed dimension-major
  /// at lane stride `live_stride` (GroupBoundsFn's layout).
  std::vector<uint32_t> live;
  std::vector<float> live_t;
  /// Pass-1 matches of points not yet core, staged as
  /// (candidate << 32 | point-list index): each becomes an edge once its
  /// point is core.
  std::vector<uint64_t> staged;
  /// Core points in exit order (ties in point-list order) and their
  /// coordinates transposed at lane stride: pass 2's search set.
  std::vector<uint32_t> core;
  std::vector<float> core_t;
  /// GroupBoundsFn outputs, padded to the lane width, and the points a
  /// tile routes to the lane kernel (point-list indices) with the
  /// kernel's results.
  std::vector<double> min2;
  std::vector<double> max2;
  std::vector<uint32_t> kidx;
  std::vector<uint32_t> kout;
};

constexpr uint32_t kNotCore = std::numeric_limits<uint32_t>::max();

/// Pass 2's chunk widths: a first chunk of 4 (most unmatched candidates
/// are matched by one of the first core points), then the multi-count
/// kernel's tile width.
constexpr size_t kFirstChunk = 4;
constexpr size_t kChunk = 16;

size_t LanePadded(size_t n) {
  return (n + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
}

/// Starts loading what testing maybe-candidate `i` reads: its MBR and
/// the heads of its coordinate and density lanes.
void PrefetchCandidate(const CandidateCellList& cand, size_t i, size_t dim) {
  __builtin_prefetch(cand.mbrs[i]);
  for (size_t d = 0; d < dim; ++d) {
    __builtin_prefetch(cand.lane_centers[i] + d * cand.lane_padded[i]);
  }
  __builtin_prefetch(cand.lane_counts[i]);
}

/// Statistics one task accumulates and flushes once at the end.
struct TaskCounters {
  size_t visited = 0;
  size_t possible = 0;
  size_t scanned = 0;
  size_t early_exits = 0;
  size_t stencil_probes = 0;
  /// RecomputeSummary's: the points the per-cell unit ran over, and the
  /// cells whose rows were only extended.
  size_t unit_points = 0;
  size_t extended_cells = 0;

  TaskCounters& operator+=(const TaskCounters& o) {
    visited += o.visited;
    possible += o.possible;
    scanned += o.scanned;
    early_exits += o.early_exits;
    stencil_probes += o.stencil_probes;
    unit_points += o.unit_points;
    extended_cells += o.extended_cells;
    return *this;
  }
};

/// Resolved kernel dispatch for one BuildSubgraphs run: the multi-count
/// lane kernel (pass 1's densities) and the first-match lane kernel (the
/// edge tests) for the run's dimension and SIMD tier, and the group
/// box-bounds kernel.
struct KernelConfig {
  SubcellCountMultiFn count_fn = nullptr;
  SubcellAnyMatchFn any_fn = nullptr;
  GroupBoundsFn bounds_fn = nullptr;
};

/// An occupied-sub-cell MBR (lo then hi) widened to double: the box
/// GroupBoundsFn measures against.
void MbrBox(const float* mbr, size_t dim, double* lo, double* hi) {
  for (size_t d = 0; d < dim; ++d) {
    lo[d] = mbr[d];
    hi[d] = mbr[dim + d];
  }
}

/// The tile scan of one cell over its gathered candidate list: the
/// cell's points meet each candidate as a group. Every per-point verdict
/// is the one DistanceSquared's arithmetic over each sub-cell center
/// gives, so core flags and edges match the oracle exactly:
///  * GroupBoundsFn returns each member's min² and max² to the
///    candidate's MBR; min² > eps² means no sub-cell center can match
///    (count 0), max² <= eps² means every one does (the cell's total) —
///    every center lies inside the MBR, so both shortcuts return what the
///    lane kernel would. The rest go through one SubcellCountMultiFn call,
///    bit-identical per member to the single-query kernel (core/simd.h).
///  * Pass 1 walks the candidates nearest-first with the still-undecided
///    points: a point leaves as non-core once count + suffix bound <
///    min_pts, or as core once count >= min_pts, with exit index =
///    candidate index + 1. Each point sees the same candidates in the
///    same order as a per-point scan would, so exits (and early_exits)
///    are those of the per-point scan.
///  * Pass 2 finds the edges pass 1 left open: for each candidate no
///    core point matched, it searches the core points that never
///    evaluated it (exit index <= candidate index; seeded cores enter at
///    0) in exit order, a chunk at a time, and stops at the first match.
///    An edge needs one witness, so the lane tests run SubcellAnyMatchFn,
///    which ends at the first sub-cell center within eps; its verdict is
///    the count kernel's "some count is nonzero".
/// candidate_cells_scanned counts the point-candidate bound evaluations
/// of pass 1 plus the chunk members tested in pass 2.
void ScanCellTiles(const Dataset& data, const CellData& cell, uint32_t cid,
                   const CandidateCellList& cand, size_t min_pts,
                   size_t dim, double eps2, const uint8_t* seed,
                   const KernelConfig& kernels, Phase2Scratch& scratch,
                   uint8_t* point_is_core, bool& cell_core,
                   TaskCounters& counters) {
  const size_t n = cell.point_ids.size();
  const size_t num_maybe = cand.num_maybe();
  scratch.q.resize(n * dim);
  scratch.exit.assign(n, kNotCore);
  scratch.count.assign(n, cand.always_count);
  scratch.core.clear();
  scratch.live.clear();
  for (size_t k = 0; k < n; ++k) {
    const uint32_t point_id = cell.point_ids[k];
    std::copy_n(data.point(point_id), dim, scratch.q.data() + k * dim);
    if (seed != nullptr && seed[point_id] != 0) {
      // Seeded core point (the ladder proved min_pts density at a smaller
      // query radius — density is monotone in the radius at fixed
      // geometry): no pass-1 count, only the edge search of pass 2, where
      // it enters at exit 0 and so meets every candidate. The edge union,
      // and with it every label, is the unseeded scan's.
      scratch.exit[k] = 0;
      scratch.core.push_back(static_cast<uint32_t>(k));
    } else if (cand.always_count >= min_pts) {
      // The always group alone makes the point core (a fully occupied
      // cell holding >= min_pts points lands here whole).
      scratch.exit[k] = 0;
      scratch.core.push_back(static_cast<uint32_t>(k));
      if (num_maybe > 0) ++counters.early_exits;
    } else {
      scratch.live.push_back(static_cast<uint32_t>(k));
    }
  }

  // Pass 1.
  size_t num_live = scratch.live.size();
  const size_t live_stride = LanePadded(num_live);
  // kChunk is a multiple of the lane width: pass 2's tiles fit as well.
  scratch.min2.resize(std::max(live_stride, kChunk));
  scratch.max2.resize(scratch.min2.size());
  scratch.kidx.resize(scratch.min2.size());
  scratch.kout.resize(scratch.min2.size());
  scratch.live_t.assign(live_stride * dim, 0.0f);
  float* live_t = scratch.live_t.data();
  for (size_t s = 0; s < num_live; ++s) {
    const float* p = scratch.q.data() + scratch.live[s] * dim;
    for (size_t d = 0; d < dim; ++d) live_t[d * live_stride + s] = p[d];
  }
  scratch.staged.clear();
  // Keeps the undecided points that can still become core, in order;
  // promotes the ones at min_pts with exit index `exit`.
  auto compact = [&](uint64_t remaining, uint32_t exit) {
    size_t w = 0;
    for (size_t s = 0; s < num_live; ++s) {
      const uint32_t k = scratch.live[s];
      const uint64_t c = scratch.count[k];
      if (c >= min_pts) {
        scratch.exit[k] = exit;
        scratch.core.push_back(k);
        if (exit < num_maybe) ++counters.early_exits;
        continue;
      }
      if (c + remaining < min_pts) continue;  // can never reach min_pts
      if (w != s) {
        scratch.live[w] = k;
        for (size_t d = 0; d < dim; ++d) {
          live_t[d * live_stride + w] = live_t[d * live_stride + s];
        }
      }
      ++w;
    }
    num_live = w;
  };
  double lo[CellCoord::kMaxDim];
  double hi[CellCoord::kMaxDim];
  compact(scratch.suffix_remaining[0], 0);
  for (size_t i = 0; i < num_maybe && num_live > 0; ++i) {
    if (i + 1 < num_maybe) PrefetchCandidate(cand, i + 1, dim);
    MbrBox(cand.mbrs[i], dim, lo, hi);
    kernels.bounds_fn(live_t, live_stride, num_live, lo, hi, dim,
                      scratch.min2.data(), scratch.max2.data());
    counters.scanned += num_live;
    const uint64_t tag = static_cast<uint64_t>(i) << 32;
    size_t nk = 0;
    for (size_t s = 0; s < num_live; ++s) {
      const uint32_t k = scratch.live[s];
      if (scratch.min2[s] > eps2) continue;
      if (scratch.max2[s] <= eps2) {
        scratch.count[k] += cand.total_counts[i];
        scratch.staged.push_back(tag | k);
        continue;
      }
      scratch.kidx[nk++] = k;
    }
    if (nk > 0) {
      kernels.count_fn(scratch.q.data(), scratch.kidx.data(), nk,
                       cand.lane_centers[i], cand.lane_counts[i],
                       cand.lane_padded[i], dim, eps2, scratch.kout.data());
      for (size_t t = 0; t < nk; ++t) {
        if (scratch.kout[t] == 0) continue;
        scratch.count[scratch.kidx[t]] += scratch.kout[t];
        scratch.staged.push_back(tag | scratch.kidx[t]);
      }
    }
    compact(scratch.suffix_remaining[i + 1], static_cast<uint32_t>(i + 1));
  }

  const size_t num_core = scratch.core.size();
  if (num_core == 0) return;
  cell_core = true;
  for (const uint32_t k : scratch.core) point_is_core[cell.point_ids[k]] = 1;
  size_t num_matched = 0;
  // Records that a core point matches maybe-candidate `idx`; its edge is
  // emitted exactly once.
  auto record_matched = [&](size_t idx) {
    if (scratch.maybe_matched[idx]) return;
    scratch.maybe_matched[idx] = 1;
    ++num_matched;
    if (cand.cell_ids[idx] != cid) {
      scratch.cell_edges.push_back(cand.cell_ids[idx]);
    }
  };
  for (const uint64_t m : scratch.staged) {
    if (scratch.exit[static_cast<uint32_t>(m)] != kNotCore) {
      record_matched(static_cast<size_t>(m >> 32));
    }
  }
  if (num_matched == num_maybe) return;  // edge union already complete

  // Pass 2.
  const size_t core_stride = LanePadded(num_core);
  scratch.core_t.assign(core_stride * dim, 0.0f);
  for (size_t r = 0; r < num_core; ++r) {
    const float* p = scratch.q.data() + scratch.core[r] * dim;
    for (size_t d = 0; d < dim; ++d) {
      scratch.core_t[d * core_stride + r] = p[d];
    }
  }
  // True when one of the `num` core points at idx matches candidate i;
  // the kernel stops at the first matching sub-cell center.
  auto lane_match = [&](size_t i, const uint32_t* idx, size_t num) {
    return kernels.any_fn(scratch.q.data(), idx, num, cand.lane_centers[i],
                          cand.lane_counts[i], cand.lane_padded[i], dim,
                          eps2);
  };
  size_t eligible = 0;
  for (size_t i = 0; i < num_maybe && num_matched < num_maybe; ++i) {
    while (eligible < num_core && scratch.exit[scratch.core[eligible]] <= i) {
      ++eligible;
    }
    if (scratch.maybe_matched[i] || eligible == 0) continue;
    // The search is latency-bound on the candidates' MBRs and lanes: load
    // the next open candidate's while this one is tested.
    for (size_t j = i + 1; j < num_maybe; ++j) {
      if (!scratch.maybe_matched[j]) {
        PrefetchCandidate(cand, j, dim);
        break;
      }
    }
    MbrBox(cand.mbrs[i], dim, lo, hi);
    size_t chunk = kFirstChunk;
    for (size_t a = 0; a < eligible; a += chunk, chunk = kChunk) {
      // Chunks start at multiples of the lane width, so the kernel's
      // whole-lane reads stay inside core_t.
      const size_t b = std::min(eligible, a + chunk);
      kernels.bounds_fn(scratch.core_t.data() + a, core_stride, b - a, lo,
                        hi, dim, scratch.min2.data(), scratch.max2.data());
      counters.scanned += b - a;
      bool found = false;
      size_t nk = 0;
      size_t nearest = 0;  // kidx position of the member nearest the MBR
      for (size_t t = 0; t < b - a; ++t) {
        const double min2 = scratch.min2[t];
        if (min2 > eps2) continue;
        if (scratch.max2[t] <= eps2) {
          found = true;
          break;
        }
        if (nk > 0 && min2 < scratch.min2[scratch.kidx[nearest]]) {
          nearest = nk;
        }
        scratch.kidx[nk++] = static_cast<uint32_t>(t);
      }
      if (!found && nk > 0) {
        // The member nearest the candidate's MBR is the likeliest match,
        // so it runs the lane kernel alone; the rest follow in one call.
        std::swap(scratch.kidx[0], scratch.kidx[nearest]);
        for (size_t t = 0; t < nk; ++t) {
          scratch.kidx[t] = scratch.core[a + scratch.kidx[t]];
        }
        found = lane_match(i, scratch.kidx.data(), 1) ||
                (nk > 1 && lane_match(i, scratch.kidx.data() + 1, nk - 1));
      }
      if (found) {
        record_matched(i);
        break;
      }
    }
  }
}

/// Batched kernel for one cell, the dictionary cell at global slot
/// `slot`: a single candidate gather (the stencil walk when the
/// dictionary carries a stencil, kd-tree descent otherwise), then the
/// tile scan over the gathered list.
void ProcessCellBatched(const Dataset& data, const CellData& cell,
                        uint32_t cid, uint32_t slot,
                        const CellDictionary& dict, size_t min_pts,
                        size_t num_subdicts, bool use_stencil,
                        const KernelConfig& kernels, double query_eps,
                        double eps2, const uint8_t* seed,
                        Phase2Scratch& scratch, uint8_t* point_is_core,
                        bool& cell_core, TaskCounters& counters) {
  const size_t dim = dict.geom().dim();
  if (cell.point_ids.empty()) return;
#ifndef NDEBUG
  // Debug builds prove the slot's occupied-sub-cell MBR, which the
  // gathers classify candidates against, really covers the points (the
  // sanitizer suite runs with NDEBUG off, so this stays exercised).
  const GlobalCellRef& ref = dict.cell_refs()[slot];
  const float* mbr =
      dict.subdictionaries()[ref.subdict].cell_mbr(ref.local_cell);
  for (const uint32_t point_id : cell.point_ids) {
    const float* p = data.point(point_id);
    for (size_t d = 0; d < dim; ++d) {
      RPDBSCAN_CHECK(p[d] >= mbr[d] && p[d] <= mbr[dim + d])
          << "sub-cell-range MBR fails to cover point " << point_id
          << " in dim " << d;
    }
  }
#endif
  CandidateCellList& cand = scratch.candidates;
  if (use_stencil) {
    counters.stencil_probes += dict.QueryCellStencil(slot, &cand, query_eps);
  } else {
    counters.visited += dict.QueryCell(slot, &cand, query_eps);
    counters.possible += num_subdicts;
  }
  const size_t num_maybe = cand.num_maybe();
  scratch.cell_edges.reserve(cand.always_neighbors.size() + num_maybe);
  scratch.maybe_matched.assign(num_maybe, 0);
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
  ScanCellTiles(data, cell, cid, cand, min_pts, dim, eps2, seed, kernels,
                scratch, point_is_core, cell_core, counters);
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
/// the exact engine the full run would): the runtime-detected SIMD tier,
/// and the stencil candidate engine whenever the dictionary carries a
/// stencil.
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
  setup.level = DetectSimdLevel();
  setup.kernels.count_fn =
      GetSubcellCountMultiFn(setup.level, dict.geom().dim());
  setup.kernels.any_fn =
      GetSubcellAnyMatchFn(setup.level, dict.geom().dim());
  setup.kernels.bounds_fn = GetGroupBoundsFn(setup.level);
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
                    uint32_t slot, const CellDictionary& dict, size_t min_pts,
                    size_t num_subdicts, const EngineSetup& setup,
                    Phase2Scratch& scratch,
                    uint8_t* point_is_core, TaskCounters& counters) {
  bool cell_core = false;
  scratch.cell_edges.clear();
  // Sampled-core mode: unsampled cells are skipped outright — their points
  // stay non-core and they emit no edges (border labeling through sampled
  // neighbors still happens downstream).
  if (setup.mask != nullptr && setup.mask[cid] == 0) return false;
  ProcessCellBatched(data, cell, cid, slot, dict, min_pts, num_subdicts,
                     setup.use_stencil, setup.kernels, setup.query_eps,
                     setup.eps2, setup.seed, scratch, point_is_core,
                     cell_core, counters);
  if (!scratch.cell_edges.empty()) {
    // Ids are below the cell count, so an LSD radix sort over their low
    // bytes orders the row in linear time.
    std::vector<uint32_t>& cell_edges = scratch.cell_edges;
    ParallelRadixSort(
        cell_edges, scratch.cell_edges_sort,
        RadixKeyBytes(dict.num_cells() - 1),
        [](uint32_t id, unsigned b) {
          return static_cast<uint8_t>(id >> (8 * b));
        },
        /*pool=*/nullptr);
    cell_edges.erase(std::unique(cell_edges.begin(), cell_edges.end()),
                     cell_edges.end());
  }
  return cell_core;
}

/// Grows `out` to `data` and `cells` (new points and cells non-core, new
/// rows empty; existing entries kept) and copies the cell set's partition
/// lists.
void GrowToCells(const Dataset& data, const CellSet& cells,
                 Phase2Result* out) {
  out->point_is_core.resize(data.size(), 0);
  CellGraph& graph = out->subgraphs;
  graph.cell_is_core.resize(cells.num_cells(), 0);
  graph.successors.resize(cells.num_cells());
  graph.partitions.resize(cells.num_partitions());
  for (uint32_t pid = 0; pid < cells.num_partitions(); ++pid) {
    graph.partitions[pid] = cells.partition(pid);
  }
}

/// The per-cell unit of one BuildSubgraphs or RecomputeCells call: the
/// inputs and resolved engine its tasks share, and the result each cell
/// is written into.
struct CellUnit {
  const Dataset& data;
  const CellSet& cells;
  const CellDictionary& dict;
  size_t min_pts;
  EngineSetup setup;
  Phase2Result* out;

  /// Runs cell `cid`, the dictionary cell at global slot `slot`, through
  /// ProcessOneCell and writes its core flag and successor row into
  /// out->subgraphs (its core points' flags land in out->point_is_core).
  /// A non-empty cell outside a core mask leaves its candidate gather in
  /// scratch.candidates.
  void Run(uint32_t cid, uint32_t slot, Phase2Scratch& scratch,
           TaskCounters& counters) const {
    const bool cell_core = ProcessOneCell(
        data, cells.cell(cid), cid, slot, dict, min_pts,
        dict.num_subdictionaries(), setup, scratch,
        out->point_is_core.data(), counters);
    CellGraph& graph = out->subgraphs;
    graph.cell_is_core[cid] = cell_core ? 1 : 0;
    graph.successors[cid].assign(scratch.cell_edges.begin(),
                                 scratch.cell_edges.end());
    counters.unit_points += cells.cell(cid).point_ids.size();
  }

  /// The global slot of cell `cid`, whose slot the caller does not know:
  /// one hash probe.
  uint32_t SlotOf(uint32_t cid) const {
    const int64_t slot = dict.FindCellRefIndex(cells.cell(cid).coord);
    RPDBSCAN_CHECK(slot >= 0) << "cell " << cid << " is not a dictionary cell";
    return static_cast<uint32_t>(slot);
  }
};

/// Runs `num_tasks` tasks on `pool`, task t calling
/// body(t, scratch, counters) with a scratch set and counters of its own.
/// Adds the tasks' counters to *total and returns each task's wall
/// seconds.
template <typename Body>
std::vector<double> RunTasks(ThreadPool& pool, size_t num_tasks,
                             const Body& body, TaskCounters* total) {
  std::vector<TaskCounters> task_counters(num_tasks);
  std::vector<double> seconds(num_tasks, 0.0);
  ParallelFor(
      pool, num_tasks,
      [&](size_t t) {
        Stopwatch watch;
        TaskCounters counters;
        Phase2Scratch scratch;
        body(t, scratch, counters);
        task_counters[t] = counters;
        seconds[t] = watch.ElapsedSeconds();
      },
      /*chunk=*/1);
  for (const TaskCounters& c : task_counters) *total += c;
  return seconds;
}

/// RecomputeCells' task split: [0, m) in at most four contiguous ranges
/// per pool thread, body(begin, end, scratch, counters) running each as
/// one task.
template <typename Body>
void RunChunked(ThreadPool& pool, size_t m, const Body& body,
                TaskCounters* total) {
  const size_t num_chunks = std::min(m, pool.num_threads() * 4);
  const size_t len = num_chunks == 0 ? 0 : (m + num_chunks - 1) / num_chunks;
  RunTasks(
      pool, num_chunks,
      [&](size_t c, Phase2Scratch& scratch, TaskCounters& counters) {
        const size_t begin = std::min(m, c * len);
        body(begin, std::min(m, begin + len), scratch, counters);
      },
      total);
}

/// Writes one call's summed counters and SIMD tier into `out`.
void SetCounters(const TaskCounters& total, SimdLevel level,
                 Phase2Result* out) {
  out->subdict_visited = total.visited;
  out->subdict_possible = total.possible;
  out->candidate_cells_scanned = total.scanned;
  out->early_exits = total.early_exits;
  out->stencil_probes = total.stencil_probes;
  out->simd_level = level;
}

/// An untouched cell the gather of a touched cell reached, the touched
/// cell's global slot, and whether the reached cell sat in that gather's
/// always group.
struct Reach {
  uint32_t cell = 0;
  uint32_t touched = 0;
  uint32_t touched_slot = 0;
  bool always = false;
};

/// Loads `cell`'s points for PointsReach: row-major into scratch.q and
/// transposed dimension-major into scratch.live_t at the returned lane
/// stride, with the kernel outputs sized to it.
size_t LoadPoints(const Dataset& data, const CellData& cell, size_t dim,
                  Phase2Scratch& scratch) {
  const size_t n = cell.point_ids.size();
  const size_t stride = LanePadded(n);
  scratch.q.resize(n * dim);
  scratch.live_t.assign(stride * dim, 0.0f);
  for (size_t k = 0; k < n; ++k) {
    const float* p = data.point(cell.point_ids[k]);
    std::copy_n(p, dim, scratch.q.data() + k * dim);
    for (size_t d = 0; d < dim; ++d) scratch.live_t[d * stride + k] = p[d];
  }
  scratch.min2.resize(stride);
  scratch.max2.resize(stride);
  scratch.kidx.resize(stride);
  return stride;
}

/// True when one of the `n` points LoadPoints loaded has a sub-cell
/// center of the dictionary cell at global slot `slot` within eps, by
/// the tile scan's per-point verdict: GroupBoundsFn against the cell's
/// occupied-sub-cell MBR drops a point whose min² exceeds eps² and ends
/// the test at a point whose max² does not, and one SubcellAnyMatchFn
/// call takes the rest.
bool PointsReach(const CellDictionary& dict, uint32_t slot, size_t n,
                 size_t stride, size_t dim, const EngineSetup& setup,
                 Phase2Scratch& scratch, TaskCounters& counters) {
  const GlobalCellRef& ref = dict.cell_refs()[slot];
  const SubDictionary& sd = dict.subdictionaries()[ref.subdict];
  double lo[CellCoord::kMaxDim];
  double hi[CellCoord::kMaxDim];
  MbrBox(sd.cell_mbr(ref.local_cell), dim, lo, hi);
  setup.kernels.bounds_fn(scratch.live_t.data(), stride, n, lo, hi, dim,
                          scratch.min2.data(), scratch.max2.data());
  counters.scanned += n;
  size_t nk = 0;
  for (size_t k = 0; k < n; ++k) {
    if (scratch.min2[k] > setup.eps2) continue;
    if (scratch.max2[k] <= setup.eps2) return true;
    scratch.kidx[nk++] = static_cast<uint32_t>(k);
  }
  return nk > 0 &&
         setup.kernels.any_fn(scratch.q.data(), scratch.kidx.data(), nk,
                              sd.lane_centers(ref.local_cell),
                              sd.lane_counts(ref.local_cell),
                              sd.lane_padded(ref.local_cell), dim,
                              setup.eps2);
}

/// Extends the row of cell `cid`, untouched with every point core, by the
/// touched cells of `reach` (its records, ascending by touched cell) its
/// points now reach. Pair bounds are symmetric, so a touched cell whose
/// gather held `cid` in its always group lies in `cid`'s always group and
/// joins untested; a touched cell already in the row is skipped.
void ExtendRow(const CellUnit& unit, uint32_t cid,
               std::span<const Reach> reach, Phase2Scratch& scratch,
               TaskCounters& counters) {
  std::vector<uint32_t>& row = unit.out->subgraphs.successors[cid];
  const CellData& cell = unit.cells.cell(cid);
  const size_t dim = unit.dict.geom().dim();
  const size_t old = row.size();
  size_t stride = 0;  // 0 until the cell's points are loaded
  for (const Reach& r : reach) {
    if (std::binary_search(row.begin(), row.begin() + old, r.touched)) {
      continue;
    }
    if (!r.always) {
      if (stride == 0) stride = LoadPoints(unit.data, cell, dim, scratch);
      if (!PointsReach(unit.dict, r.touched_slot, cell.point_ids.size(),
                       stride, dim, unit.setup, scratch, counters)) {
        continue;
      }
    }
    row.push_back(r.touched);
  }
  std::inplace_merge(row.begin(), row.begin() + old, row.end());
  ++counters.extended_cells;
}

/// A cell to visit and its global dictionary slot.
struct SlotCell {
  uint32_t cid = 0;
  uint32_t slot = 0;
};

/// Each partition's cells in the dictionary's slot order (cell_refs()):
/// one pass over the slots, bucketed by owner partition, each cell with
/// the slot its gather starts from. The slots list the cells fragment by
/// fragment, in the order their MBRs, lanes and slot metadata sit in
/// memory, so consecutive cells of a task find most of their candidates
/// already cached. The dictionary must hold exactly the cell set's
/// cells, each under its cell-set id and coordinate.
std::vector<std::vector<SlotCell>> SlotOrderPartitions(
    const CellSet& cells, const CellDictionary& dict) {
  const size_t num_cells = cells.num_cells();
  const size_t dim = dict.geom().dim();
  const std::vector<GlobalCellRef>& refs = dict.cell_refs();
  RPDBSCAN_CHECK(refs.size() == num_cells)
      << "the dictionary holds " << refs.size() << " cells, the cell set "
      << num_cells;
  std::vector<std::vector<SlotCell>> visit(cells.num_partitions());
  for (uint32_t pid = 0; pid < visit.size(); ++pid) {
    visit[pid].reserve(cells.partition(pid).size());
  }
  std::vector<uint8_t> seen(num_cells, 0);
  for (uint32_t slot = 0; slot < refs.size(); ++slot) {
    const uint32_t cid = refs[slot].cell_id;
    RPDBSCAN_CHECK(cid < num_cells && seen[cid] == 0)
        << "dictionary cell " << cid
        << " is outside the cell set or listed twice";
    seen[cid] = 1;
    const int32_t* coord = dict.ref_coords().data() + size_t{slot} * dim;
    RPDBSCAN_CHECK(std::equal(coord, coord + dim, cells.cell(cid).coord.data()))
        << "dictionary cell " << cid << " sits at another coordinate";
    visit[cells.cell(cid).owner_partition].push_back(SlotCell{cid, slot});
  }
  return visit;
}

}  // namespace

Phase2Result BuildSubgraphs(const Dataset& data, const CellSet& cells,
                            const CellDictionary& dict, size_t min_pts,
                            ThreadPool& pool, const Phase2Options& opts) {
  Phase2Result result;
  GrowToCells(data, cells, &result);
  const size_t k = cells.num_partitions();

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

  // A partition is a random cell subset (the seeded shuffle dealt in
  // CellSet), but the order a task visits it in is free: densities are
  // exact integer sums and a row is a set, so no result or counter
  // depends on it.
  const std::vector<std::vector<SlotCell>> visit =
      SlotOrderPartitions(cells, dict);
  const CellUnit unit{data, cells, dict, min_pts, ResolveEngine(dict, opts),
                      &result};
  TaskCounters total;
  const std::vector<double> seconds = RunTasks(
      pool, k,
      [&](size_t task, Phase2Scratch& scratch, TaskCounters& counters) {
        for (const SlotCell& c : visit[schedule[task]]) {
          unit.Run(c.cid, c.slot, scratch, counters);
        }
      },
      &total);
  SetCounters(total, unit.setup.level, &result);
  result.task_seconds.assign(k, 0.0);
  for (size_t task = 0; task < k; ++task) {
    result.task_seconds[schedule[task]] = seconds[task];
  }
  return result;
}

RecomputeSummary RecomputeCells(const Dataset& data, const CellSet& cells,
                                const CellDictionary& dict, size_t min_pts,
                                ThreadPool& pool, const Phase2Options& opts,
                                const std::vector<uint32_t>& touched,
                                Phase2Result* state) {
  RPDBSCAN_CHECK(opts.seed_point_core == nullptr)
      << "RecomputeCells seeds the prior's core flags itself";
  RPDBSCAN_CHECK(opts.core_cell_mask == nullptr)
      << "RecomputeCells reads every touched cell's gather";
  const size_t num_cells = cells.num_cells();
  const size_t prior_cells = state->subgraphs.cell_is_core.size();
  RPDBSCAN_CHECK(prior_cells <= num_cells &&
                 state->point_is_core.size() <= data.size())
      << "the prior holds more cells or points than the data";
  for (size_t i = 0; i < touched.size(); ++i) {
    RPDBSCAN_CHECK(touched[i] < num_cells &&
                   (i == 0 || touched[i - 1] < touched[i]))
        << "touched cells must be ascending, unique cell ids";
  }
  // Ascending, unique and below num_cells: the list holds every new id
  // iff its entry num_new from the end is the first new id.
  const size_t num_new = num_cells - prior_cells;
  RPDBSCAN_CHECK(num_new == 0 ||
                 (touched.size() >= num_new &&
                  touched[touched.size() - num_new] == prior_cells))
      << "cells " << prior_cells << " to " << num_cells - 1
      << " are new, but not all of them are touched";
  GrowToCells(data, cells, state);
  // Prior cores stay core under an append: the prior's flags seed every
  // unit this call runs (an empty prior has none to give).
  Phase2Options seeded = opts;
  if (prior_cells > 0) seeded.seed_point_core = state->point_is_core.data();
  const CellUnit unit{data, cells, dict, min_pts,
                      ResolveEngine(dict, seeded), state};
  TaskCounters total;

  // The touched cells re-run the unit, and each one's gather names the
  // untouched cells it reaches. A call touching every cell (a stream's
  // epoch 0) has none to name.
  const bool extend = touched.size() < num_cells;
  std::vector<std::vector<Reach>> reach_of(extend ? touched.size() : 0);
  RunChunked(
      pool, touched.size(),
      [&](size_t begin, size_t end, Phase2Scratch& scratch,
          TaskCounters& counters) {
        for (size_t i = begin; i < end; ++i) {
          const uint32_t t = touched[i];
          const uint32_t slot = unit.SlotOf(t);
          unit.Run(t, slot, scratch, counters);
          if (!extend) continue;
          auto name = [&](uint32_t cid, bool always) {
            if (!std::binary_search(touched.begin(), touched.end(), cid)) {
              reach_of[i].push_back({cid, t, slot, always});
            }
          };
          const CandidateCellList& cand = scratch.candidates;
          for (const uint32_t cid : cand.always_neighbors) name(cid, true);
          for (const uint32_t cid : cand.cell_ids) name(cid, false);
        }
      },
      &total);

  // Group the records by reached cell, so the one task that takes a
  // reached cell writes its flags and row: cell g's records are
  // reach[starts[g] .. starts[g + 1]).
  std::vector<Reach> reach;
  for (const std::vector<Reach>& r : reach_of) {
    reach.insert(reach.end(), r.begin(), r.end());
  }
  std::sort(reach.begin(), reach.end(), [](const Reach& a, const Reach& b) {
    return a.cell != b.cell ? a.cell < b.cell : a.touched < b.touched;
  });
  std::vector<size_t> starts;
  for (size_t i = 0; i < reach.size(); ++i) {
    if (i == 0 || reach[i].cell != reach[i - 1].cell) starts.push_back(i);
  }
  const size_t num_reached = starts.size();
  starts.push_back(reach.size());
  RunChunked(
      pool, num_reached,
      [&](size_t begin, size_t end, Phase2Scratch& scratch,
          TaskCounters& counters) {
        for (size_t g = begin; g < end; ++g) {
          const uint32_t cid = reach[starts[g]].cell;
          const PointIdSpan ids = cells.cell(cid).point_ids;
          if (std::all_of(ids.begin(), ids.end(), [&](uint32_t p) {
                return state->point_is_core[p] != 0;
              })) {
            ExtendRow(unit, cid,
                      std::span<const Reach>(reach).subspan(
                          starts[g], starts[g + 1] - starts[g]),
                      scratch, counters);
          } else {
            unit.Run(cid, unit.SlotOf(cid), scratch, counters);
          }
        }
      },
      &total);
  SetCounters(total, unit.setup.level, state);
  return RecomputeSummary{touched.size() + num_reached,
                          total.extended_cells, total.unit_points};
}

}  // namespace rpdbscan
