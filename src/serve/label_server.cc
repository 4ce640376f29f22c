#include "serve/label_server.h"

#include <array>
#include <cstring>
#include <thread>

#include "core/cell_coord.h"
#include "core/cell_dictionary.h"
#include "core/grid.h"
#include "core/merge.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_sort.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

/// Staged stencil probes per prefetch flush: enough to overlap the
/// (almost always single-slot) random index loads, small enough to live
/// on the stack.
constexpr size_t kProbeBatch = 16;

/// Per-worker sample capacity of the batch latency reservoirs — above
/// every batch this repository times, so percentiles are exact (see
/// LatencyReservoir).
constexpr size_t kLatencyCapacity = size_t{1} << 16;

/// Groups handed out per claimant pull on the grouped path. Groups are
/// small (a handful of queries each), so a coarser chunk keeps the
/// cursor cold without unbalancing the tail.
constexpr size_t kGroupChunk = 16;

/// A batch's claimant tasks are capped at the core count: the serving
/// path is CPU-bound and wait-free, so claimants beyond it cannot add
/// throughput, they only time-slice one another. Results never depend on
/// the claimant count. 0 (no cap) when the core count is unknown.
size_t MaxClaimants() {
  return static_cast<size_t>(std::thread::hardware_concurrency());
}

/// Deterministic "nearest cluster-labeled cell" tracker: lexicographic
/// min of (box min-distance, cell id), so every candidate enumeration
/// order — per-query staged probing, grouped neighborhood walks, tree
/// descent — picks the same cell.
struct BestCell {
  double min2 = 0;
  uint32_t cell_id = 0;
  bool found = false;

  void Offer(double m2, uint32_t cid) {
    if (!found || m2 < min2 || (m2 == min2 && cid < cell_id)) {
      min2 = m2;
      cell_id = cid;
      found = true;
    }
  }
};

/// One worker's stats slot, padded to its own cache line so adjacent
/// workers of a batch never write-share a line.
struct alignas(64) PaddedStats {
  ServeStats s;
};

/// Per-worker scratch of the grouped batch path, reused across every
/// group the worker pulls — buffers only ever grow, so steady-state
/// classification performs no allocation per query or per group.
struct ServeArena {
  std::vector<float> q;         // gathered group coordinates, nq * dim
  std::vector<float> qt;        // the same, transposed dim-major at the
                                // lane stride (GroupBoundsFn's layout)
  std::vector<uint32_t> qi;     // original query indices of the group
  std::vector<uint64_t> density;
  std::vector<BestCell> best;
  std::vector<double> min2;     // per-member bounds to the current
  std::vector<double> max2;     // neighbor box (GroupBoundsFn output)
  std::vector<uint32_t> kidx;   // members routed to the lane kernel
  std::vector<uint32_t> kout;   // lane-kernel results for kidx
  std::vector<float> bbox_lo;   // group bounding box, dim per side
  std::vector<float> bbox_hi;
};

/// The label-resolution tail shared by the per-query and grouped paths:
/// turns a query's density and best labeled cell into the final
/// {cluster, kind, certainty}, replaying the training border walk for
/// non-core home cells. `*ref_scans` accumulates the stored core-point
/// distance evaluations spent in that walk.
ServeResult ResolveLabel(const ClusterModelSnapshot& snap,
                         const LabelServerOptions& opts, const float* q,
                         size_t dim, double eps2, uint64_t density,
                         const BestCell& best, bool home_hit,
                         uint32_t home_cell_id, uint64_t* ref_scans) {
  const std::vector<uint32_t>& cell_cluster = snap.cell_cluster();
  ServeResult result;
  result.density = density;

  if (home_hit && cell_cluster[home_cell_id] != kNoCluster) {
    // Core home cell: every point of the cell belongs to its cluster
    // (Lemma 3.4) — the training labels of this cell, replayed.
    result.cluster = static_cast<int64_t>(cell_cluster[home_cell_id]);
    result.certainty = Certainty::kExact;
  } else if (home_hit && opts.exact_border && snap.has_border_refs()) {
    // Non-core home cell: replay the training border walk — predecessor
    // cells in labeling order, their stored core points in point-id
    // order, first within eps wins. Identical to LabelPoints, so a
    // training point gets exactly its training label (noise included).
    size_t num_preds = 0;
    const uint32_t* preds = snap.PredsOf(home_cell_id, &num_preds);
    for (size_t i = 0; i < num_preds && result.cluster == kNoise; ++i) {
      size_t num_refs = 0;
      const float* coords = snap.RefCoordsOf(preds[i], &num_refs);
      for (size_t j = 0; j < num_refs; ++j) {
        ++*ref_scans;
        if (DistanceSquared(q, coords + j * dim, dim) <= eps2) {
          result.cluster = static_cast<int64_t>(cell_cluster[preds[i]]);
          break;
        }
      }
    }
    result.certainty = Certainty::kExact;
  } else if (best.found) {
    // Sandwich-approximate: nearest cluster-labeled cell within eps
    // (Theorem 5.4's rho-approximate containment bound), for a non-core
    // home cell not replayed above and for a query outside every cell.
    result.cluster = static_cast<int64_t>(cell_cluster[best.cell_id]);
    result.certainty = Certainty::kApprox;
  } else {
    result.cluster = kNoise;
    result.certainty = Certainty::kApprox;
  }

  result.kind = density >= snap.meta().min_pts
                    ? PointKind::kCore
                    : (result.cluster != kNoise ? PointKind::kBorder
                                                : PointKind::kNoise);
  // A dense query in a non-core (or absent) cell would, as a training
  // point, have changed the clustering itself — the frozen model can only
  // answer approximately. Never triggers for training points: a cell
  // containing a core point is a core cell.
  if (result.kind == PointKind::kCore &&
      !(home_hit && cell_cluster[home_cell_id] != kNoCluster)) {
    result.certainty = Certainty::kApprox;
  }
  return result;
}

/// The semantic counter updates every path records per resolved query.
void RecordResult(ServeStats* stats, const ServeResult& result,
                  bool home_hit) {
  ++stats->queries;
  if (home_hit) ++stats->cell_hits;
  if (result.certainty == Certainty::kExact) ++stats->exact;
  switch (result.kind) {
    case PointKind::kCore:
      ++stats->core;
      break;
    case PointKind::kBorder:
      ++stats->border;
      break;
    case PointKind::kNoise:
      ++stats->noise;
      break;
  }
}

}  // namespace

std::string ServeStatsToJson(const ServeStats& stats, double seconds,
                             size_t threads, const LatencySummary* latency) {
  JsonWriter w;
  w.BeginObject();
  w.Key("queries").Value(stats.queries);
  w.Key("threads").Value(threads);
  w.Key("seconds").Value(seconds);
  w.Key("queries_per_second")
      .Value(seconds > 0 ? static_cast<double>(stats.queries) / seconds : 0.0);
  w.Key("cell_hits").Value(stats.cell_hits);
  w.Key("exact").Value(stats.exact);
  w.Key("core").Value(stats.core);
  w.Key("border").Value(stats.border);
  w.Key("noise").Value(stats.noise);
  w.Key("stencil_probes").Value(stats.stencil_probes);
  w.Key("stencil_hits").Value(stats.stencil_hits);
  w.Key("border_ref_scans").Value(stats.border_ref_scans);
  if (latency != nullptr) {
    w.Key("latency_samples").Value(latency->samples);
    w.Key("latency_p50_us").Value(latency->p50_us);
    w.Key("latency_p99_us").Value(latency->p99_us);
    w.Key("latency_p999_us").Value(latency->p999_us);
    w.Key("latency_max_us").Value(latency->max_us);
  }
  w.EndObject();
  return w.TakeString();
}

LabelServer::LabelServer(
    std::shared_ptr<const ClusterModelSnapshot> snapshot,
    const LabelServerOptions& opts)
    : snapshot_(std::move(snapshot)), opts_(opts) {
  const SimdLevel level =
      opts_.scalar_kernels ? SimdLevel::kScalar : DetectSimdLevel();
  const size_t dim = snapshot_->dictionary().geom().dim();
  count_fn_ = GetSubcellCountFn(level, dim);
  multi_fn_ = GetSubcellCountMultiFn(level, dim);
  bounds_fn_ = GetGroupBoundsFn(level);
}

ServeResult LabelServer::Classify(const float* q, ServeStats* stats) const {
  const ClusterModelSnapshot& snap = *snapshot_;
  const CellDictionary& dict = snap.dictionary();
  const GridGeometry& geom = dict.geom();
  const size_t dim = geom.dim();
  // The run's effective query radius (== geom eps for coupled runs; the
  // rung radius for eps-ladder snapshots, whose stencil was rebuilt with
  // matching headroom at load).
  const double qeps = snap.meta().query_eps;
  const double eps2 = qeps * qeps;
  const double side = geom.cell_side();
  const std::vector<uint32_t>& cell_cluster = snap.cell_cluster();
  const std::vector<GlobalCellRef>& refs = dict.cell_refs();

  const CellCoord home = geom.CellOf(q);
  const int64_t home_idx = dict.FindCellRefIndex(home);
  const bool home_hit = home_idx >= 0;
  const uint32_t home_cell_id =
      home_hit ? refs[static_cast<size_t>(home_idx)].cell_id : 0;

  uint64_t density = 0;
  BestCell best;
  uint64_t probes = 0;
  uint64_t hits = 0;

  /// Density of a dictionary cell's (eps, rho)-matched sub-cells for q —
  /// the exact arithmetic of CellDictionary::Query: whole-cell containment
  /// fast path via CellMaxDist2, else the lane kernel over the cell's SoA
  /// block (bit-identical to the per-sub-cell center scan, core/simd.h).
  auto matched_count = [&](const CellCoord& coord,
                           const GlobalCellRef& ref) -> uint32_t {
    if (geom.CellMaxDist2(coord, q) <= eps2) return ref.total_count;
    const SubDictionary& sd = dict.subdictionaries()[ref.subdict];
    return count_fn_(q, sd.lane_centers(ref.local_cell),
                     sd.lane_counts(ref.local_cell),
                     sd.lane_padded(ref.local_cell), dim, eps2);
  };

  if (dict.has_stencil()) {
    // Home cell first (the zero offset is excluded from the stencil).
    ++probes;
    if (home_hit) {
      ++hits;
      const uint32_t matched =
          matched_count(home, refs[static_cast<size_t>(home_idx)]);
      if (matched > 0) {
        density += matched;
        if (cell_cluster[home_cell_id] != kNoCluster) {
          best.Offer(0.0, home_cell_id);
        }
      }
    }

    const LatticeStencil& stencil = dict.stencil();
    const size_t num_offsets = stencil.num_offsets();
    const int32_t* ref_coords = dict.ref_coords().data();

    std::array<CellCoord, kProbeBatch> staged;
    std::array<double, kProbeBatch> staged_min2;
    size_t nstaged = 0;

    auto flush = [&] {
      for (size_t i = 0; i < nstaged; ++i) {
        dict.cell_index().PrefetchHashed(staged[i].hash());
      }
      for (size_t i = 0; i < nstaged; ++i) {
        ++probes;
        const int64_t idx = dict.cell_index().FindHashed(
            staged[i].hash(), staged[i].data(), dim, ref_coords);
        if (idx < 0) continue;
        ++hits;
        const GlobalCellRef& ref = refs[static_cast<size_t>(idx)];
        const uint32_t matched = matched_count(staged[i], ref);
        if (matched > 0) {
          density += matched;
          if (cell_cluster[ref.cell_id] != kNoCluster) {
            best.Offer(staged_min2[i], ref.cell_id);
          }
        }
      }
      nstaged = 0;
    };

    int32_t oc[CellCoord::kMaxDim];
    for (size_t o = 0; o < num_offsets; ++o) {
      const int32_t* off = stencil.offset(o);
      // Box min-distance of the offset cell to q, computed inline with
      // GridGeometry::CellMinDist2's exact per-dimension arithmetic so
      // the pre-drop (and the best-cell key) match the tree engine
      // bit-for-bit — but without materializing (and hashing) a
      // CellCoord for offsets that cannot intersect the query ball. An
      // offset that leaves the int32 lattice holds no cell: it is
      // skipped, never wrapped onto the far edge.
      double min2 = 0.0;
      bool on_lattice = true;
      for (size_t d = 0; d < dim; ++d) {
        const int64_t c = static_cast<int64_t>(home[d]) + off[d];
        oc[d] = static_cast<int32_t>(c);
        on_lattice &= oc[d] == c;
        const double lo = static_cast<double>(c) * side;
        const double hi = lo + side;
        const double v = q[d];
        double delta = 0.0;
        if (v < lo) {
          delta = lo - v;
        } else if (v > hi) {
          delta = v - hi;
        }
        min2 += delta * delta;
      }
      if (!on_lattice || min2 > eps2) continue;
      staged[nstaged] = CellCoord(oc, dim);
      staged_min2[nstaged] = min2;
      if (++nstaged == kProbeBatch) flush();
    }
    flush();
  } else {
    // High-dimensionality fallback: per-sub-dictionary tree descent.
    // Query() visits exactly the cells with a matched sub-cell, with the
    // same matched arithmetic — density and best-cell tracking are
    // engine-independent.
    dict.Query(
        q,
        [&](const DictCell& cell, uint32_t matched) {
          density += matched;
          if (cell_cluster[cell.cell_id] != kNoCluster) {
            best.Offer(geom.CellMinDist2(cell.coord, q), cell.cell_id);
          }
        },
        qeps);
  }

  uint64_t ref_scans = 0;
  const ServeResult result = ResolveLabel(snap, opts_, q, dim, eps2, density,
                                          best, home_hit, home_cell_id,
                                          &ref_scans);
  if (stats != nullptr) {
    RecordResult(stats, result, home_hit);
    stats->stencil_probes += probes;
    stats->stencil_hits += hits;
    stats->border_ref_scans += ref_scans;
  }
  return result;
}

Status LabelServer::ClassifyPerQuery(const Dataset& queries, ThreadPool& pool,
                                     std::vector<ServeResult>* out,
                                     ServeStats* stats,
                                     LatencyReservoir* latency) const {
  out->assign(queries.size(), ServeResult());
  const size_t num_workers = pool.num_threads() > 0 ? pool.num_threads() : 1;
  std::vector<PaddedStats> worker_stats(num_workers);
  std::vector<LatencyReservoir> worker_latency;
  if (latency != nullptr) {
    worker_latency.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      worker_latency.emplace_back(kLatencyCapacity, w + 1);
    }
  }
  const Stopwatch watch;  // the batch's admission instant
  ParallelForWorkers(
      pool, queries.size(),
      [&](size_t worker, size_t i) {
        (*out)[i] = Classify(queries.point(i),
                             stats != nullptr ? &worker_stats[worker].s
                                              : nullptr);
        if (latency != nullptr) {
          worker_latency[worker].Add(
              static_cast<uint64_t>(watch.ElapsedNanos()));
        }
      },
      /*chunk=*/256, MaxClaimants());
  if (stats != nullptr) {
    for (const PaddedStats& ws : worker_stats) stats->Merge(ws.s);
  }
  if (latency != nullptr) {
    for (const LatencyReservoir& wl : worker_latency) latency->Merge(wl);
  }
  return Status::OK();
}

Status LabelServer::ClassifyGrouped(const Dataset& queries, ThreadPool& pool,
                                    std::vector<ServeResult>* out,
                                    ServeStats* stats,
                                    LatencyReservoir* latency) const {
  const ClusterModelSnapshot& snap = *snapshot_;
  const CellDictionary& dict = snap.dictionary();
  const GridGeometry& geom = dict.geom();
  const size_t dim = geom.dim();
  // The run's effective query radius (== geom eps for coupled runs; the
  // rung radius for eps-ladder snapshots, whose stencil was rebuilt with
  // matching headroom at load).
  const double qeps = snap.meta().query_eps;
  const double eps2 = qeps * qeps;
  const double side = geom.cell_side();
  const std::vector<uint32_t>& cell_cluster = snap.cell_cluster();
  const std::vector<GlobalCellRef>& refs = dict.cell_refs();
  const int32_t* ref_coords = dict.ref_coords().data();
  const size_t n = queries.size();
  const size_t num_slots = refs.size();
  const size_t max_claimants = MaxClaimants();

  out->assign(n, ServeResult());
  const Stopwatch watch;  // the batch's admission instant

  // Stage 1 — grouping keys: one home-cell hash probe per query. Hits
  // key on the home cell's global slot; misses get a unique key past the
  // slot range, so each forms a singleton group handled by the per-query
  // path. Packed (key << 32) | index so one radix sort over the key
  // bytes yields groups with members in ascending query order — a pure
  // function of the query set, never of the thread count.
  std::vector<uint64_t> order(n);
  ParallelForWorkers(
      pool, n,
      [&](size_t, size_t i) {
        const CellCoord home = geom.CellOf(queries.point(i));
        const int64_t slot = dict.FindCellRefIndex(home);
        const uint64_t key = slot >= 0 ? static_cast<uint64_t>(slot)
                                       : num_slots + i;
        order[i] = (key << 32) | static_cast<uint64_t>(i);
      },
      /*chunk=*/1024, max_claimants);

  // Stage 2 — sort by key (stable over the 4 key bytes: ties keep the
  // packed index order) and scan out group boundaries.
  std::vector<uint64_t> sort_scratch;
  ParallelRadixSort(
      order, sort_scratch, 4,
      [](uint64_t v, unsigned b) {
        return static_cast<uint8_t>(v >> (32 + 8 * b));
      },
      max_claimants > 1 ? &pool : nullptr);
  std::vector<uint32_t> group_begin;
  group_begin.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || (order[i] >> 32) != (order[i - 1] >> 32)) {
      group_begin.push_back(static_cast<uint32_t>(i));
    }
  }
  group_begin.push_back(static_cast<uint32_t>(n));
  const size_t num_groups = group_begin.size() - 1;

  // Stage 3 — classify group by group: gather the group's coordinates
  // into the worker's arena, walk the home cell's precomputed stencil
  // neighborhood ONCE, and classify the whole group against each
  // neighbor — containment fast path per member, one multi-query lane
  // kernel invocation for the rest. Enumerating the neighborhood CSR
  // instead of staged hash probes is exact: a present cell the per-query
  // pre-drop would skip (box min2 > eps2) can contain no matched
  // sub-cell, density is an order-free integer sum, and BestCell::Offer
  // is enumeration-order independent — so per-member results are
  // bit-identical to Classify.
  const size_t num_workers = pool.num_threads() > 0 ? pool.num_threads() : 1;
  std::vector<PaddedStats> worker_stats(num_workers);
  std::vector<ServeArena> arenas(num_workers);
  std::vector<LatencyReservoir> worker_latency;
  if (latency != nullptr) {
    worker_latency.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      worker_latency.emplace_back(kLatencyCapacity, w + 1);
    }
  }

  ParallelForWorkers(
      pool, num_groups,
      [&](size_t worker, size_t g) {
        const size_t gb = group_begin[g];
        const size_t ge = group_begin[g + 1];
        const size_t nq = ge - gb;
        const uint64_t key = order[gb] >> 32;
        ServeStats* st = stats != nullptr ? &worker_stats[worker].s : nullptr;

        if (key >= num_slots) {
          // Home-cell miss: a singleton group on the per-query path.
          const uint32_t qi = static_cast<uint32_t>(order[gb]);
          (*out)[qi] = Classify(queries.point(qi), st);
        } else {
          ServeArena& a = arenas[worker];
          // Lane stride for the transposed layout; the padded tail of qt
          // always holds finite floats (stale members or resize zeros),
          // so the bounds kernel's tail lanes compute finite garbage
          // that the routing loop below never reads.
          const size_t stride =
              (nq + kSimdLaneWidth - 1) & ~size_t{kSimdLaneWidth - 1};
          a.q.resize(nq * dim);
          a.qt.resize(stride * dim);
          a.qi.resize(nq);
          a.density.assign(nq, 0);
          a.best.assign(nq, BestCell());
          a.min2.resize(stride);
          a.max2.resize(stride);
          a.kidx.resize(nq);
          a.kout.resize(nq);
          a.bbox_lo.resize(dim);
          a.bbox_hi.resize(dim);
          for (size_t k = 0; k < nq; ++k) {
            const uint32_t qi = static_cast<uint32_t>(order[gb + k]);
            a.qi[k] = qi;
            const float* src = queries.point(qi);
            std::memcpy(a.q.data() + k * dim, src, dim * sizeof(float));
            for (size_t d = 0; d < dim; ++d) {
              a.qt[d * stride + k] = src[d];
              if (k == 0 || src[d] < a.bbox_lo[d]) a.bbox_lo[d] = src[d];
              if (k == 0 || src[d] > a.bbox_hi[d]) a.bbox_hi[d] = src[d];
            }
          }

          double lo[CellCoord::kMaxDim];
          double hi[CellCoord::kMaxDim];
          size_t nbr_count = 0;
          const uint32_t* nbr = dict.StencilNeighborsOf(
              static_cast<size_t>(key), &nbr_count);
          for (size_t j = 0; j < nbr_count; ++j) {
            const uint32_t slot = nbr[j];
            const GlobalCellRef& ref = refs[slot];
            const int32_t* coord =
                ref_coords + static_cast<size_t>(slot) * dim;
            // The neighbor's box bounds, hoisted out of the member loop —
            // CellMinDist2/CellMaxDist2's exact arithmetic, computed once.
            for (size_t d = 0; d < dim; ++d) {
              lo[d] = static_cast<double>(coord[d]) * side;
              hi[d] = lo[d] + side;
            }
            if (j != 0) {
              // Whole-group pre-drop: every member lies inside the group
              // bounding box, so each member's box min-distance is at
              // least the box-to-box distance. Above eps2, every member
              // would pre-drop individually — identical results, one
              // test instead of nq.
              double gmin2 = 0.0;
              for (size_t d = 0; d < dim; ++d) {
                const double glo = static_cast<double>(a.bbox_lo[d]);
                const double ghi = static_cast<double>(a.bbox_hi[d]);
                double delta = 0.0;
                if (ghi < lo[d]) {
                  delta = lo[d] - ghi;
                } else if (glo > hi[d]) {
                  delta = glo - hi[d];
                }
                gmin2 += delta * delta;
              }
              if (gmin2 > eps2) continue;
            }
            // One bounds-kernel pass per neighbor: every member's box
            // min-distance (the pre-drop and the best-cell key) and box
            // max-distance (the whole-cell containment fast path), four
            // members per vector lane, with the training arithmetic.
            bounds_fn_(a.qt.data(), stride, nq, lo, hi, dim,
                       a.min2.data(), a.max2.data());
            const bool labeled = cell_cluster[ref.cell_id] != kNoCluster;
            size_t nk = 0;
            for (size_t k = 0; k < nq; ++k) {
              // j == 0 is the home cell itself: Classify keys its Offer
              // at 0.0 unconditionally, so the member min2 is pinned to
              // zero there.
              double min2 = a.min2[k];
              if (j == 0) {
                min2 = 0.0;
              } else if (min2 > eps2) {
                // Provably disjoint from this member's query ball: no
                // sub-cell center of the box can match.
                continue;
              }
              if (a.max2[k] <= eps2) {
                // Whole cell inside the member's ball: every sub-cell
                // center matches, no kernel needed.
                a.density[k] += ref.total_count;
                if (labeled) a.best[k].Offer(min2, ref.cell_id);
                continue;
              }
              a.min2[k] = min2;
              a.kidx[nk++] = static_cast<uint32_t>(k);
            }
            if (nk > 0) {
              const SubDictionary& sd = dict.subdictionaries()[ref.subdict];
              multi_fn_(a.q.data(), a.kidx.data(), nk,
                        sd.lane_centers(ref.local_cell),
                        sd.lane_counts(ref.local_cell),
                        sd.lane_padded(ref.local_cell), dim, eps2,
                        a.kout.data());
              for (size_t t = 0; t < nk; ++t) {
                const uint32_t m = a.kout[t];
                if (m == 0) continue;
                const size_t k = a.kidx[t];
                a.density[k] += m;
                if (labeled) a.best[k].Offer(a.min2[k], ref.cell_id);
              }
            }
          }

          const uint32_t home_cell_id = refs[static_cast<size_t>(key)].cell_id;
          for (size_t k = 0; k < nq; ++k) {
            uint64_t ref_scans = 0;
            const ServeResult r = ResolveLabel(
                snap, opts_, a.q.data() + k * dim, dim, eps2, a.density[k],
                a.best[k], /*home_hit=*/true, home_cell_id, &ref_scans);
            (*out)[a.qi[k]] = r;
            if (st != nullptr) {
              RecordResult(st, r, /*home_hit=*/true);
              st->border_ref_scans += ref_scans;
            }
          }
          if (st != nullptr) {
            // Grouped accounting: one neighborhood walk per group (every
            // entry a present cell), regardless of the group's size.
            st->stencil_probes += nbr_count;
            st->stencil_hits += nbr_count;
          }
        }

        if (latency != nullptr) {
          // One monotonic stamp per group; every member completed at it.
          const uint64_t now = static_cast<uint64_t>(watch.ElapsedNanos());
          for (size_t k = 0; k < nq; ++k) worker_latency[worker].Add(now);
        }
      },
      kGroupChunk, max_claimants);

  if (stats != nullptr) {
    for (const PaddedStats& ws : worker_stats) stats->Merge(ws.s);
  }
  if (latency != nullptr) {
    for (const LatencyReservoir& wl : worker_latency) latency->Merge(wl);
  }
  return Status::OK();
}

Status LabelServer::CheckQueries(const Dataset& queries) const {
  const size_t dim = snapshot_->meta().dim;
  if (queries.dim() != dim) {
    return Status::InvalidArgument(
        "serve batch: query dimensionality " +
        std::to_string(queries.dim()) + " does not match the snapshot's " +
        std::to_string(dim));
  }
  // Binning a NaN, an infinity or a coordinate beyond the int32 cell
  // lattice is undefined; reject the batch, naming the query.
  const Status binnable = snapshot_->dictionary().geom().CheckBinnable(
      queries.raw(), queries.size(), 0);
  if (!binnable.ok()) {
    return Status::InvalidArgument("serve batch: query " +
                                   binnable.message());
  }
  return Status::OK();
}

Status LabelServer::ClassifyBatch(const Dataset& queries, ThreadPool& pool,
                                  std::vector<ServeResult>* out,
                                  ServeStats* stats,
                                  LatencyReservoir* latency) const {
  RPDBSCAN_RETURN_IF_ERROR(CheckQueries(queries));
  // The grouped path needs the precomputed stencil neighborhoods and
  // 32-bit (slot | index) keys; without either, the per-query loop is the
  // only path (bit-identical results either way).
  const size_t num_slots = snapshot_->dictionary().cell_refs().size();
  if (!snapshot_->dictionary().has_stencil() ||
      num_slots + queries.size() > uint64_t{0xFFFFFFFF}) {
    return ClassifyPerQuery(queries, pool, out, stats, latency);
  }
  return ClassifyGrouped(queries, pool, out, stats, latency);
}

}  // namespace rpdbscan
