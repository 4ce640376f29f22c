#include "hierarchy/eps_ladder.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "core/labeling.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "parallel/thread_pool.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

Status ValidateOptions(const HierarchyOptions& opts) {
  if (opts.eps_levels.empty()) {
    return Status::InvalidArgument("eps_levels is empty");
  }
  for (size_t i = 0; i < opts.eps_levels.size(); ++i) {
    if (!(opts.eps_levels[i] > 0.0)) {
      return Status::InvalidArgument("eps_levels must be positive");
    }
    if (i > 0 && opts.eps_levels[i] <= opts.eps_levels[i - 1]) {
      return Status::InvalidArgument("eps_levels must be strictly ascending");
    }
  }
  if (opts.min_pts_levels.empty()) {
    return Status::InvalidArgument("min_pts_levels is empty");
  }
  if (opts.min_pts_levels.size() != 1 &&
      opts.min_pts_levels.size() != opts.eps_levels.size()) {
    return Status::InvalidArgument(
        "min_pts_levels must have one entry or one per eps level");
  }
  for (const size_t mp : opts.min_pts_levels) {
    if (mp == 0) return Status::InvalidArgument("min_pts must be >= 1");
  }
  if (!(opts.sampled_core_fraction > 0.0)) {
    return Status::InvalidArgument("sampled_core_fraction must be > 0");
  }
  return Status::OK();
}

/// parent[c] of each level-i cluster: the next-level cluster of its first
/// point that is non-noise one level up; every further such point votes,
/// and disagreements are counted (0 under a monotone schedule, where
/// density-connectivity at a rung implies it at every coarser rung).
void LinkLevels(HierarchyLevel& fine, const HierarchyLevel& coarse) {
  fine.parent.assign(fine.num_clusters, kNoParent);
  for (size_t p = 0; p < fine.labels.size(); ++p) {
    const int64_t lf = fine.labels[p];
    if (lf == kNoise) continue;
    const int64_t lc = coarse.labels[p];
    if (lc == kNoise) {
      // A clustered point cannot drop to noise under a monotone schedule;
      // count it against containment rather than crash on a non-monotone
      // one.
      ++fine.containment_violations;
      continue;
    }
    uint32_t& parent = fine.parent[static_cast<size_t>(lf)];
    if (parent == kNoParent) {
      parent = static_cast<uint32_t>(lc);
    } else if (parent != static_cast<uint32_t>(lc)) {
      ++fine.containment_violations;
    }
  }
}

}  // namespace

bool ClusterHierarchy::ValidateForest(std::string* error) const {
  for (size_t i = 0; i < levels.size(); ++i) {
    const HierarchyLevel& level = levels[i];
    if (level.parent.size() != level.num_clusters) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "level " << i << ": parent map has " << level.parent.size()
           << " entries for " << level.num_clusters << " clusters";
        *error = os.str();
      }
      return false;
    }
    const bool top = i + 1 == levels.size();
    for (size_t c = 0; c < level.parent.size(); ++c) {
      const uint32_t parent = level.parent[c];
      if (top && parent != kNoParent) {
        if (error != nullptr) {
          std::ostringstream os;
          os << "top level cluster " << c << " has parent " << parent;
          *error = os.str();
        }
        return false;
      }
      if (!top && parent != kNoParent &&
          parent >= levels[i + 1].num_clusters) {
        if (error != nullptr) {
          std::ostringstream os;
          os << "level " << i << " cluster " << c << ": parent " << parent
             << " out of range (next level has " << levels[i + 1].num_clusters
             << " clusters)";
          *error = os.str();
        }
        return false;
      }
    }
  }
  return true;
}

StatusOr<ClusterHierarchy> BuildClusterHierarchy(
    const Dataset& data, const HierarchyOptions& options) {
  RPDBSCAN_RETURN_IF_ERROR(ValidateOptions(options));
  if (data.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  const size_t num_levels = options.eps_levels.size();
  const double eps0 = options.eps_levels.front();
  auto min_pts_of = [&](size_t level) {
    return options.min_pts_levels.size() == 1 ? options.min_pts_levels[0]
                                              : options.min_pts_levels[level];
  };

  auto geom_or = GridGeometry::Create(data.dim(), eps0, options.rho);
  if (!geom_or.ok()) return geom_or.status();
  const GridGeometry geom = *geom_or;

  size_t num_threads = options.num_threads;
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  size_t num_partitions = options.num_partitions;
  if (num_partitions == 0) num_partitions = num_threads * 4;
  ThreadPool pool(num_threads);

  ClusterHierarchy hierarchy;
  Stopwatch total;

  // ---- Shared Phase I-1: one grid, one cell set for every rung. ----
  Stopwatch phase_watch;
  auto cells_or =
      CellSet::Build(data, geom, num_partitions, options.seed, &pool);
  if (!cells_or.ok()) return cells_or.status();
  const CellSet& cells = *cells_or;
  hierarchy.phase1_seconds = phase_watch.ElapsedSeconds();
  hierarchy.num_cells = cells.num_cells();

  // ---- Shared Phase I-2: one dictionary whose stencil family reaches the
  // top rung's radius, so every level's candidate enumeration reuses the
  // precomputed neighborhood CSR as a class-filtered prefix. The scale is
  // computed with the same division Phase II derives each level's budget
  // with, so the top level compares against exactly its own budget. ----
  phase_watch.Reset();
  CellDictionaryOptions dict_opts;
  dict_opts.stencil_eps_scale = options.eps_levels.back() / eps0;
  auto dict_or = CellDictionary::Build(data, cells, dict_opts, &pool);
  if (!dict_or.ok()) return dict_or.status();
  hierarchy.dictionary_seconds = phase_watch.ElapsedSeconds();
  const CellDictionary& dict = *dict_or;
  hierarchy.dictionary_bytes = dict.SizeBytesLemma43();

  // Sampled-core mask, hashed from cell coordinates so the same cells are
  // kept at every rung — which is what keeps the core set monotone across
  // levels under sampling.
  std::vector<uint8_t> core_mask;
  if (options.sampled_core_fraction < 1.0) {
    const uint64_t threshold = static_cast<uint64_t>(
        options.sampled_core_fraction * 18446744073709551616.0);
    core_mask.resize(cells.num_cells());
    for (uint32_t cid = 0; cid < cells.num_cells(); ++cid) {
      const uint64_t h =
          Mix64(cells.cell(cid).coord.hash() ^ options.core_sample_seed);
      core_mask[cid] = h < threshold ? 1 : 0;
    }
  }

  // ---- Per rung: Phase II seeded from the rung below, Phase III. ----
  hierarchy.levels.resize(num_levels);
  std::vector<uint8_t> prev_core;  // previous rung's per-point core flags
  size_t prev_min_pts = 0;
  for (size_t i = 0; i < num_levels; ++i) {
    HierarchyLevel& level = hierarchy.levels[i];
    level.eps = options.eps_levels[i];
    level.min_pts = min_pts_of(i);

    Phase2Options phase2_opts;
    phase2_opts.query_eps = level.eps;
    if (!core_mask.empty()) phase2_opts.core_cell_mask = core_mask.data();
    // Core-set monotonicity: a point core at (eps_{i-1}, min_pts_{i-1})
    // has >= min_pts_{i-1} neighbors within eps_{i-1} <= eps_i, so it is
    // core at (eps_i, min_pts_i) whenever min_pts_i <= min_pts_{i-1}.
    level.seeded = options.seed_from_previous && i > 0 &&
                   level.min_pts <= prev_min_pts;
    if (level.seeded) phase2_opts.seed_point_core = prev_core.data();

    Stopwatch level_watch;
    Phase2Result phase2 =
        BuildSubgraphs(data, cells, dict, level.min_pts, pool, phase2_opts);
    level.phase2_seconds = level_watch.ElapsedSeconds();
    for (const uint8_t c : phase2.subgraphs.cell_is_core) {
      level.num_core_cells += c;
    }

    level_watch.Reset();
    MergeOptions merge_opts;
    merge_opts.reduce_edges = options.reduce_edges;
    merge_opts.pool = &pool;
    merge_opts.parallel_unions = !options.sequential_merge;
    MergeResult merged =
        MergeSubgraphs(phase2.subgraphs, cells.num_cells(), merge_opts);
    level.merge_seconds = level_watch.ElapsedSeconds();
    level.num_clusters = merged.num_clusters;

    level_watch.Reset();
    level.labels = LabelPoints(data, cells, merged, phase2.point_is_core,
                               pool, level.eps);
    level.label_seconds = level_watch.ElapsedSeconds();
    for (const int64_t l : level.labels) {
      if (l == kNoise) ++level.num_noise_points;
    }

    if (options.capture_models) {
      // Each captured model owns its dictionary; CellDictionary's spatial
      // indexes hold internal pointers, so clone through the wire codec
      // rather than a shallow copy of the shared instance. Rebuild at the
      // *level's* stencil scale — the same query_eps / eps division the
      // snapshot loader applies — so the frozen engine metadata matches a
      // load-time rebuild exactly.
      CellDictionaryOptions level_dict_opts = dict_opts;
      level_dict_opts.stencil_eps_scale = level.eps / eps0;
      auto own_dict = CellDictionary::Deserialize(dict.Serialize(),
                                                  level_dict_opts, &pool);
      if (!own_dict.ok()) {
        return Status::Internal("dictionary clone failed: " +
                                own_dict.status().message());
      }
      level.model = std::make_shared<CapturedModel>(BuildCapturedModel(
          data, cells, std::move(merged), phase2.point_is_core,
          std::move(*own_dict), level.min_pts, level.eps));
    }
    prev_core = std::move(phase2.point_is_core);
    prev_min_pts = level.min_pts;
  }

  // ---- Lineage: link each rung's clusters to their containers. ----
  for (size_t i = 0; i + 1 < num_levels; ++i) {
    LinkLevels(hierarchy.levels[i], hierarchy.levels[i + 1]);
  }
  hierarchy.levels.back().parent.assign(
      hierarchy.levels.back().num_clusters, kNoParent);

  hierarchy.total_seconds = total.ElapsedSeconds();
  return hierarchy;
}

}  // namespace rpdbscan
