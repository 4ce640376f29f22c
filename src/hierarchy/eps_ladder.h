#ifndef RPDBSCAN_HIERARCHY_EPS_LADDER_H_
#define RPDBSCAN_HIERARCHY_EPS_LADDER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/rp_dbscan.h"
#include "io/dataset.h"
#include "util/status.h"

namespace rpdbscan {

/// Sentinel for a cluster with no containing cluster at the next level
/// (top-level clusters, and the defensive case of a cluster whose every
/// point is noise one level up).
inline constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

/// One rung of the eps ladder: a full clustering of the dataset at
/// (eps, min_pts), sharing Phase I and the cell dictionary with every
/// other rung.
struct HierarchyLevel {
  double eps = 0.0;
  size_t min_pts = 0;
  /// Per-point labels — bit-identical to an independent RunRpDbscan with
  /// query_eps = this level's eps over the same geometry.
  Labels labels;
  size_t num_clusters = 0;
  /// parent[c] is the cluster at the next (coarser) level containing
  /// cluster c, or kNoParent (always kNoParent on the last level). The
  /// per-level maps together form the hierarchy's forest.
  std::vector<uint32_t> parent;
  /// Points of this level's clusters whose next-level label disagrees
  /// with the cluster's parent. 0 under a monotone schedule (eps
  /// ascending, min_pts non-increasing): density-connectivity at eps_i
  /// implies it at eps_{i+1}, so clusters nest exactly.
  size_t containment_violations = 0;
  /// Level observables: whether this level's core marking was seeded from
  /// the previous level (core-set monotonicity), and the per-level phase
  /// wall times the sweep-vs-independent bench compares.
  bool seeded = false;
  size_t num_core_cells = 0;
  size_t num_noise_points = 0;
  double phase2_seconds = 0.0;
  double merge_seconds = 0.0;
  double label_seconds = 0.0;
  /// Frozen serving model of this level (HierarchyOptions::capture_models).
  std::shared_ptr<CapturedModel> model;
};

/// Knobs of the multi-eps sweep. They mirror RpDbscanOptions, so every
/// level runs the same engines an independent run would.
struct HierarchyOptions {
  /// Query radii of the rungs, strictly ascending; eps_levels[0] is also
  /// the cell-diagonal the shared grid is built at.
  std::vector<double> eps_levels;
  /// Density thresholds per rung: either one entry (broadcast to every
  /// level) or eps_levels.size() entries. Non-increasing thresholds keep
  /// the core-set monotone so each level seeds from the previous one;
  /// an increasing step just disables seeding for that level.
  std::vector<size_t> min_pts_levels;
  double rho = 0.01;
  size_t num_partitions = 0;
  size_t num_threads = 0;
  uint64_t seed = 7;
  bool sequential_merge = false;
  bool reduce_edges = true;
  /// Seed each level's core marking from the previous level's core set
  /// (skipped automatically when a level's min_pts rises). Off re-counts
  /// every point at every level — the ablation baseline.
  bool seed_from_previous = true;
  /// DBSCAN++-style sampled-core approximation: the fraction of cells
  /// that remain core candidates, chosen by a deterministic hash of the
  /// cell coordinate and core_sample_seed, so the same cells are sampled
  /// at every level (which keeps the core set monotone across levels).
  /// Points of unsampled cells can still be labeled as border points of
  /// sampled neighbors. >= 1 (the default) keeps the exact ladder.
  double sampled_core_fraction = 1.0;
  uint64_t core_sample_seed = 0x9e3779b97f4a7c15ull;
  /// Capture a CapturedModel per level for the serving layer.
  bool capture_models = false;
};

/// An OPTICS-like nested clustering: one labeling per eps rung plus the
/// parent maps linking each cluster to its container one level up.
struct ClusterHierarchy {
  std::vector<HierarchyLevel> levels;
  /// Shared-stage observables (paid once for the whole ladder — the
  /// sweep's economy over N independent runs).
  double phase1_seconds = 0.0;
  double dictionary_seconds = 0.0;
  double total_seconds = 0.0;
  size_t num_cells = 0;
  size_t dictionary_bytes = 0;

  /// Structural forest validation: every non-top level's parent entries
  /// are kNoParent or a valid next-level cluster id, and the top level's
  /// are all kNoParent (acyclicity is inherent — edges only point one
  /// level up). Returns false and fills `error` on the first violation.
  bool ValidateForest(std::string* error) const;
};

/// Runs the eps ladder: Phase I and the two-level dictionary once (the
/// dictionary's stencil family is enumerated out to the top rung's radius
/// so every level reuses the precomputed neighborhood CSR as a
/// class-filtered prefix), then Phase II/III per level with query_eps
/// decoupling, seeding each level's core marking from the one below.
StatusOr<ClusterHierarchy> BuildClusterHierarchy(
    const Dataset& data, const HierarchyOptions& options);

}  // namespace rpdbscan

#endif  // RPDBSCAN_HIERARCHY_EPS_LADDER_H_
