#ifndef RPDBSCAN_CORE_RP_DBSCAN_H_
#define RPDBSCAN_CORE_RP_DBSCAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/merge.h"
#include "io/dataset.h"
#include "util/status.h"
#include "verify/audit.h"

namespace rpdbscan {

/// Parameters of RP-DBSCAN (Alg. 1 inputs plus engine knobs). The
/// engines themselves follow from the input: Phase I-1 groups by sorted
/// cell keys unless a key needs more than 128 bits (then by hashing), and
/// Phase II walks the lattice stencil unless the dimensionality makes it
/// too large (d >= 6, then kd-tree descent).
struct RpDbscanOptions {
  /// DBSCAN neighborhood radius (also the cell diagonal, Def. 3.1).
  double eps = 0.0;
  /// DBSCAN density threshold. The paper fixes 100 in its evaluation.
  size_t min_pts = 100;
  /// Approximation rate of the two-level dictionary (Def. 4.1). The
  /// paper's default 0.01 yields clustering identical to exact DBSCAN on
  /// its accuracy sets (Table 4).
  double rho = 0.01;
  /// Number of pseudo random partitions (the paper's k). 0 = auto: four
  /// per worker thread.
  size_t num_partitions = 0;
  /// Worker threads standing in for cluster executors. 0 = hardware
  /// concurrency.
  size_t num_threads = 0;
  /// Seed for the partition assignment.
  uint64_t seed = 7;

  /// Use the sequential tournament merge (Sec. 6.1.1) instead of the
  /// edge-parallel lock-free union-find path. Labels and cluster ids are
  /// bit-identical either way; flip this on to study the per-round edge
  /// series (Fig. 17) or to ablate the parallel merge.
  bool sequential_merge = false;

  /// Cells per sub-dictionary before Phase I-2 splits a fragment.
  size_t max_cells_per_subdict = 2048;
  /// Spanning-forest full-edge reduction during merging (Sec. 6.1.4).
  bool reduce_edges = true;

  /// Invariant auditing between phases (src/verify/audit.h): kOff runs no
  /// checks, kCheap structural scans, kFull per-point recomputation. Any
  /// violated invariant fails the run with an Internal status naming the
  /// stage and the first violations; check counts land in RunStats.
  AuditLevel audit_level = AuditLevel::kOff;

  /// Capture the frozen clustering model (dictionary, cell-cluster table,
  /// border references) on the result for the serving layer (src/serve/);
  /// see CapturedModel. Costs one pass over the cells plus copies of the
  /// referenced core points — nothing on the clustering hot path.
  bool capture_model = false;

  // --- out-of-core execution ---

  /// When set, Phase I-1 runs the out-of-core external-sort build
  /// (CellSet::BuildExternal) over this source instead of the in-RAM
  /// build over `data`. The source must describe the same points as the
  /// `data` argument (which is then typically its BorrowedView); labels
  /// are bit-identical either way. Borrowed, not owned.
  const PointSource* point_source = nullptr;
  /// Transient-memory budget of the external build (chunk, spill and
  /// merge buffers).
  size_t memory_budget_bytes = 64u << 20;
  /// Spill directory of the external build; empty = system temp.
  std::string spill_dir;

  // --- multi-eps ladder (src/hierarchy/) ---

  /// Region-query radius decoupled from the cell geometry: the grid is
  /// still built with diagonal `eps`, but the core test, edge collection
  /// and border labeling use this radius. 0 keeps the classic coupled run
  /// (bit-identical to before the knob existed). Must be >= eps — the
  /// cell-diagonal <= radius invariant is what makes a fully-populated
  /// cell's points mutually reachable (Lemma 3.2). The dictionary's
  /// stencil family is enumerated out to this radius.
  double query_eps = 0.0;
};

/// The frozen artifacts of one finished run that out-of-sample label
/// serving needs (src/serve/snapshot.h turns this into an immutable,
/// versioned ClusterModelSnapshot):
///  * the cell dictionary Phase II queried, whose (eps,rho)-density
///    answers are the exact core criterion of the run;
///  * the merged per-cell cluster table and predecessor lists (Phase III);
///  * for exact border reassignment, the core points of every cell that
///    appears in some predecessor list, stored in the exact order
///    LabelPoints walks them — serving a border query replays the same
///    first-match walk bit-for-bit.
struct CapturedModel {
  CellDictionary dictionary;
  MergeResult merged;
  /// Per training point: 1 iff its (eps,rho)-density reached min_pts.
  std::vector<uint8_t> point_is_core;
  size_t min_pts = 0;
  size_t num_points = 0;
  /// Effective region-query radius of the run (== geometry eps for the
  /// classic coupled run; the level radius for decoupled ladder levels).
  /// Serving replays the border walk at this radius.
  double query_eps = 0.0;
  /// CSR over cell ids: cell c's stored core-point coordinates are
  /// ref_coords[ref_offsets[c] * dim .. ref_offsets[c + 1] * dim).
  /// Non-empty only for cells referenced as a labeling predecessor.
  std::vector<uint64_t> ref_offsets;
  std::vector<float> ref_coords;
};

/// Timing and structure statistics of one run — the observables every
/// experiment in Sec. 7 is built from.
struct RunStats {
  // Phase wall times (Fig. 12 / Fig. 21 breakdowns).
  double partition_seconds = 0;   // Phase I-1
  // Phase I-1 sub-breakdown (sorted CSR path; all ~0 on the hash fallback
  // except scatter_seconds, which then covers the whole hash-map scan).
  double key_seconds = 0;      // per-point cell-key encoding
  double sort_seconds = 0;     // radix sort of (key, point_id) pairs
  double scatter_seconds = 0;  // group scan + CSR emit
  double dictionary_seconds = 0;  // Phase I-2
  // Phase I-2 sub-breakdown (CellDictionary::breakdown()); the three sum
  // to at most dictionary_seconds.
  double histogram_seconds = 0;     // per-cell sub-cell histograms
  double fragment_seconds = 0;      // BSP fragments, trees, lanes, index
  double neighborhood_seconds = 0;  // stencil neighborhood CSR (0 at d >= 6)
  double phase2_seconds = 0;      // Phase II (cell graph construction)
  double merge_seconds = 0;       // Phase III-1
  double label_seconds = 0;       // Phase III-2
  double total_seconds = 0;

  /// Per-partition task seconds of Phase II local clustering — the numbers
  /// behind the load-imbalance metric (Fig. 13).
  std::vector<double> phase2_task_seconds;

  /// Edges alive after each tournament round (Fig. 17 / Table 7).
  std::vector<size_t> edges_per_round;

  // Structure sizes.
  size_t num_cells = 0;
  size_t num_subcells = 0;
  size_t num_subdictionaries = 0;
  /// Two-level dictionary size per Lemma 4.3 (Table 5's numerator).
  size_t dictionary_bytes = 0;
  /// Wire size of the dictionary (CellDictionary::WireSizeBytes): the
  /// payload Alg. 1 line 5 broadcasts to every worker. Phase II threads
  /// share the one built dictionary read-only instead, as a broadcast
  /// variable would be shared.
  size_t broadcast_bytes = 0;
  size_t num_core_cells = 0;
  size_t num_clusters = 0;
  size_t num_noise_points = 0;
  /// Sub-dictionary visits actually performed / possible (Lemma 5.10).
  size_t subdict_visited = 0;
  size_t subdict_possible = 0;
  /// Phase II kernel counters: point-candidate bound evaluations of the
  /// tile scan (pass 1's undecided points per candidate plus the chunk
  /// members pass 2's edge search tested), and points proven core before
  /// their candidate list was exhausted.
  size_t candidate_cells_scanned = 0;
  size_t early_exits = 0;
  /// Stencil engine counter (0 on the kd-tree path): precomputed
  /// neighborhood entries Phase II walked, one self entry per cell
  /// included.
  size_t stencil_probes = 0;

  /// Invariant auditing (0 everywhere when audit_level = kOff): checks
  /// evaluated, checks violated (a successful run always reports 0 — any
  /// violation fails RunRpDbscan), and the wall time the audits cost.
  size_t audit_checks = 0;
  size_t audit_violations = 0;
  double audit_seconds = 0;

  /// Distance-kernel tier Phase II ran with ("scalar", "avx2", ...): the
  /// compiled tiers intersected with cpuid (DetectSimdLevel).
  std::string simd_kernel = "scalar";
  /// Whether Phase III-1 ran the edge-parallel lock-free union-find path
  /// (vs the sequential tournament).
  bool parallel_merge = false;

  /// Out-of-core Phase I-1 accounting (all 0/false when no point_source
  /// was given): whether the external spill+merge path actually ran (false
  /// also when the key exceeded 128 bits and the in-RAM hash fallback
  /// took over), chunk/run counts, spilled bytes, the build's own peak
  /// transient-buffer accounting, and the configured budget.
  bool external_phase1 = false;
  size_t external_chunks = 0;
  size_t external_runs = 0;
  uint64_t external_spill_bytes = 0;
  uint64_t external_peak_accounted_bytes = 0;
  size_t memory_budget_bytes = 0;

  /// Multi-line human-readable report.
  std::string ToString() const;

  /// The same observables as one machine-readable JSON object (the
  /// --stats-json emitter; serve reuses the writer for its own stats).
  std::string ToJson() const;
};

/// A finished clustering: one label per point (kNoise for outliers) plus
/// run statistics.
struct RpDbscanResult {
  Labels labels;
  RunStats stats;
  /// Set iff RpDbscanOptions::capture_model was on. Shared so the result
  /// stays copyable and the serving layer can hold the model alive.
  std::shared_ptr<CapturedModel> model;
};

/// Runs the full three-phase RP-DBSCAN pipeline (Alg. 1) on `data`.
///
/// Fails (without crashing) on invalid parameters: non-positive eps,
/// rho outside (0,1], min_pts of 0, empty data, or dimensionality above
/// the supported maximum.
StatusOr<RpDbscanResult> RunRpDbscan(const Dataset& data,
                                     const RpDbscanOptions& options);

/// Assembles a CapturedModel from finished pipeline outputs — the capture
/// step of RunRpDbscan, exposed so the streaming path can package each
/// epoch's incremental results exactly the way a from-scratch run would
/// (border references included).
CapturedModel BuildCapturedModel(const Dataset& data, const CellSet& cells,
                                 MergeResult merged,
                                 std::vector<uint8_t> point_is_core,
                                 CellDictionary dictionary, size_t min_pts,
                                 double query_eps = 0.0);

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_RP_DBSCAN_H_
