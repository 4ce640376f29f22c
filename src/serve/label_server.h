#ifndef RPDBSCAN_SERVE_LABEL_SERVER_H_
#define RPDBSCAN_SERVE_LABEL_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simd.h"
#include "io/dataset.h"
#include "parallel/thread_pool.h"
#include "serve/latency.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace rpdbscan {

/// DBSCAN role of a served query point under the frozen model.
enum class PointKind : uint8_t {
  kCore = 0,
  kBorder = 1,
  kNoise = 2,
};

/// How the served answer relates to what a full re-run with the query
/// point appended would produce (the Theorem 5.4 sandwich argument):
///  * kExact — the answer replays the training-time labeling rule
///    bit-for-bit: the query fell into a dictionary cell, so its cell
///    granularity matches the run's, and (for non-core cells) the stored
///    border references reproduce the first-match predecessor walk.
///    Serving any *training* point is always kExact and returns exactly
///    the label RunRpDbscan assigned it.
///  * kApprox — the answer is cell-granularity approximate: the query
///    landed outside every dictionary cell, or in a non-core cell
///    without border references, so it is assigned by the nearest
///    cluster-labeled cell within eps (the rho-approximate sandwich
///    bound) rather than by exact point distances; or the query is
///    itself dense enough to be core, which a frozen model cannot fold
///    into the clustering.
enum class Certainty : uint8_t {
  kExact = 0,
  kApprox = 1,
};

/// Answer for one query point.
struct ServeResult {
  /// Cluster id under the frozen model, kNoise for noise.
  int64_t cluster = kNoise;
  PointKind kind = PointKind::kNoise;
  Certainty certainty = Certainty::kApprox;
  /// The query's (eps, rho)-density under the frozen dictionary — the
  /// count compared against min_pts for the core verdict.
  uint64_t density = 0;
};

struct LabelServerOptions {
  /// Resolve queries landing in non-core cells by replaying the training
  /// labeling walk over the stored border references (kExact); off, or
  /// when the snapshot carries no references, they resolve by nearest
  /// labeled cell (kApprox).
  bool exact_border = true;
};

/// Per-thread serving counters. Plain integers — each worker of a batch
/// owns one instance, merged after the barrier, so the totals are
/// deterministic for a given query set.
struct ServeStats {
  uint64_t queries = 0;
  /// Queries whose home cell exists in the dictionary.
  uint64_t cell_hits = 0;
  uint64_t exact = 0;
  uint64_t core = 0;
  uint64_t border = 0;
  uint64_t noise = 0;
  /// Precomputed stencil-neighborhood entries walked: one walk per
  /// home-cell group, whatever the group's size. Deterministic for a
  /// given query set (grouping is by home-cell slot, not by thread). A
  /// group whose candidates come from the kd-trees (a home-cell miss, or
  /// any group of a snapshot without a stencil) adds 0.
  uint64_t stencil_probes = 0;
  /// Stored core-point distance evaluations spent replaying border walks.
  uint64_t border_ref_scans = 0;

  void Merge(const ServeStats& o) {
    queries += o.queries;
    cell_hits += o.cell_hits;
    exact += o.exact;
    core += o.core;
    border += o.border;
    noise += o.noise;
    stencil_probes += o.stencil_probes;
    border_ref_scans += o.border_ref_scans;
  }
};

/// Serving counters as one JSON object (the --stats-json emitter of the
/// serve subcommand). `seconds` and `threads` describe the timed run and
/// `busy_seconds` the part of it spent serving (a batch passes its batch
/// time for both, a request loop its wall time and
/// RequestLoopStats::busy_seconds); queries_per_second is queries over
/// busy_seconds. When `latency` is given, its nearest-rank percentiles
/// ride along as <prefix>_p50_us / _p99_us / _p999_us / _max_us /
/// _samples, where the prefix names what `kind` says they measured:
/// "latency" for a request loop's sojourns, "completion" for a batch's
/// completion offsets.
std::string ServeStatsToJson(const ServeStats& stats, double seconds,
                             double busy_seconds, size_t threads,
                             const LatencySummary* latency = nullptr,
                             LatencyKind kind = LatencyKind::kSojourn);

/// Classifies out-of-sample points against a frozen ClusterModelSnapshot.
///
/// The read path takes no locks of its own: the snapshot is immutable and
/// shared, and each call (or each worker of a batch) owns its scratch and
/// stats instance — no atomics, no shared mutable state. Any number of
/// threads may call Classify / ClassifyBatch concurrently on one
/// LabelServer.
///
/// Queries are classified in groups that share a home cell (a home-cell
/// miss is a group of one), by one routine at every dimensionality. A
/// query point q resolves in two steps:
///  1. Density: the (eps, rho)-region query (Def. 5.1) sums the densities
///     of sub-cells whose center lies within eps, with the whole-cell
///     containment fast path. The group's candidate cells are its home
///     cell's precomputed stencil neighborhood when the snapshot has a
///     stencil, and otherwise (a miss, or d >= 6) the cells one
///     box-bounded descent of the per-sub-dictionary kd-trees over the
///     group's bounding box keeps (CellDictionary::QueryBoxSlots, Lemmas
///     5.6 and 5.10). Every candidate is tested with the training
///     kernels' exact arithmetic, so the density q gets here is the
///     density it would have gotten as a training point.
///  2. Label: a core home cell labels q with its cluster (kExact). A
///     non-core home cell replays the training border walk over the
///     stored references (kExact), or falls back to the nearest labeled
///     cell (kApprox). A missing home cell resolves by nearest labeled
///     cell within eps (kApprox) or noise.
class LabelServer {
 public:
  /// `snapshot` must be non-null; shared so concurrent servers (and the
  /// caller) keep the model alive without copies.
  explicit LabelServer(std::shared_ptr<const ClusterModelSnapshot> snapshot,
                       const LabelServerOptions& opts = LabelServerOptions());

  const ClusterModelSnapshot& snapshot() const { return *snapshot_; }
  const LabelServerOptions& options() const { return opts_; }

  /// Classifies one point of snapshot dimensionality: a group of one,
  /// through the same routine as ClassifyBatch. Thread-safe. Counters
  /// accumulate into `*stats` when given.
  /// Precondition: every coordinate is Binnable at the snapshot's
  /// geometry (finite, inside the int32 cell lattice) — ClassifyBatch
  /// checks this and rejects the batch otherwise.
  ServeResult Classify(const float* q, ServeStats* stats = nullptr) const;

  /// Classifies every point of `queries` on `pool`, writing one result
  /// per point into `*out` (resized; order matches `queries`). Results
  /// are independent of the thread count and bit-identical to calling
  /// Classify point by point ({cluster, kind, certainty, density} all
  /// match); merged semantic stats match the serial path too, while
  /// stencil_probes follows the grouped accounting documented on
  /// ServeStats. Fails with InvalidArgument on a dimensionality mismatch,
  /// on more queries than a 32-bit index holds, or on a query coordinate
  /// that cannot be binned (NaN, +-Inf, beyond the int32 cell lattice),
  /// naming the query index and dimension.
  ///
  /// Queries are grouped by home-cell slot (a deterministic radix sort of
  /// (slot, index) keys — groups never depend on the thread count; each
  /// home-cell miss is a group of one). Each group gets one candidate
  /// list — its home cell's stencil neighborhood, or one kd descent over
  /// its bounding box where there is no stencil or no home cell — and is
  /// classified against each candidate in one multi-query lane-kernel
  /// invocation. Per-worker scratch is reused across the batch — no
  /// per-query or per-group allocation in steady state — and per-worker
  /// stats are cache-line padded. When `latency` is given, every query
  /// contributes one completion-time sample (monotonic clock, one stamp
  /// per group) measured from batch admission.
  Status ClassifyBatch(const Dataset& queries, ThreadPool& pool,
                       std::vector<ServeResult>* out,
                       ServeStats* stats = nullptr,
                       LatencyReservoir* latency = nullptr) const;

 private:
  /// Per-worker scratch of ClassifyGroup (label_server.cc).
  struct GroupScratch;

  /// ClassifyBatch's input contract: snapshot dimensionality, a 32-bit
  /// query count and binnable coordinates (GridGeometry::CheckBinnable).
  Status CheckQueries(const Dataset& queries) const;
  /// Classifies the group a.qi (query indices into the row-major
  /// `points`), whose members share the home cell at global slot `home`
  /// (-1: no home cell, a group of one), writing query i's result to
  /// out[i] and adding its counters to `*stats` when given.
  void ClassifyGroup(const float* points, int64_t home, GroupScratch& a,
                     ServeResult* out, ServeStats* stats) const;

  std::shared_ptr<const ClusterModelSnapshot> snapshot_;
  LabelServerOptions opts_;
  /// Sub-cell classification kernels, resolved once at construction for
  /// the snapshot's dimensionality and the detected SIMD tier.
  SubcellCountMultiFn multi_fn_ = nullptr;
  GroupBoundsFn bounds_fn_ = nullptr;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SERVE_LABEL_SERVER_H_
