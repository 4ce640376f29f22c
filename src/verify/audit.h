#ifndef RPDBSCAN_VERIFY_AUDIT_H_
#define RPDBSCAN_VERIFY_AUDIT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "io/dataset.h"
#include "util/status.h"

namespace rpdbscan {

/// How much invariant auditing RunRpDbscan performs between phases.
///
///  * kOff:   no auditing (production default; zero overhead).
///  * kCheap: O(n) structural scans — CSR well-formedness, count
///    accounting, graph/forest shape — plus small spot-check samples.
///  * kFull:  everything kCheap does, plus per-point recomputation of the
///    derived structures (cell coordinates, sub-cell histograms, centers,
///    label re-derivation) and larger spot-check samples.
enum class AuditLevel : uint8_t {
  kOff = 0,
  kCheap = 1,
  kFull = 2,
};

/// Collects the outcome of one audit pass: how many invariants were
/// checked, how many were violated, and the first few violation messages
/// (message formatting is lazy — a passing check never builds a string).
class AuditReport {
 public:
  /// Violation messages kept verbatim; later ones only bump the counter.
  static constexpr size_t kMaxMessages = 16;

  /// Records one invariant check. `fmt` is invoked only on failure and
  /// must return the violation message.
  template <typename Fmt>
  void Check(bool ok, Fmt&& fmt) {
    ++checks_;
    if (!ok) Record(std::forward<Fmt>(fmt)());
  }

  /// Records an unconditional violation.
  void Fail(std::string message) {
    ++checks_;
    Record(std::move(message));
  }

  /// Folds another report (e.g. a sub-stage's) into this one.
  void Merge(const AuditReport& other);

  size_t checks() const { return checks_; }
  size_t violations() const { return violations_; }
  bool ok() const { return violations_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

  /// OK when no invariant was violated; otherwise Internal with the
  /// violation count and the retained messages.
  Status ToStatus(const std::string& stage) const;

  /// One line per retained message plus a summary header.
  std::string ToString() const;

 private:
  void Record(std::string message);

  size_t checks_ = 0;
  size_t violations_ = 0;
  std::vector<std::string> messages_;
};

/// Audits a raw CSR cell layout: offsets start at 0, are monotone and end
/// at `num_points` == point_ids.size(), every point id in [0, num_points)
/// appears exactly once (permutation), and ids ascend within each cell.
/// Exposed separately from AuditCellSet so tests can feed deliberately
/// corrupted arrays without access to CellSet internals.
AuditReport AuditCsrArrays(size_t num_points,
                           const std::vector<uint64_t>& offsets,
                           const std::vector<uint32_t>& point_ids);

/// Audits a built CellSet (Phase I-1 output, Sec. 4.1):
///  * the CSR arrays (AuditCsrArrays) and the per-cell spans viewing them;
///  * first-encounter cell numbering (the bit-identity contract between
///    the sorted and hash-map build engines);
///  * cell coordinates match GridGeometry::CellOf of their points (first
///    point per cell at kCheap, every point at kFull);
///  * FlatCellIndex agreement: FindCell(coord) == id for every cell, and
///    the table is a power-of-two at load factor <= 0.5;
///  * the pseudo random partitioning is a disjoint cover with cached point
///    counts and cell counts balanced within one (RandomDisjointSplit's
///    round-robin deal).
AuditReport AuditCellSet(const Dataset& data, const CellSet& cells,
                         AuditLevel level);

/// Audits a built CellDictionary (Phase I-2 output, Sec. 4.2) against the
/// cell set it summarizes:
///  * every cell appears in exactly one sub-dictionary with its CellSet
///    coordinate, and sub-cell ranges tile each sub-dictionary exactly;
///  * density accounting: per-cell total == sum of its sub-cell densities
///    == the cell's actual population; global total == |data| (the
///    Lemma 4.3 "density" terms);
///  * the Lemma 4.3 / Eq. (1) size formula recomputed from per-fragment
///    tallies matches SizeBitsLemma43();
///  * every sub-cell center lies inside its fragment's MBR (the soundness
///    condition of Lemma 5.10 skipping);
///  * each cell's lane block (the sub-cell storage every kernel scans)
///    has its sub-cell count rounded up to kSimdLaneWidth slots, the
///    sub-cell densities in its occupied slots, and +inf centers with
///    zero densities in its padding slots;
///  * every kd-tree node box contains the occupied MBR of every cell below
///    it (the soundness condition of QueryCell settling whole subtrees);
///  * when a stencil was built, its neighborhood CSR is well-formed:
///    monotone offsets, each list starting with its own slot, every entry
///    a valid slot; at kFull each list has no repeats and, as a set,
///    equals the cells found by probing the slot's full stencil window
///    (so a list carried over from a prior dictionary is checked like a
///    swept one);
///  * at kFull: per-cell sub-cell histograms recomputed from the raw
///    points via GridGeometry::SubcellOf match the dictionary, and the
///    precomputed cell centers and lane sub-cell centers match
///    bit-exactly.
AuditReport AuditDictionary(const Dataset& data, const CellSet& cells,
                            const CellDictionary& dict, AuditLevel level);

/// Audits the Phase II output (Alg. 3): core-flag shape agreement (a cell
/// is core iff it holds a core point), one subgraph per partition owning
/// exactly its partition's cells with types matching the core flags, and
/// edges that start at core cells, carry the kUndetermined type Phase II
/// must emit, never self-loop, and connect cells whose boxes are within
/// eps of each other (Def. 3.3 reachability needs a point and a sub-cell
/// of the two cells within eps, so the box gap bounds it). At kFull also
/// rejects duplicate edges inside a subgraph.
AuditReport AuditCellGraph(const Dataset& data, const CellSet& cells,
                           const Phase2Result& phase2, AuditLevel level);

/// Audits the Phase III-1 output (Alg. 4 part 1): cluster ids are dense
/// and exactly cover the core cells, predecessor lists are core -> noncore
/// (the partial-edge inversion is bipartite, hence acyclic), surviving
/// full edges connect same-cluster core cells, and — when edge reduction
/// is on — the kept full edges form a spanning forest: every edge joins
/// two previously disconnected components and #clusters == #core cells −
/// #kept full edges (Sec. 6.1.4). The per-round edge series must be
/// non-increasing (merging only keeps or drops edges).
AuditReport AuditMergeForest(const std::vector<uint8_t>& cell_is_core,
                             const MergeResult& merged, AuditLevel level);

/// Audits the final labels (Phase III-2, Alg. 4 part 2):
///  * label values are kNoise or a valid dense cluster id;
///  * every point of a core cell carries its cell's cluster (so every core
///    point is labeled), and core points are never noise;
///  * points of non-core cells are labeled only via a core predecessor
///    cell — re-derived exactly from the predecessor lists at kFull;
///  * spot-checks against ground truth with a kd-tree over the raw data
///    (Theorem 5.4 sandwich): a noise point must have fewer than min_pts
///    exact neighbors at radius (1 − rho/2) eps, and a core point at least
///    min_pts at radius (1 + rho/2) eps. Sample sizes grow with `level`;
///    `seed` makes the sample deterministic.
AuditReport AuditLabels(const Dataset& data, const CellSet& cells,
                        const MergeResult& merged,
                        const std::vector<uint8_t>& point_is_core,
                        const Labels& labels, size_t min_pts,
                        AuditLevel level, uint64_t seed);

}  // namespace rpdbscan

#endif  // RPDBSCAN_VERIFY_AUDIT_H_
