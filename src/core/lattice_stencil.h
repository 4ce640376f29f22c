#ifndef RPDBSCAN_CORE_LATTICE_STENCIL_H_
#define RPDBSCAN_CORE_LATTICE_STENCIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpdbscan {

/// Precomputed eps-ball offset stencil over the cell lattice: the
/// direct-grid candidate enumeration of Wang/Gu/Shun's exact parallel
/// DBSCAN (arXiv:1912.06255), specialized to RP-DBSCAN's eps-diagonal
/// cells. Because the grid fixes cell_side = eps / sqrt(d), the set of
/// integer offsets `o` whose cell box can come within eps of ANY point of
/// a source cell is a constant set per dimensionality:
///
///   minGap(o)^2 = cell_side^2 * sum_i max(0, |o_i| - 1)^2  <=  eps^2
///   <=>  m(o) := sum_i max(0, |o_i| - 1)^2  <=  d           (exact),
///
/// since eps^2 / cell_side^2 = d and m(o) is an integer: the boundary
/// class m(o) = d is real-arithmetic equality, and the first excluded
/// class (m = d + 1) sits a relative 1/d away — orders of magnitude
/// beyond both double rounding and the query kernel's 1e-9 classification
/// margins. The criterion is therefore evaluated in pure integer
/// arithmetic; no eps, no doubles, no ulp boundary cases.
///
/// Per axis |o_i| <= 1 + floor(sqrt(d)); the kept-offset count grows
/// roughly like (2 sqrt(d) + 3)^d, so Create returns a *disabled* stencil
/// beyond `max_offsets` — the high-dimensionality fallback that sends
/// Phase II back to per-sub-dictionary tree traversal (the
/// traversal-vs-direct-indexing trade-off of arXiv:2103.05162).
class LatticeStencil {
 public:
  /// An inert, disabled stencil.
  LatticeStencil() = default;

  /// Enumerates the stencil for `dim` dimensions. Returns a disabled
  /// stencil when more than `max_offsets` offsets would be kept.
  static LatticeStencil Create(size_t dim, size_t max_offsets);

  /// Enumerates the stencil family member covering a query radius of
  /// `eps_scale` * eps over the same eps-diagonal lattice: the criterion
  /// generalizes to m(o) <= d * eps_scale^2 (the budget in units of
  /// cell_side^2), so eps_scale = 1 reproduces Create exactly. Members
  /// of one family are nested prefixes of each other under the
  /// (distance class, lex) order — the smaller budget's offset set is
  /// exactly the larger one's offsets whose class fits that budget.
  static LatticeStencil CreateScaled(size_t dim, double eps_scale,
                                     size_t max_offsets);

  /// The class budget of an eps_scale-scaled family member:
  /// d * eps_scale^2, nudged one relative 1e-9 up so the boundary class
  /// (real-arithmetic equality) stays included under double rounding of
  /// non-integer budgets. Shared by stencil construction and the
  /// dictionary's CSR class filter so both sides apply the identical
  /// comparison.
  static double ScaledBudget(size_t dim, double eps_scale) {
    return static_cast<double>(dim) * eps_scale * eps_scale *
           (1.0 + 1e-9);
  }

  bool enabled() const { return enabled_; }
  size_t dim() const { return dim_; }

  /// The class budget this stencil was enumerated with (see
  /// ScaledBudget); dim * (1 + 1e-9) for an unscaled Create stencil.
  double budget() const { return budget_; }

  /// Number of offsets, the zero offset (the source cell itself)
  /// excluded — callers resolve their own cell separately.
  size_t num_offsets() const {
    return enabled_ ? offsets_.size() / dim_ : 0;
  }

  /// Offset `i` as `dim` consecutive int32 lattice deltas. Offsets are
  /// sorted by ascending distance class m(o), then lexicographically, so
  /// probing in stencil order walks nearer rings first.
  const int32_t* offset(size_t i) const {
    return offsets_.data() + i * dim_;
  }

  /// m(o) of offset `i` (see the class comment): the squared box-to-box
  /// lattice gap in units of cell_side^2.
  uint32_t min_dist_class(size_t i) const { return classes_[i]; }

 private:
  size_t dim_ = 0;
  bool enabled_ = false;
  double budget_ = 0.0;
  std::vector<int32_t> offsets_;   // num_offsets * dim, flat
  std::vector<uint32_t> classes_;  // num_offsets
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_LATTICE_STENCIL_H_
