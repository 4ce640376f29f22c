#ifndef RPDBSCAN_CORE_GRID_H_
#define RPDBSCAN_CORE_GRID_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/cell_coord.h"
#include "spatial/mbr.h"
#include "util/status.h"

namespace rpdbscan {

/// Geometry of the cell grid (Defs. 3.1 and 4.1): a cell is a d-dimensional
/// hypercube with *diagonal* eps, so cell side = eps / sqrt(d); a cell is
/// split into 2^(h-1) sub-cells per dimension with h = 1 + ceil(log2(1/rho)),
/// giving each sub-cell a diagonal of at most rho * eps (Lemma 5.2).
///
/// Immutable after Create; all methods are const and thread-safe.
class GridGeometry {
 public:
  /// An inert geometry (dim 0). Only useful as a placeholder to assign a
  /// Create() result into.
  GridGeometry() = default;

  /// Validates parameters: dim in [1, CellCoord::kMaxDim], eps > 0,
  /// rho in (0, 1].
  static StatusOr<GridGeometry> Create(size_t dim, double eps, double rho);

  size_t dim() const { return dim_; }
  double eps() const { return eps_; }
  double rho() const { return rho_; }
  /// Side length of a cell (eps / sqrt(dim)).
  double cell_side() const { return cell_side_; }
  /// Precomputed 1 / cell_side(): the per-point binning hot path multiplies
  /// by this instead of dividing (Phase I-1 runs it n*d times per build).
  double inv_cell_side() const { return inv_cell_side_; }
  /// The paper's h: number of dictionary levels parameterized by rho.
  int h() const { return h_; }
  /// Sub-cells per dimension inside a cell: 2^(h-1).
  int splits_per_dim() const { return splits_per_dim_; }
  double subcell_side() const { return subcell_side_; }
  /// Bits per dimension in a SubcellId: h - 1.
  unsigned bits_per_dim() const { return static_cast<unsigned>(h_ - 1); }

  /// Lattice index along one dimension of the cell containing coordinate
  /// `v`. This is THE binning arithmetic: CellOf and the sorted Phase I-1
  /// key encoder both call it, so a point lands in the same cell no matter
  /// which path bins it.
  int32_t CellIndexOf(float v) const {
    return static_cast<int32_t>(
        std::floor(static_cast<double>(v) * inv_cell_side_));
  }

  /// True iff CellIndexOf(v) is defined: `v` is finite and
  /// floor(v / cell_side) fits the int32 lattice. NaN, +-Inf and
  /// |v / cell_side| >= 2^31 fail. Phase I-1 checks every coordinate
  /// before binning it.
  bool Binnable(float v) const {
    const double q = static_cast<double>(v) * inv_cell_side_;
    return q >= -2147483648.0 && q < 2147483648.0;
  }

  /// OK when every coordinate of `count` row-major points at `rows` is
  /// Binnable; otherwise InvalidArgument naming the first offending point
  /// (ids count up from `first_id`) and dimension.
  Status CheckBinnable(const float* rows, size_t count,
                       size_t first_id) const;

  /// Lattice coordinates of the cell containing `p`.
  CellCoord CellOf(const float* p) const;

  /// Packed local sub-cell index of `p` within its cell `c` (which must be
  /// CellOf(p)).
  SubcellId SubcellOf(const float* p, const CellCoord& c) const;

  /// Writes the cell's center into `out[dim]`.
  void CellCenter(const CellCoord& c, float* out) const;

  /// Writes the center of sub-cell `sc` of cell `c` into `out[dim]`.
  void SubcellCenter(const CellCoord& c, const SubcellId& sc,
                     float* out) const;

  /// Axis-aligned box of the cell.
  Mbr CellBox(const CellCoord& c) const;

  /// Squared distance from `p` to the nearest point of the cell's box
  /// (0 if inside). Allocation-free equivalent of CellBox(c).MinDist2(p)
  /// for the region-query hot path.
  double CellMinDist2(const CellCoord& c, const float* p) const {
    double acc = 0.0;
    for (size_t d = 0; d < dim_; ++d) {
      const double lo = CellOrigin(c, d);
      const double hi = lo + cell_side_;
      const double v = p[d];
      double delta = 0.0;
      if (v < lo) {
        delta = lo - v;
      } else if (v > hi) {
        delta = v - hi;
      }
      acc += delta * delta;
    }
    return acc;
  }

  /// Squared distance from `p` to the farthest corner of the cell's box.
  /// Allocation-free equivalent of CellBox(c).MaxDist2(p).
  double CellMaxDist2(const CellCoord& c, const float* p) const {
    double acc = 0.0;
    for (size_t d = 0; d < dim_; ++d) {
      const double lo = CellOrigin(c, d);
      const double hi = lo + cell_side_;
      const double v = p[d];
      const double to_lo = v > lo ? v - lo : lo - v;
      const double to_hi = v > hi ? v - hi : hi - v;
      const double delta = to_lo > to_hi ? to_lo : to_hi;
      acc += delta * delta;
    }
    return acc;
  }

  /// Lower corner coordinate of the cell along dimension `d`.
  double CellOrigin(const CellCoord& c, size_t d) const {
    return static_cast<double>(c[d]) * cell_side_;
  }

 private:
  size_t dim_ = 0;
  double eps_ = 0;
  double rho_ = 0;
  double cell_side_ = 0;
  double inv_cell_side_ = 0;
  double subcell_side_ = 0;
  int h_ = 1;
  int splits_per_dim_ = 1;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_GRID_H_
