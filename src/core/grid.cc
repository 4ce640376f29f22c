#include "core/grid.h"

#include <cmath>
#include <sstream>

namespace rpdbscan {

StatusOr<GridGeometry> GridGeometry::Create(size_t dim, double eps,
                                            double rho) {
  if (dim == 0 || dim > CellCoord::kMaxDim) {
    return Status::InvalidArgument("dim must be in [1, " +
                                   std::to_string(CellCoord::kMaxDim) + "]");
  }
  if (!(eps > 0.0) || !std::isfinite(eps)) {
    return Status::InvalidArgument("eps must be positive and finite");
  }
  if (!(rho > 0.0) || rho > 1.0) {
    return Status::InvalidArgument("rho must be in (0, 1]");
  }
  GridGeometry g;
  g.dim_ = dim;
  g.eps_ = eps;
  g.rho_ = rho;
  g.cell_side_ = eps / std::sqrt(static_cast<double>(dim));
  g.inv_cell_side_ = 1.0 / g.cell_side_;
  // h = 1 + ceil(log2(1/rho)) (Def. 4.1).
  const double levels = std::ceil(std::log2(1.0 / rho));
  g.h_ = 1 + static_cast<int>(levels < 0 ? 0 : levels);
  // Keep SubcellId within its 128-bit budget: dim * (h-1) <= 128.
  const int max_bits_per_dim = static_cast<int>(128 / dim);
  if (g.h_ - 1 > max_bits_per_dim) {
    return Status::InvalidArgument(
        "rho too small for dim: sub-cell index needs " +
        std::to_string(dim * (g.h_ - 1)) + " bits (max 128)");
  }
  g.splits_per_dim_ = 1 << (g.h_ - 1);
  g.subcell_side_ = g.cell_side_ / g.splits_per_dim_;
  return g;
}

Status GridGeometry::CheckBinnable(const float* rows, size_t count,
                                   size_t first_id) const {
  for (size_t i = 0; i < count; ++i) {
    for (size_t d = 0; d < dim_; ++d) {
      const float v = rows[i * dim_ + d];
      if (Binnable(v)) continue;
      std::ostringstream os;
      os << "point " << first_id + i << " dimension " << d << ": coordinate "
         << v << " cannot be binned at eps " << eps_
         << " (not finite, or beyond the int32 cell lattice)";
      return Status::InvalidArgument(os.str());
    }
  }
  return Status::OK();
}

CellCoord GridGeometry::CellOf(const float* p) const {
  int32_t c[CellCoord::kMaxDim];
  for (size_t d = 0; d < dim_; ++d) {
    c[d] = CellIndexOf(p[d]);
  }
  return CellCoord(c, dim_);
}

SubcellId GridGeometry::SubcellOf(const float* p, const CellCoord& c) const {
  SubcellId id;
  const unsigned bits = bits_per_dim();
  if (bits == 0) return id;  // h == 1: the cell is its own sub-cell.
  unsigned pos = 0;
  for (size_t d = 0; d < dim_; ++d) {
    const double origin = CellOrigin(c, d);
    int32_t s = static_cast<int32_t>(
        std::floor((static_cast<double>(p[d]) - origin) / subcell_side_));
    // Guard against floating point landing exactly on the upper face.
    if (s < 0) s = 0;
    if (s >= splits_per_dim_) s = splits_per_dim_ - 1;
    SubcellSetBits(&id, pos, bits, static_cast<uint64_t>(s));
    pos += bits;
  }
  return id;
}

void GridGeometry::CellCenter(const CellCoord& c, float* out) const {
  for (size_t d = 0; d < dim_; ++d) {
    out[d] = static_cast<float>(CellOrigin(c, d) + 0.5 * cell_side_);
  }
}

void GridGeometry::SubcellCenter(const CellCoord& c, const SubcellId& sc,
                                 float* out) const {
  const unsigned bits = bits_per_dim();
  if (bits == 0) {
    CellCenter(c, out);
    return;
  }
  unsigned pos = 0;
  for (size_t d = 0; d < dim_; ++d) {
    const uint64_t s = SubcellGetBits(sc, pos, bits);
    out[d] = static_cast<float>(CellOrigin(c, d) +
                                (static_cast<double>(s) + 0.5) *
                                    subcell_side_);
    pos += bits;
  }
}

Mbr GridGeometry::CellBox(const CellCoord& c) const {
  Mbr box(dim_);
  for (size_t d = 0; d < dim_; ++d) {
    const double lo = CellOrigin(c, d);
    box.set_min(d, lo);
    box.set_max(d, lo + cell_side_);
  }
  return box;
}

}  // namespace rpdbscan
