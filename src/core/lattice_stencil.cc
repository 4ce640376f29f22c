#include "core/lattice_stencil.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/logging.h"

namespace rpdbscan {

LatticeStencil LatticeStencil::Create(size_t dim, size_t max_offsets) {
  return CreateScaled(dim, 1.0, max_offsets);
}

LatticeStencil LatticeStencil::CreateScaled(size_t dim, double eps_scale,
                                            size_t max_offsets) {
  LatticeStencil s;
  s.dim_ = dim;
  RPDBSCAN_CHECK(dim >= 1);
  RPDBSCAN_CHECK(eps_scale >= 1.0);
  if (max_offsets == 0) return s;  // disabled by configuration

  // Per-axis radius: (|o| - 1)^2 <= budget  <=>  |o| <= 1 + sqrt(budget).
  const double budget = ScaledBudget(dim, eps_scale);
  int32_t radius = 1;
  while (static_cast<double>(radius) * radius <= budget) ++radius;
  s.budget_ = budget;

  // Depth-first enumeration with partial-sum pruning. Every viable
  // interior node extends through o = 0 (cost 0), so the number of tree
  // nodes explored before the early abort is O(kept * dim * radius) —
  // bounded even in dimensionalities whose full stencil is astronomically
  // larger than `max_offsets`.
  std::vector<int32_t> coords(dim, 0);
  bool overflow = false;
  auto rec = [&](auto&& self, size_t axis, uint32_t m) -> void {
    if (overflow) return;
    if (axis == dim) {
      const bool is_self = std::all_of(coords.begin(), coords.end(),
                                       [](int32_t o) { return o == 0; });
      if (is_self) return;  // the source cell is resolved separately
      if (s.classes_.size() >= max_offsets) {
        overflow = true;
        return;
      }
      s.offsets_.insert(s.offsets_.end(), coords.begin(), coords.end());
      s.classes_.push_back(m);
      return;
    }
    for (int32_t o = -radius; o <= radius; ++o) {
      const uint32_t a = static_cast<uint32_t>(o < 0 ? -o : o);
      const uint32_t c = a <= 1 ? 0 : (a - 1) * (a - 1);
      if (static_cast<double>(m + c) > budget) continue;
      coords[axis] = o;
      self(self, axis + 1, m + c);
      if (overflow) break;
    }
    coords[axis] = 0;
  };
  rec(rec, 0, 0);
  if (overflow) {
    s.offsets_.clear();
    s.classes_.clear();
    return s;
  }

  // Sort by (distance class, lexicographic offset) so probes walk nearer
  // rings first and the order is deterministic.
  const size_t n = s.classes_.size();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    if (s.classes_[a] != s.classes_[b]) return s.classes_[a] < s.classes_[b];
    return std::lexicographical_compare(
        s.offsets_.begin() + a * dim, s.offsets_.begin() + (a + 1) * dim,
        s.offsets_.begin() + b * dim, s.offsets_.begin() + (b + 1) * dim);
  });
  std::vector<int32_t> sorted_offsets(n * dim);
  std::vector<uint32_t> sorted_classes(n);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(sorted_offsets.data() + i * dim,
                s.offsets_.data() + perm[i] * dim, dim * sizeof(int32_t));
    sorted_classes[i] = s.classes_[perm[i]];
  }
  s.offsets_ = std::move(sorted_offsets);
  s.classes_ = std::move(sorted_classes);
  s.enabled_ = true;
  return s;
}

}  // namespace rpdbscan
