// LatticeStencil correctness: the offset set must be exactly the
// brute-force enumeration of all integer offsets whose box-to-box lattice
// gap fits inside eps (independently recomputed two ways — pure integer
// and from the actual grid geometry in doubles), sorted nearest-ring
// first, with the high-dimensionality fallback kicking in exactly at the
// size cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/grid.h"
#include "core/lattice_stencil.h"

namespace rpdbscan {
namespace {

// Independent reference: odometer over the full window [-window, window]^d,
// keeping every non-zero offset with sum_i max(0, |o_i| - 1)^2 <= d. No
// per-axis radius shortcut, no pruning — shaped nothing like the DFS in
// LatticeStencil::Create.
std::set<std::vector<int32_t>> BruteForceOffsets(size_t dim,
                                                 int32_t window) {
  std::set<std::vector<int32_t>> out;
  std::vector<int32_t> o(dim, -window);
  for (;;) {
    uint64_t m = 0;
    bool zero = true;
    for (const int32_t v : o) {
      if (v != 0) zero = false;
      const uint64_t a = static_cast<uint64_t>(v < 0 ? -v : v);
      if (a > 1) m += (a - 1) * (a - 1);
    }
    if (!zero && m <= dim) out.insert(o);
    size_t d = 0;
    while (d < dim && ++o[d] > window) {
      o[d] = -window;
      ++d;
    }
    if (d == dim) break;
  }
  return out;
}

std::set<std::vector<int32_t>> StencilOffsets(const LatticeStencil& s) {
  std::set<std::vector<int32_t>> out;
  for (size_t i = 0; i < s.num_offsets(); ++i) {
    const std::vector<int32_t> o(s.offset(i), s.offset(i) + s.dim());
    EXPECT_TRUE(out.insert(o).second) << "duplicate stencil offset";
  }
  return out;
}

TEST(LatticeStencilTest, MatchesBruteForceEnumeration) {
  for (size_t dim = 1; dim <= 5; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const LatticeStencil s = LatticeStencil::Create(dim, size_t{1} << 20);
    ASSERT_TRUE(s.enabled());
    const int32_t radius =
        1 + static_cast<int32_t>(std::floor(std::sqrt(
                static_cast<double>(dim))));
    const std::set<std::vector<int32_t>> got = StencilOffsets(s);
    for (const std::vector<int32_t>& o : got) {
      for (const int32_t v : o) {
        EXPECT_LE(v < 0 ? -v : v, radius);  // per-axis radius bound
      }
    }
    // Window two cells beyond the radius: proves nothing past the bound
    // belongs in the set either.
    EXPECT_EQ(got, BruteForceOffsets(dim, radius + 2));
  }
}

TEST(LatticeStencilTest, MembershipEqualsGeometricBoxGapCriterion) {
  // The integer criterion must agree with the real geometry it stands in
  // for: an offset is in the stencil iff the box-to-box gap of two cells
  // at that offset (cell side = eps/sqrt(d), computed in doubles from an
  // actual GridGeometry) is within eps up to the query kernel's
  // disjointness margin. An awkward eps exercises rounding.
  for (const size_t dim : {size_t{2}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    auto geom = GridGeometry::Create(dim, 0.73, 0.05);
    ASSERT_TRUE(geom.ok());
    const double side = geom->cell_side();
    const double eps2 = geom->eps() * geom->eps();
    const LatticeStencil s = LatticeStencil::Create(dim, size_t{1} << 20);
    ASSERT_TRUE(s.enabled());
    const std::set<std::vector<int32_t>> got = StencilOffsets(s);
    std::vector<int32_t> o(dim, -5);
    for (;;) {
      bool zero = true;
      double gap2 = 0.0;
      for (const int32_t v : o) {
        if (v != 0) zero = false;
        const int32_t a = v < 0 ? -v : v;
        if (a > 1) {
          const double g = static_cast<double>(a - 1) * side;
          gap2 += g * g;
        }
      }
      if (!zero) {
        EXPECT_EQ(got.count(o) == 1, gap2 <= eps2 * (1.0 + 1e-9))
            << "offset gap2=" << gap2 << " eps2=" << eps2;
      }
      size_t d = 0;
      while (d < dim && ++o[d] > 5) {
        o[d] = -5;
        ++d;
      }
      if (d == dim) break;
    }
  }
}

TEST(LatticeStencilTest, SortedByDistanceClassWithCorrectClasses) {
  const LatticeStencil s = LatticeStencil::Create(3, 8192);
  ASSERT_TRUE(s.enabled());
  ASSERT_GT(s.num_offsets(), 0u);
  EXPECT_EQ(s.min_dist_class(0), 0u);  // nearest ring first: touching cells
  for (size_t i = 0; i < s.num_offsets(); ++i) {
    uint32_t m = 0;
    for (size_t d = 0; d < s.dim(); ++d) {
      const int32_t v = s.offset(i)[d];
      const uint32_t a = static_cast<uint32_t>(v < 0 ? -v : v);
      if (a > 1) m += (a - 1) * (a - 1);
    }
    EXPECT_EQ(s.min_dist_class(i), m);
    if (i > 0) {
      EXPECT_GE(s.min_dist_class(i), s.min_dist_class(i - 1));
    }
  }
}

TEST(LatticeStencilTest, KnownSizesPerDimension) {
  // Closed-form counts (kept-offset counts minus the excluded self):
  // d=2 and d=3 keep their whole window; d=5 is the largest default-on
  // dimensionality.
  EXPECT_EQ(LatticeStencil::Create(2, 8192).num_offsets(), 24u);
  EXPECT_EQ(LatticeStencil::Create(3, 8192).num_offsets(), 124u);
  EXPECT_EQ(LatticeStencil::Create(5, 8192).num_offsets(), 6094u);
}

TEST(LatticeStencilTest, RowsReproduceTheOffsetSet) {
  // Every family member's rows, each expanded to prefix x [-reach,
  // reach] with the zero offset dropped, give back exactly its offset
  // set, each offset once; the prefixes strictly ascend.
  for (size_t dim = 1; dim <= 5; ++dim) {
    for (const double scale : {1.0, 1.25, 1.5, 2.0}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " scale=" + std::to_string(scale));
      const LatticeStencil s =
          LatticeStencil::CreateScaled(dim, scale, size_t{1} << 16);
      if (!s.enabled()) continue;  // d = 5 at the larger scales
      const size_t pre = dim - 1;
      std::set<std::vector<int32_t>> expanded;
      size_t count = 0;
      for (size_t r = 0; r < s.num_rows(); ++r) {
        const int32_t* prefix = s.row_prefix(r);
        if (r > 0) {
          const int32_t* prev = s.row_prefix(r - 1);
          EXPECT_TRUE(std::lexicographical_compare(prev, prev + pre, prefix,
                                                   prefix + pre))
              << "row " << r;
        }
        EXPECT_GE(s.row_reach(r), 1) << "row " << r;
        std::vector<int32_t> o(prefix, prefix + pre);
        o.push_back(0);
        for (int32_t v = -s.row_reach(r); v <= s.row_reach(r); ++v) {
          o[pre] = v;
          if (std::all_of(o.begin(), o.end(),
                          [](int32_t x) { return x == 0; })) {
            continue;
          }
          expanded.insert(o);
          ++count;
        }
      }
      EXPECT_EQ(count, s.num_offsets());
      EXPECT_EQ(expanded, StencilOffsets(s));
    }
  }
  // The 3-d stencil: 25 rows of reach 2.
  const LatticeStencil s3 = LatticeStencil::Create(3, 8192);
  EXPECT_EQ(s3.num_rows(), 25u);
  for (size_t r = 0; r < s3.num_rows(); ++r) EXPECT_EQ(s3.row_reach(r), 2);
}

TEST(LatticeStencilTest, HighDimFallbackTriggers) {
  // d=6 needs 41220 offsets — over the default cap — and d=13 (the
  // TeraLike dimensionality) is astronomically over; both must come back
  // disabled, as must an explicitly tiny or zero cap. Enumeration aborts
  // early, so even d=13 returns promptly.
  EXPECT_FALSE(LatticeStencil::Create(6, 8192).enabled());
  EXPECT_FALSE(LatticeStencil::Create(13, 8192).enabled());
  EXPECT_FALSE(LatticeStencil::Create(2, 3).enabled());
  EXPECT_FALSE(LatticeStencil::Create(2, 0).enabled());
  EXPECT_EQ(LatticeStencil::Create(6, 8192).num_offsets(), 0u);
  // A cap exactly at the set size keeps the stencil enabled; one below
  // disables it.
  EXPECT_TRUE(LatticeStencil::Create(3, 124).enabled());
  EXPECT_FALSE(LatticeStencil::Create(3, 123).enabled());
  // Raising the cap re-enables d=6 and yields the predicted count.
  const LatticeStencil wide = LatticeStencil::Create(6, 65536);
  EXPECT_TRUE(wide.enabled());
  EXPECT_EQ(wide.num_offsets(), 41220u);
}

}  // namespace
}  // namespace rpdbscan
