// Randomized proof obligations of the stencil-family prefix reuse (the
// machinery letting every eps-ladder level run against one assembled
// dictionary): filtering a larger family member by the shared integer
// class criterion, `min_dist_class <= ScaledBudget(dim, scale)` — exactly
// what the dictionary's neighborhood-CSR class filter applies — must give
// a fresh enumeration at the smaller scale bit-for-bit, in the same order.
// hierarchy_differential_test checks the same property end-to-end through
// clustering results; this suite checks the offset sets themselves.

#include "core/lattice_stencil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "test_seed.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

constexpr size_t kMaxOffsets = 200000;

/// Largest eps scale whose stencil stays well under kMaxOffsets — the
/// kept-offset count grows like (2 scale sqrt(d) + 3)^d, so high
/// dimensions get a shorter ladder.
double MaxExtraScale(size_t dim) {
  if (dim <= 3) return 1.6;
  return dim == 4 ? 0.8 : 0.5;
}

TEST(StencilPrefixTest, ClassFilteredFamilyEqualsFreshEnumeration) {
  const uint64_t seed = TestSeed(8700);
  SCOPED_TRACE(SeedNote(seed));
  Rng rng(seed);
  for (int round = 0; round < 12; ++round) {
    const size_t dim = 2 + static_cast<size_t>(rng.Uniform(4));  // 2..5
    const double top_scale =
        1.0 + rng.UniformDouble(0.0, MaxExtraScale(dim));
    SCOPED_TRACE("round " + std::to_string(round) + " dim " +
                 std::to_string(dim) + " top scale " +
                 std::to_string(top_scale));
    const LatticeStencil assembled =
        LatticeStencil::CreateScaled(dim, top_scale, kMaxOffsets);
    ASSERT_TRUE(assembled.enabled());

    // Random ladder of sub-scales, each compared against the filtered
    // assembled family.
    for (int level = 0; level < 4; ++level) {
      const double scale = 1.0 + rng.UniformDouble(0.0, top_scale - 1.0);
      const LatticeStencil fresh =
          LatticeStencil::CreateScaled(dim, scale, kMaxOffsets);
      ASSERT_TRUE(fresh.enabled());
      const double budget = LatticeStencil::ScaledBudget(dim, scale);
      std::vector<int32_t> kept_offsets;
      std::vector<uint32_t> kept_classes;
      for (size_t i = 0; i < assembled.num_offsets(); ++i) {
        if (static_cast<double>(assembled.min_dist_class(i)) > budget) {
          continue;
        }
        kept_offsets.insert(kept_offsets.end(), assembled.offset(i),
                            assembled.offset(i) + dim);
        kept_classes.push_back(assembled.min_dist_class(i));
      }
      ASSERT_EQ(kept_classes.size(), fresh.num_offsets())
          << "scale " << scale << ": filtered family size differs from a "
          << "fresh enumeration at that scale";
      // Bit-identical offsets in identical order, not just the same set.
      if (!kept_classes.empty()) {
        EXPECT_EQ(std::memcmp(kept_offsets.data(), fresh.offset(0),
                              kept_offsets.size() * sizeof(int32_t)),
                  0)
            << "scale " << scale;
      }
      for (size_t i = 0; i < kept_classes.size(); ++i) {
        ASSERT_EQ(kept_classes[i], fresh.min_dist_class(i));
      }
    }
  }
}

TEST(StencilPrefixTest, ScaleOneReproducesTheClassicStencil) {
  for (size_t dim = 1; dim <= 5; ++dim) {
    const LatticeStencil classic = LatticeStencil::Create(dim, kMaxOffsets);
    const LatticeStencil scaled =
        LatticeStencil::CreateScaled(dim, 1.0, kMaxOffsets);
    ASSERT_EQ(classic.num_offsets(), scaled.num_offsets()) << "dim " << dim;
    ASSERT_TRUE(classic.enabled());
    EXPECT_EQ(std::memcmp(classic.offset(0), scaled.offset(0),
                          classic.num_offsets() * dim * sizeof(int32_t)),
              0)
        << "dim " << dim;
    // The stencil's own budget admits every enumerated offset, so the
    // class filter vanishes at the full scale.
    for (size_t i = 0; i < scaled.num_offsets(); ++i) {
      ASSERT_LE(static_cast<double>(scaled.min_dist_class(i)),
                scaled.budget());
    }
  }
}

}  // namespace
}  // namespace rpdbscan
