// The ladder's central contract, checked differentially: every rung of
// BuildClusterHierarchy is bit-identical to an independent RunRpDbscan at
// the same geometry with query_eps decoupled to the rung's radius — even
// though the ladder shares one Phase I, one dictionary (stencil family
// assembled out to the top rung) and seeds core marking across levels,
// and the independent runs rebuild everything per setting. An independent
// run assembles its neighborhood CSR at exactly its rung's scale, so every
// rung below the top checks the ladder's class-filtered CSR against an
// unfiltered one. Runs across dimensionalities 2-5.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rp_dbscan.h"
#include "hierarchy/eps_ladder.h"
#include "synth/generators.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

struct LadderCase {
  size_t dim;
  std::vector<double> eps_levels;
  size_t min_pts;
};

TEST(HierarchyDifferentialTest, LevelsMatchIndependentRunsAcrossDims) {
  const uint64_t seed = TestSeed(9800);
  SCOPED_TRACE(SeedNote(seed));
  const std::vector<LadderCase> cases = {
      {2, {0.8, 1.1, 1.5, 2.1}, 10},
      {3, {1.0, 1.3, 1.8}, 12},
      {4, {1.2, 1.5, 1.9}, 14},
      {5, {1.5, 1.8}, 16},
  };
  for (const LadderCase& c : cases) {
    SCOPED_TRACE("dim " + std::to_string(c.dim));
    const Dataset ds =
        synth::Blobs(2500, 3, 1.0, seed + c.dim, c.dim);
    HierarchyOptions ho;
    ho.eps_levels = c.eps_levels;
    ho.min_pts_levels = {c.min_pts};
    ho.num_threads = 2;
    ho.num_partitions = 4;
    auto h = BuildClusterHierarchy(ds, ho);
    ASSERT_TRUE(h.ok()) << h.status();
    ASSERT_EQ(h->levels.size(), c.eps_levels.size());
    std::string err;
    ASSERT_TRUE(h->ValidateForest(&err)) << err;

    for (size_t i = 0; i < h->levels.size(); ++i) {
      RpDbscanOptions o;
      o.eps = c.eps_levels[0];  // the shared grid geometry
      o.query_eps = c.eps_levels[i];
      o.min_pts = c.min_pts;
      o.num_threads = 2;
      o.num_partitions = 4;
      auto independent = RunRpDbscan(ds, o);
      ASSERT_TRUE(independent.ok())
          << "level " << i << ": " << independent.status();
      EXPECT_EQ(h->levels[i].labels, independent->labels)
          << "level " << i << " (eps " << c.eps_levels[i] << ")";
      EXPECT_EQ(h->levels[i].num_clusters, independent->stats.num_clusters)
          << "level " << i;
      EXPECT_EQ(h->levels[i].num_noise_points,
                independent->stats.num_noise_points)
          << "level " << i;
    }
  }
}

TEST(HierarchyDifferentialTest, SampledLadderMatchesSampledIndependentRuns) {
  // The sampled-core mask is a pure function of (cell coord, seed), so
  // every ladder samples identically. The independent run of rung i is
  // rung 1 of an unseeded two-rung ladder {eps_0, eps_i}: the grid of
  // eps_0, the same mask, and nothing carried over from rungs between —
  // the differential contract holds under approximation too.
  const uint64_t seed = TestSeed(10000);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset ds = synth::Blobs(2500, 3, 1.0, seed, 2);
  HierarchyOptions ho;
  ho.eps_levels = {0.9, 1.3, 1.9};
  ho.min_pts_levels = {10};
  ho.num_threads = 2;
  ho.num_partitions = 4;
  ho.sampled_core_fraction = 0.6;
  ho.core_sample_seed = seed;
  auto h = BuildClusterHierarchy(ds, ho);
  ASSERT_TRUE(h.ok()) << h.status();
  for (size_t i = 1; i < h->levels.size(); ++i) {
    HierarchyOptions pair = ho;
    pair.eps_levels = {ho.eps_levels[0], ho.eps_levels[i]};
    pair.seed_from_previous = false;
    auto independent = BuildClusterHierarchy(ds, pair);
    ASSERT_TRUE(independent.ok()) << independent.status();
    EXPECT_FALSE(independent->levels[1].seeded);
    EXPECT_EQ(h->levels[0].labels, independent->levels[0].labels);
    EXPECT_EQ(h->levels[i].labels, independent->levels[1].labels)
        << "level " << i;
  }
}

}  // namespace
}  // namespace rpdbscan
