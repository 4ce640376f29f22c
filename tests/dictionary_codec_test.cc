#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "core/phase2.h"
#include "parallel/thread_pool.h"
#include "phase2_oracle.h"
#include "synth/generators.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

struct Built {
  Dataset data{2};
  StatusOr<CellSet> cells = Status::Internal("unset");
  StatusOr<CellDictionary> dict = Status::Internal("unset");

  Built(Dataset ds, double eps, double rho) : data(std::move(ds)) {
    auto geom = GridGeometry::Create(data.dim(), eps, rho);
    EXPECT_TRUE(geom.ok());
    cells = CellSet::Build(data, *geom, 4, 7);
    EXPECT_TRUE(cells.ok());
    dict = CellDictionary::Build(data, *cells);
    EXPECT_TRUE(dict.ok());
  }
};

// Region-query answer (per-cell matched density, by brute force over the
// sub-cells) for comparing two dictionaries.
std::map<uint32_t, uint32_t> Snapshot(const CellDictionary& dict,
                                      const float* q) {
  std::map<uint32_t, uint32_t> out;
  BruteForceRegionQuery(
      dict, q, [&](const DictCell& c, uint32_t n) { out[c.cell_id] += n; });
  return out;
}

TEST(DictionaryCodecTest, RoundTripPreservesStructure) {
  Built b(synth::Blobs(3000, 4, 1.5, 61), 1.0, 0.05);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  auto back = CellDictionary::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_cells(), b.dict->num_cells());
  EXPECT_EQ(back->num_subcells(), b.dict->num_subcells());
  EXPECT_EQ(back->SizeBitsLemma43(), b.dict->SizeBitsLemma43());
  EXPECT_EQ(back->geom().dim(), b.dict->geom().dim());
  EXPECT_DOUBLE_EQ(back->geom().eps(), b.dict->geom().eps());
  EXPECT_DOUBLE_EQ(back->geom().rho(), b.dict->geom().rho());
}

TEST(DictionaryCodecTest, RoundTripPreservesQueries) {
  Built b(synth::Blobs(2500, 3, 1.5, 62), 1.1, 0.05);
  auto back = CellDictionary::Deserialize(b.dict->Serialize());
  ASSERT_TRUE(back.ok());
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const float* q =
        b.data.point(static_cast<size_t>(rng.Uniform(b.data.size())));
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q)) << trial;
  }
}

TEST(DictionaryCodecTest, RoundTripHighDimensional) {
  // 13-d: sub-cell positions exceed 64 bits (91 bits), exercising the
  // two-word bit packing.
  Built b(synth::TeraLike(1500, 63), 20.0, 0.01);
  auto back = CellDictionary::Deserialize(b.dict->Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_subcells(), b.dict->num_subcells());
  for (size_t i = 0; i < 20; ++i) {
    const float* q = b.data.point(i * 7);
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q));
  }
}

TEST(DictionaryCodecTest, WireSizeTracksLemma43) {
  Built b(synth::Blobs(5000, 4, 1.5, 64), 1.0, 0.05);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  const size_t lemma = b.dict->SizeBytesLemma43();
  // The wire format adds a header plus one 32-bit id and one 32-bit
  // sub-cell count per cell beyond Eq. (1)'s accounting.
  const size_t overhead = 64 + 8 * b.dict->num_cells() + 16;
  EXPECT_GE(wire.size(), lemma * 9 / 10);
  EXPECT_LE(wire.size(), lemma + overhead);
}

TEST(DictionaryCodecTest, WireSizeBytesMatchesSerialize) {
  // RunRpDbscan reports WireSizeBytes as its broadcast payload without
  // encoding anything, so it must equal the encoder's output exactly:
  // across dimensionalities, past 64-bit sub-cell ids (13-d TeraLike),
  // and on a one-point dataset.
  auto expect_match = [](Dataset data, double eps) {
    Built b(std::move(data), eps, 0.01);
    SCOPED_TRACE("dim " + std::to_string(b.data.dim()));
    EXPECT_EQ(b.dict->WireSizeBytes(), b.dict->Serialize().size());
  };
  expect_match(synth::Blobs(2000, 4, 1.5, 70, 2), 1.0);
  expect_match(synth::Blobs(2000, 4, 1.5, 71, 3), 1.0);
  expect_match(synth::Blobs(2000, 4, 1.5, 72, 5), 1.5);
  expect_match(synth::TeraLike(1500, 73), 20.0);
  Dataset one(4);
  one.Append({1.5f, -2.0f, 0.25f, 7.0f});
  expect_match(std::move(one), 1.0);
}

TEST(DictionaryCodecTest, Phase2IsUnchangedByTheWireRoundTrip) {
  // Runs query the dictionary they built, so the codec's fidelity for
  // Phase II (what a snapshot loader rebuilds) is pinned here: the decoded
  // dictionary must give the same core flags and cell-graph edges as the
  // one that was encoded, on the stencil engine (d = 3) and on the kd-tree
  // engine (d = 13).
  ThreadPool pool(2);
  auto expect_same = [&pool](Dataset data, double eps, size_t min_pts) {
    Built b(std::move(data), eps, 0.01);
    SCOPED_TRACE("dim " + std::to_string(b.data.dim()));
    auto back = CellDictionary::Deserialize(b.dict->Serialize(),
                                            CellDictionaryOptions(), &pool);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->has_stencil(), b.data.dim() <= 5);
    const Phase2Result built =
        BuildSubgraphs(b.data, *b.cells, *b.dict, min_pts, pool);
    const Phase2Result decoded =
        BuildSubgraphs(b.data, *b.cells, *back, min_pts, pool);
    EXPECT_EQ(built.point_is_core, decoded.point_is_core);
    EXPECT_EQ(built.subgraphs.cell_is_core, decoded.subgraphs.cell_is_core);
    EXPECT_EQ(built.subgraphs.successors, decoded.subgraphs.successors);
    EXPECT_GT(std::count(built.subgraphs.cell_is_core.begin(),
                         built.subgraphs.cell_is_core.end(), 1),
              0);
  };
  expect_same(synth::Blobs(3000, 4, 1.0, 74, 3), 1.0, 15);
  expect_same(synth::TeraLike(1500, 75), 20.0, 10);
}

TEST(DictionaryCodecTest, NegativeCellCoordinatesSurvive) {
  Dataset ds(2);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    ds.Append({static_cast<float>(rng.UniformDouble(-50, 50)),
               static_cast<float>(rng.UniformDouble(-50, 50))});
  }
  Built b(std::move(ds), 2.0, 0.1);
  auto back = CellDictionary::Deserialize(b.dict->Serialize());
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < 20; ++i) {
    const float* q = b.data.point(i);
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q));
  }
}

TEST(DictionaryCodecTest, RejectsBadMagic) {
  Built b(synth::Blobs(200, 2, 1.5, 65), 1.0, 0.1);
  std::vector<uint8_t> wire = b.dict->Serialize();
  wire[0] ^= 0xFF;
  EXPECT_FALSE(CellDictionary::Deserialize(wire).ok());
}

TEST(DictionaryCodecTest, RejectsBadVersion) {
  Built b(synth::Blobs(200, 2, 1.5, 66), 1.0, 0.1);
  std::vector<uint8_t> wire = b.dict->Serialize();
  wire[4] = 0x7F;
  EXPECT_FALSE(CellDictionary::Deserialize(wire).ok());
}

TEST(DictionaryCodecTest, RejectsEmptyAndTinyBuffers) {
  EXPECT_FALSE(CellDictionary::Deserialize({}).ok());
  EXPECT_FALSE(CellDictionary::Deserialize({0x44, 0x44, 0x50, 0x52}).ok());
}

TEST(DictionaryCodecTest, RejectsAllTruncations) {
  // Every strict prefix of a valid buffer must be rejected, never crash.
  Built b(synth::Blobs(300, 3, 1.5, 67), 1.0, 0.1);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  for (size_t len = 0; len < wire.size();
       len += (len < 64 ? 1 : 97)) {  // dense near the header, then strided
    const std::vector<uint8_t> prefix(wire.begin(), wire.begin() + len);
    EXPECT_FALSE(CellDictionary::Deserialize(prefix).ok())
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(DictionaryCodecTest, FuzzRandomCorruptionNeverCrashes) {
  Built b(synth::Blobs(400, 3, 1.5, 68), 1.0, 0.1);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupt = wire;
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      corrupt[rng.Uniform(corrupt.size())] ^=
          static_cast<uint8_t>(1u << rng.Uniform(8));
    }
    // Must either fail cleanly or decode into *some* structurally valid
    // dictionary; both are fine, crashing/UB is not.
    auto r = CellDictionary::Deserialize(corrupt);
    if (r.ok()) {
      EXPECT_EQ(r->num_cells() == 0, false);
    }
  }
}

TEST(DictionaryCodecTest, DeserializeHonorsReceiverOptions) {
  Built b(synth::Blobs(4000, 5, 1.5, 69), 0.8, 0.1);
  CellDictionaryOptions small;
  small.max_cells_per_subdict = 16;
  auto back = CellDictionary::Deserialize(b.dict->Serialize(), small);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(back->num_subdictionaries(),
            b.dict->num_subdictionaries());
  // Queries unchanged regardless of fragmentation.
  for (size_t i = 0; i < 10; ++i) {
    const float* q = b.data.point(i * 31);
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q));
  }
}

}  // namespace
}  // namespace rpdbscan
