// Property tests for the streaming ingest path (IngestBuffer /
// CellSet::IngestAppended): every append must leave the cell structures
// BIT-IDENTICAL to a from-scratch CellSet::Build over the accumulated
// points — ids, CSR arrays, partition assignment, everything — including
// under empty batches, duplicate points, cell-overflow into sub-cells,
// and batches that extend the lattice bounds (the key re-encode
// regression: the old layout would silently wrap out-of-bounds offsets
// onto aliased keys). Invariants are double-checked by the kFull
// auditors, and the dictionary assembled from cached per-cell entries
// must serialize byte-identically to one built from scratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "io/dataset.h"
#include "parallel/thread_pool.h"
#include "stream/ingest_buffer.h"
#include "util/random.h"
#include "verify/audit.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

constexpr size_t kPartitions = 8;

Dataset RandomData(size_t n, size_t dim, uint64_t seed, double lo,
                   double hi) {
  Rng rng(seed);
  Dataset data(dim);
  data.Reserve(n);
  std::vector<float> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<float>(rng.UniformDouble(lo, hi));
    data.Append(p.data());
  }
  return data;
}

void AppendAll(const Dataset& src, Dataset* dst) {
  dst->Reserve(dst->size() + src.size());
  for (size_t i = 0; i < src.size(); ++i) dst->Append(src.point(i));
}

/// The bit-identity oracle: every observable of the incrementally grown
/// set must equal a from-scratch Build over the same accumulated data.
void ExpectSameCellSet(const CellSet& got, const CellSet& want) {
  ASSERT_EQ(got.num_cells(), want.num_cells());
  ASSERT_EQ(got.num_points(), want.num_points());
  ASSERT_EQ(got.num_partitions(), want.num_partitions());
  EXPECT_EQ(got.cell_point_offsets(), want.cell_point_offsets());
  EXPECT_EQ(got.point_ids(), want.point_ids());
  for (uint32_t id = 0; id < got.num_cells(); ++id) {
    SCOPED_TRACE("cell " + std::to_string(id));
    ASSERT_TRUE(got.cell(id).coord == want.cell(id).coord);
    ASSERT_EQ(got.cell(id).owner_partition, want.cell(id).owner_partition);
  }
  for (uint32_t pid = 0; pid < got.num_partitions(); ++pid) {
    SCOPED_TRACE("partition " + std::to_string(pid));
    EXPECT_EQ(got.partition(pid), want.partition(pid));
    EXPECT_EQ(got.PartitionPoints(pid), want.PartitionPoints(pid));
  }
}

/// Replays `batches` through IngestAppended and checks after every append:
/// kFull cell-set audit, bit-identity with a from-scratch Build, a correct
/// touched set, and byte-identical dictionaries between the cached-entry
/// path and a scratch Build.
void ReplayAndCheck(const GridGeometry& geom, const Dataset& seed_batch,
                    const std::vector<Dataset>& batches, uint64_t seed) {
  ThreadPool pool(2);
  Dataset accumulated(seed_batch.dim());
  AppendAll(seed_batch, &accumulated);
  auto grown_or =
      CellSet::Build(accumulated, geom, kPartitions, seed, &pool);
  ASSERT_TRUE(grown_or.ok()) << grown_or.status();
  CellSet grown = std::move(*grown_or);

  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const size_t first_new = accumulated.size();
    AppendAll(batches[b], &accumulated);
    std::vector<uint32_t> touched;
    const Status s =
        grown.IngestAppended(accumulated, first_new, &pool, &touched);
    ASSERT_TRUE(s.ok()) << s;

    const AuditReport report =
        AuditCellSet(accumulated, grown, AuditLevel::kFull);
    ASSERT_TRUE(report.ok()) << report.ToString();

    auto scratch_or =
        CellSet::Build(accumulated, geom, kPartitions, seed, &pool);
    ASSERT_TRUE(scratch_or.ok()) << scratch_or.status();
    ExpectSameCellSet(grown, *scratch_or);

    // The touched set is exactly the cells the batch's points land in:
    // ascending, duplicate-free, nothing else.
    std::vector<uint32_t> want_touched;
    for (size_t i = first_new; i < accumulated.size(); ++i) {
      const int64_t id = grown.FindCell(geom.CellOf(accumulated.point(i)));
      ASSERT_GE(id, 0);
      want_touched.push_back(static_cast<uint32_t>(id));
    }
    std::sort(want_touched.begin(), want_touched.end());
    want_touched.erase(
        std::unique(want_touched.begin(), want_touched.end()),
        want_touched.end());
    EXPECT_EQ(touched, want_touched);

    // Dictionary: cached per-cell entries (the stream path) must yield
    // the same wire bytes as a full Build over the accumulated data.
    const CellDictionaryOptions dopts;
    auto scratch_dict_or =
        CellDictionary::Build(accumulated, grown, dopts, &pool);
    ASSERT_TRUE(scratch_dict_or.ok()) << scratch_dict_or.status();
    std::vector<CellEntry> entries(grown.num_cells());
    for (uint32_t id = 0; id < grown.num_cells(); ++id) {
      entries[id] = CellDictionary::MakeCellEntry(accumulated, geom,
                                                  grown.cell(id), id);
    }
    auto entry_dict_or = CellDictionary::FromEntries(
        geom, std::move(entries), dopts, &pool);
    ASSERT_TRUE(entry_dict_or.ok()) << entry_dict_or.status();
    EXPECT_EQ(entry_dict_or->Serialize(), scratch_dict_or->Serialize());
    const AuditReport dict_report = AuditDictionary(
        accumulated, grown, *entry_dict_or, AuditLevel::kFull);
    ASSERT_TRUE(dict_report.ok()) << dict_report.ToString();
  }
}

StatusOr<GridGeometry> Geom(size_t dim) {
  return GridGeometry::Create(dim, /*eps=*/2.0, /*rho=*/0.01);
}

TEST(IngestBufferTest, RandomBatchesStayIdenticalToScratchBuild) {
  const uint64_t seed = TestSeed(0x16e57);
  SCOPED_TRACE(SeedNote(seed));
  for (const size_t dim : {size_t{2}, size_t{3}}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    auto geom = Geom(dim);
    ASSERT_TRUE(geom.ok());
    const Dataset seed_batch = RandomData(400, dim, seed, 0.0, 30.0);
    std::vector<Dataset> batches;
    for (size_t b = 0; b < 4; ++b) {
      batches.push_back(
          RandomData(60 + 30 * b, dim, seed + 1 + b, 0.0, 30.0));
    }
    ReplayAndCheck(*geom, seed_batch, batches, seed);
  }
}

/// Keys over 128 bits: the set is built by hash grouping, so every batch
/// is grouped by hashing as well — and must stay identical to scratch.
TEST(IngestBufferTest, WideKeyBatchesGroupByHashing) {
  const uint64_t seed = TestSeed(0x3a54);
  SCOPED_TRACE(SeedNote(seed));
  auto geom = GridGeometry::Create(16, /*eps=*/0.05, /*rho=*/1.0);
  ASSERT_TRUE(geom.ok());
  const Dataset seed_batch = RandomData(200, 16, seed, 0.0, 100.0);
  auto probe = CellSet::Build(seed_batch, *geom, kPartitions, seed);
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe->breakdown().sorted_path_used);
  std::vector<Dataset> batches;
  for (size_t b = 0; b < 3; ++b) {
    batches.push_back(RandomData(40, 16, seed + 1 + b, 0.0, 100.0));
  }
  Dataset dupes(16);
  for (size_t i = 0; i < seed_batch.size(); i += 5) {
    dupes.Append(seed_batch.point(i));
  }
  batches.push_back(std::move(dupes));
  ReplayAndCheck(*geom, seed_batch, batches, seed);
}

TEST(IngestBufferTest, EmptyBatchIsANoOp) {
  const uint64_t seed = TestSeed(0xe3b7);
  SCOPED_TRACE(SeedNote(seed));
  auto geom = Geom(2);
  ASSERT_TRUE(geom.ok());
  const Dataset seed_batch = RandomData(200, 2, seed, 0.0, 20.0);
  std::vector<Dataset> batches;
  batches.emplace_back(2);  // empty
  batches.push_back(RandomData(50, 2, seed + 1, 0.0, 20.0));
  batches.emplace_back(2);  // empty again, after growth
  ReplayAndCheck(*geom, seed_batch, batches, seed);
}

TEST(IngestBufferTest, DuplicatePointsAppendInOrder) {
  const uint64_t seed = TestSeed(0xd0bb1e);
  SCOPED_TRACE(SeedNote(seed));
  auto geom = Geom(2);
  ASSERT_TRUE(geom.ok());
  const Dataset seed_batch = RandomData(150, 2, seed, 0.0, 15.0);
  // Batch 1: exact copies of existing points (every cell it touches
  // already exists). Batch 2: the same batch AGAIN — duplicates of
  // duplicates.
  Dataset dupes(2);
  for (size_t i = 0; i < seed_batch.size(); i += 3) {
    dupes.Append(seed_batch.point(i));
  }
  std::vector<Dataset> batches;
  Dataset d1(2), d2(2);
  AppendAll(dupes, &d1);
  AppendAll(dupes, &d2);
  batches.push_back(std::move(d1));
  batches.push_back(std::move(d2));
  ReplayAndCheck(*geom, seed_batch, batches, seed);
}

/// Cell overflow into sub-cells: a hot cell keeps absorbing points that
/// spread over many rho-subcells, so its dictionary entry (the subcell
/// histogram) must be rebuilt correctly every epoch while its cell id
/// stays fixed.
TEST(IngestBufferTest, HotCellOverflowsIntoSubcells) {
  const uint64_t seed = TestSeed(0x5ebce11);
  SCOPED_TRACE(SeedNote(seed));
  auto geom = Geom(2);
  ASSERT_TRUE(geom.ok());
  // Cell side is eps/sqrt(dim) ~ 1.41: keep the hot points inside
  // [0.1, 1.3]^2 — one cell — while a sparse background fills others.
  Dataset seed_batch = RandomData(80, 2, seed, 3.0, 40.0);
  AppendAll(RandomData(50, 2, seed + 1, 0.1, 1.3), &seed_batch);
  std::vector<Dataset> batches;
  for (size_t b = 0; b < 3; ++b) {
    batches.push_back(RandomData(120, 2, seed + 2 + b, 0.1, 1.3));
  }
  ReplayAndCheck(*geom, seed_batch, batches, seed);
}

/// Regression for the latent lattice-bounds assumption: before the
/// re-key fix, a batch point outside the build-time bounds was encoded
/// with the frozen key layout, silently wrapping onto an aliased key
/// (wrong grouping, corrupted cells). Now it must trigger exactly one
/// layout rebuild per offending batch and stay bit-identical to scratch.
TEST(IngestBufferTest, OutOfBoundsBatchRekeysInsteadOfWrapping) {
  const uint64_t seed = TestSeed(0x00b5);
  SCOPED_TRACE(SeedNote(seed));
  auto geom = Geom(2);
  ASSERT_TRUE(geom.ok());
  ThreadPool pool(2);
  Dataset accumulated = RandomData(300, 2, seed, 0.0, 10.0);
  auto grown_or =
      CellSet::Build(accumulated, *geom, kPartitions, seed, &pool);
  ASSERT_TRUE(grown_or.ok()) << grown_or.status();
  CellSet grown = std::move(*grown_or);
  ASSERT_EQ(grown.rekeys(), 0u);

  // Batch 1: far outside the seed's bounding box, both directions.
  size_t first_new = accumulated.size();
  AppendAll(RandomData(40, 2, seed + 1, -900.0, -600.0), &accumulated);
  const float far[2] = {4000.0f, 4000.0f};
  accumulated.Append(far);
  ASSERT_TRUE(grown.IngestAppended(accumulated, first_new, &pool).ok());
  EXPECT_EQ(grown.rekeys(), 1u);

  // Batch 2: inside the (now extended) bounds — no further re-key.
  first_new = accumulated.size();
  AppendAll(RandomData(40, 2, seed + 2, 0.0, 10.0), &accumulated);
  ASSERT_TRUE(grown.IngestAppended(accumulated, first_new, &pool).ok());
  EXPECT_EQ(grown.rekeys(), 1u);

  // Batch 3: beyond even the extended bounds — re-keys again.
  first_new = accumulated.size();
  const float farther[2] = {-50000.0f, 80000.0f};
  accumulated.Append(farther);
  ASSERT_TRUE(grown.IngestAppended(accumulated, first_new, &pool).ok());
  EXPECT_EQ(grown.rekeys(), 2u);

  const AuditReport report =
      AuditCellSet(accumulated, grown, AuditLevel::kFull);
  ASSERT_TRUE(report.ok()) << report.ToString();
  auto scratch_or =
      CellSet::Build(accumulated, *geom, kPartitions, seed, &pool);
  ASSERT_TRUE(scratch_or.ok()) << scratch_or.status();
  ExpectSameCellSet(grown, *scratch_or);
}

/// The IngestBuffer wrapper: batch accounting, touched-set accumulation
/// across appends (drained by TakeTouched), and the same scratch-build
/// identity through its own Append path.
TEST(IngestBufferTest, BufferAccumulatesTouchedAcrossAppends) {
  const uint64_t seed = TestSeed(0xb0f);
  SCOPED_TRACE(SeedNote(seed));
  auto geom = Geom(2);
  ASSERT_TRUE(geom.ok());
  ThreadPool pool(2);
  auto buffer_or = IngestBuffer::Create(RandomData(200, 2, seed, 0.0, 20.0),
                                        *geom, kPartitions, seed, &pool);
  ASSERT_TRUE(buffer_or.ok()) << buffer_or.status();
  IngestBuffer buffer = std::move(*buffer_or);
  EXPECT_EQ(buffer.num_batches(), 1u);
  // The seed marks every cell touched.
  std::vector<uint32_t> touched = buffer.TakeTouched();
  EXPECT_EQ(touched.size(), buffer.cells().num_cells());
  EXPECT_TRUE(buffer.TakeTouched().empty());  // drained

  // Two appends (one empty) accumulate into ONE touched set.
  const Dataset b1 = RandomData(40, 2, seed + 1, 0.0, 20.0);
  ASSERT_TRUE(buffer.Append(b1, &pool).ok());
  ASSERT_TRUE(buffer.Append(Dataset(2), &pool).ok());
  const Dataset b2 = RandomData(40, 2, seed + 2, 0.0, 20.0);
  ASSERT_TRUE(buffer.Append(b2, &pool).ok());
  EXPECT_EQ(buffer.num_batches(), 4u);
  EXPECT_EQ(buffer.data().size(), 280u);

  std::vector<uint32_t> want;
  for (size_t i = 200; i < buffer.data().size(); ++i) {
    const int64_t id = buffer.cells().FindCell(
        geom->CellOf(buffer.data().point(i)));
    ASSERT_GE(id, 0);
    want.push_back(static_cast<uint32_t>(id));
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(buffer.TakeTouched(), want);

  auto scratch_or = CellSet::Build(buffer.data(), *geom, kPartitions, seed,
                                   &pool);
  ASSERT_TRUE(scratch_or.ok()) << scratch_or.status();
  ExpectSameCellSet(buffer.cells(), *scratch_or);
  EXPECT_EQ(buffer.rekeys(), 0u);

  // Creating from an empty seed is rejected (epoch 0 needs data).
  EXPECT_FALSE(
      IngestBuffer::Create(Dataset(2), *geom, kPartitions, seed).ok());
  // Dimension mismatch on append is rejected.
  EXPECT_FALSE(buffer.Append(Dataset(3)).ok());

  // A batch with a coordinate that cannot be binned is rejected whole and
  // leaves no trace: the next batch appends as if it never came.
  Dataset bad = RandomData(10, 2, seed + 3, 0.0, 20.0);
  bad.mutable_point(7)[1] = std::numeric_limits<float>::quiet_NaN();
  const Status rejected = buffer.Append(bad, &pool);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("point 287 dimension 1"),
            std::string::npos)
      << rejected;
  EXPECT_EQ(buffer.num_batches(), 4u);
  EXPECT_EQ(buffer.data().size(), 280u);
  ASSERT_TRUE(buffer.Append(RandomData(30, 2, seed + 4, 0.0, 20.0), &pool)
                  .ok());
  auto after_or = CellSet::Build(buffer.data(), *geom, kPartitions, seed,
                                 &pool);
  ASSERT_TRUE(after_or.ok()) << after_or.status();
  ExpectSameCellSet(buffer.cells(), *after_or);
}

TEST(IngestBufferTest, IngestRejectsMismatchedFirstNew) {
  const uint64_t seed = TestSeed(0xbad);
  auto geom = Geom(2);
  ASSERT_TRUE(geom.ok());
  Dataset data = RandomData(50, 2, seed, 0.0, 10.0);
  auto set_or = CellSet::Build(data, *geom, kPartitions, seed);
  ASSERT_TRUE(set_or.ok());
  const float p[2] = {1.0f, 1.0f};
  data.Append(p);
  // Wrong suffix start: claims points already binned are new.
  EXPECT_FALSE(set_or->IngestAppended(data, 10).ok());
  // first_new past the end of the data set.
  EXPECT_FALSE(set_or->IngestAppended(data, data.size() + 1).ok());
}

}  // namespace
}  // namespace rpdbscan
