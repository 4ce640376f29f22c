#include "core/cell_dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/phase2.h"
#include "neighborhood_sets.h"
#include "phase2_oracle.h"
#include "synth/generators.h"
#include "util/random.h"
#include "verify/audit.h"

namespace rpdbscan {
namespace {

// The per-slot metadata points into the sub-dictionaries' arrays and each
// kd-tree into its cell centers: a copy would keep pointing at the
// source's buffers, a move keeps them in place.
static_assert(!std::is_copy_constructible_v<CellDictionary>);
static_assert(!std::is_copy_assignable_v<CellDictionary>);
static_assert(std::is_nothrow_move_constructible_v<CellDictionary>);
static_assert(!std::is_copy_constructible_v<SubDictionary>);
static_assert(!std::is_copy_assignable_v<SubDictionary>);
static_assert(std::is_nothrow_move_constructible_v<SubDictionary>);

struct Fixture {
  Dataset data{2};
  GridGeometry geom;
  StatusOr<CellSet> cells = Status::Internal("unset");

  Fixture(Dataset ds, double eps, double rho, size_t parts = 4)
      : data(std::move(ds)) {
    auto g = GridGeometry::Create(data.dim(), eps, rho);
    EXPECT_TRUE(g.ok());
    geom = *g;
    cells = CellSet::Build(data, geom, parts, 7);
    EXPECT_TRUE(cells.ok());
  }
};

// Reference (eps,rho)-region query: for every point, recompute every
// sub-cell center from raw points and sum densities of centers within eps.
// Mirrors Def. 5.1 with no indexing, no skipping, no containment fast path.
std::map<uint32_t, uint32_t> BruteQuery(const Fixture& f, const float* q) {
  std::map<uint32_t, uint32_t> per_cell;
  const double eps2 = f.geom.eps() * f.geom.eps();
  for (uint32_t cid = 0; cid < f.cells->num_cells(); ++cid) {
    const CellData& cell = f.cells->cell(cid);
    // Histogram sub-cells of this cell.
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> hist;
    std::map<std::pair<uint64_t, uint64_t>, SubcellId> ids;
    for (const uint32_t pid : cell.point_ids) {
      const SubcellId sc = f.geom.SubcellOf(f.data.point(pid), cell.coord);
      ++hist[{sc.hi, sc.lo}];
      ids[{sc.hi, sc.lo}] = sc;
    }
    uint32_t matched = 0;
    for (const auto& kv : hist) {
      float center[CellCoord::kMaxDim];
      f.geom.SubcellCenter(cell.coord, ids[kv.first], center);
      if (DistanceSquared(q, center, f.data.dim()) <= eps2) {
        matched += kv.second;
      }
    }
    if (matched > 0) per_cell[cid] = matched;
  }
  return per_cell;
}

// The same query over the dictionary's own sub-cells (BruteForceRegionQuery).
std::map<uint32_t, uint32_t> DictQuery(const CellDictionary& dict,
                                       const float* q) {
  std::map<uint32_t, uint32_t> per_cell;
  BruteForceRegionQuery(dict, q, [&](const DictCell& c, uint32_t matched) {
    per_cell[c.cell_id] += matched;
  });
  return per_cell;
}

// The cell ids of QueryBoxSlots' candidates for the point box of `q`,
// ascending.
std::vector<uint32_t> BoxCandidates(const CellDictionary& dict,
                                    const float* q) {
  std::vector<uint32_t> slots;
  dict.QueryBoxSlots(q, q, &slots);
  std::vector<uint32_t> ids;
  for (const uint32_t slot : slots) {
    ids.push_back(dict.cell_refs()[slot].cell_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(CellDictionaryTest, CountsMatchData) {
  Fixture f(synth::Blobs(3000, 4, 2.0, 1), /*eps=*/1.0, /*rho=*/0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->num_cells(), f.cells->num_cells());
  size_t total = 0;
  for (const SubDictionary& sd : dict->subdictionaries()) {
    for (const DictCell& c : sd.cells()) {
      total += c.total_count;
      uint32_t from_subcells = 0;
      for (uint32_t s = c.subcell_begin; s < c.subcell_end; ++s) {
        from_subcells += sd.subcells()[s].count;
      }
      EXPECT_EQ(from_subcells, c.total_count);
      EXPECT_EQ(c.total_count,
                f.cells->cell(c.cell_id).point_ids.size());
    }
  }
  EXPECT_EQ(total, f.data.size());
}

TEST(CellDictionaryTest, QueryMatchesBruteForce) {
  Fixture f(synth::Blobs(2000, 3, 2.0, 2), /*eps=*/1.2, /*rho=*/0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t pid = static_cast<uint32_t>(rng.Uniform(f.data.size()));
    const float* q = f.data.point(pid);
    EXPECT_EQ(DictQuery(*dict, q), BruteQuery(f, q)) << "trial " << trial;
  }
}

TEST(CellDictionaryTest, QueryMatchesBruteForceOffDataPoints) {
  Fixture f(synth::Blobs(1500, 3, 2.0, 5), /*eps=*/0.9, /*rho=*/0.1);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  Rng rng(4);
  for (int trial = 0; trial < 25; ++trial) {
    const float q[2] = {static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100))};
    EXPECT_EQ(DictQuery(*dict, q), BruteQuery(f, q)) << "trial " << trial;
  }
}

TEST(CellDictionaryTest, DefragAndSkippingDoNotChangeResults) {
  Fixture f(synth::Blobs(2000, 4, 2.0, 6), /*eps=*/1.0, /*rho=*/0.05);
  CellDictionaryOptions plain;
  plain.defragment = false;
  plain.enable_skipping = false;
  CellDictionaryOptions tuned;
  tuned.defragment = true;
  tuned.enable_skipping = true;
  tuned.max_cells_per_subdict = 64;
  auto d1 = CellDictionary::Build(f.data, *f.cells, plain);
  auto d2 = CellDictionary::Build(f.data, *f.cells, tuned);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->num_subdictionaries(), 1u);
  EXPECT_GT(d2->num_subdictionaries(), 1u);
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t pid = static_cast<uint32_t>(rng.Uniform(f.data.size()));
    const float* q = f.data.point(pid);
    EXPECT_EQ(DictQuery(*d1, q), DictQuery(*d2, q));
    // A skipped fragment holds only cells the node tests would drop, so
    // the kd candidates are the same cells either way.
    const std::vector<uint32_t> candidates = BoxCandidates(*d1, q);
    EXPECT_EQ(candidates, BoxCandidates(*d2, q));
    // Every cell with a matched sub-cell is a candidate.
    for (const auto& [cid, matched] : DictQuery(*d1, q)) {
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), cid))
          << "cell " << cid;
    }
  }
}

TEST(CellDictionaryTest, SkippingVisitsFewerSubdictionaries) {
  Fixture f(synth::Blobs(4000, 6, 1.5, 7), /*eps=*/0.8, /*rho=*/0.1);
  CellDictionaryOptions opts;
  opts.max_cells_per_subdict = 32;
  auto with = CellDictionary::Build(f.data, *f.cells, opts);
  opts.enable_skipping = false;
  auto without = CellDictionary::Build(f.data, *f.cells, opts);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  const CellCoord& coord = f.cells->cell(0).coord;
  const int64_t with_slot = with->FindCellRefIndex(coord);
  const int64_t without_slot = without->FindCellRefIndex(coord);
  ASSERT_GE(with_slot, 0);
  ASSERT_GE(without_slot, 0);
  CandidateCellList list;
  EXPECT_LT(with->QueryCell(static_cast<uint32_t>(with_slot), &list),
            without->QueryCell(static_cast<uint32_t>(without_slot), &list));
}

TEST(CellDictionaryTest, SizeFormulaLemma43) {
  Fixture f(synth::Blobs(1000, 3, 2.0, 8), /*eps=*/1.0, /*rho=*/0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  const size_t d = 2;
  const size_t h = 6;  // rho=0.05 -> h=6
  const size_t expect_bits =
      32 * (dict->num_cells() + dict->num_subcells()) +
      32 * d * dict->num_cells() + d * (h - 1) * dict->num_subcells();
  EXPECT_EQ(dict->SizeBitsLemma43(), expect_bits);
  EXPECT_EQ(dict->SizeBytesLemma43(), (expect_bits + 7) / 8);
}

TEST(CellDictionaryTest, DictionaryIsSmallerThanDataAtScale) {
  // Table 5's premise: the dictionary compresses the data set. With
  // rho = 0.10 and clustered data, many points share sub-cells.
  Fixture f(synth::Blobs(50000, 5, 1.0, 9), /*eps=*/2.0, /*rho=*/0.10);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  EXPECT_LT(dict->SizeBytesLemma43(), f.data.PayloadBytes());
}

TEST(CellDictionaryTest, LargerEpsShrinksDictionary) {
  // The paper's observation (Sec. 7.2.1): dictionaries get more compact as
  // eps grows because (sub-)cells grow.
  const Dataset ds = synth::Blobs(20000, 5, 1.0, 10);
  size_t prev = SIZE_MAX;
  for (const double eps : {0.5, 1.0, 2.0, 4.0}) {
    Fixture f(ds, eps, 0.05);
    auto dict = CellDictionary::Build(f.data, *f.cells);
    ASSERT_TRUE(dict.ok());
    const size_t bytes = dict->SizeBytesLemma43();
    EXPECT_LT(bytes, prev) << "eps=" << eps;
    prev = bytes;
  }
}

TEST(CellDictionaryTest, RejectsZeroBudget) {
  Fixture f(synth::Blobs(100, 2, 2.0, 11), 1.0, 0.1);
  CellDictionaryOptions opts;
  opts.max_cells_per_subdict = 0;
  EXPECT_FALSE(CellDictionary::Build(f.data, *f.cells, opts).ok());
}

TEST(CellDictionaryTest, MovedDictionaryOutlivesItsSource) {
  // A dictionary moved out of a temporary keeps answering from the moved
  // buffers: the per-slot metadata and the kd-trees still point at live
  // memory once the temporary is gone.
  Fixture f(synth::TeraLike(1500, 13), 40.0, 0.01);
  CellDictionaryOptions opts;
  opts.max_cells_per_subdict = 64;
  auto reference = CellDictionary::Build(f.data, *f.cells, opts);
  ASSERT_TRUE(reference.ok());
  CellDictionary moved = CellDictionary::Build(f.data, *f.cells, opts).value();
  ASSERT_GT(moved.num_subdictionaries(), 1u);
  CandidateCellList want;
  CandidateCellList got;
  const size_t dim = f.data.dim();
  for (uint32_t cid = 0; cid < f.cells->num_cells(); ++cid) {
    const CellCoord& coord = f.cells->cell(cid).coord;
    const int64_t want_slot = reference->FindCellRefIndex(coord);
    const int64_t got_slot = moved.FindCellRefIndex(coord);
    ASSERT_GE(want_slot, 0);
    ASSERT_GE(got_slot, 0);
    const GlobalCellRef& want_ref = reference->cell_refs()[want_slot];
    const GlobalCellRef& got_ref = moved.cell_refs()[got_slot];
    const float* want_mbr = reference->subdictionaries()[want_ref.subdict]
                                .cell_mbr(want_ref.local_cell);
    const float* got_mbr =
        moved.subdictionaries()[got_ref.subdict].cell_mbr(got_ref.local_cell);
    ASSERT_TRUE(std::equal(got_mbr, got_mbr + 2 * dim, want_mbr))
        << "cell " << cid;
    reference->QueryCell(static_cast<uint32_t>(want_slot), &want);
    moved.QueryCell(static_cast<uint32_t>(got_slot), &got);
    ASSERT_EQ(got.always_count, want.always_count) << "cell " << cid;
    ASSERT_EQ(got.always_neighbors, want.always_neighbors) << "cell " << cid;
    ASSERT_EQ(got.cell_ids, want.cell_ids) << "cell " << cid;
    ASSERT_EQ(BoxCandidates(moved, f.data.point(cid)),
              BoxCandidates(*reference, f.data.point(cid)));
  }
}

TEST(CellDictionaryTest, BoxCandidatesIncludeOwnCell) {
  // A point always finds at least itself (its own sub-cell's density),
  // and its home cell is one of its kd candidates.
  Fixture f(synth::Blobs(500, 2, 2.0, 12), 1.0, 0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  std::vector<uint32_t> slots;
  for (size_t i = 0; i < 20; ++i) {
    const float* p = f.data.point(i);
    uint64_t density = 0;
    BruteForceRegionQuery(*dict, p,
                          [&](const DictCell&, uint32_t m) { density += m; });
    EXPECT_GE(density, 1u);
    const int64_t home = dict->FindCellRefIndex(f.geom.CellOf(p));
    ASSERT_GE(home, 0);
    dict->QueryBoxSlots(p, p, &slots);
    EXPECT_NE(std::find(slots.begin(), slots.end(),
                        static_cast<uint32_t>(home)),
              slots.end());
  }
}


// Every cell's dictionary entry, in dense cell-id order.
std::vector<CellEntry> EntriesOf(const Fixture& f) {
  std::vector<CellEntry> entries;
  for (uint32_t id = 0; id < f.cells->num_cells(); ++id) {
    entries.push_back(
        CellDictionary::MakeCellEntry(f.data, f.geom, f.cells->cell(id), id));
  }
  return entries;
}

// Each slot's stencil neighborhood list exactly as stored, slot order.
std::vector<std::vector<uint32_t>> RawNeighborhoods(
    const CellDictionary& dict) {
  std::vector<std::vector<uint32_t>> out(dict.num_cells());
  for (size_t slot = 0; slot < dict.num_cells(); ++slot) {
    size_t count = 0;
    const uint32_t* nbr = dict.StencilNeighborsOf(slot, &count);
    out[slot].assign(nbr, nbr + count);
  }
  return out;
}

TEST(CellDictionaryTest, PriorCarriesNeighborhoodsLikeAFreshBuild) {
  // A dictionary assembled over a prior prefix of its cells equals a
  // from-scratch Build: same wire bytes, same neighbor set per cell. With
  // no new cells every list is carried over, with a few nearly all, with
  // half new the swept windows and the carried lists meet in the middle.
  struct Case {
    size_t dim;
    double eps;
    size_t n;
  };
  for (const Case c : {Case{1, 0.5, 2000}, Case{2, 1.0, 3000},
                       Case{3, 2.0, 3000}, Case{4, 3.0, 1500},
                       Case{5, 4.0, 1200}}) {
    SCOPED_TRACE("dim " + std::to_string(c.dim));
    Fixture f(synth::Blobs(c.n, 5, 3.0, 20 + c.dim, c.dim), c.eps, 0.05);
    CellDictionaryOptions opts;
    opts.max_cells_per_subdict = 64;  // slots far from cell-id order
    ThreadPool pool(3);
    auto fresh = CellDictionary::Build(f.data, *f.cells, opts, &pool);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(fresh->has_stencil());
    ASSERT_GT(fresh->num_subdictionaries(), 1u);
    // The from-scratch CSR does not depend on the thread count.
    auto serial = CellDictionary::Build(f.data, *f.cells, opts);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(RawNeighborhoods(*serial), RawNeighborhoods(*fresh));
    const std::vector<uint8_t> want_bytes = fresh->Serialize();
    const auto want_sets = NeighborIdSets(*fresh);

    const std::vector<CellEntry> all = EntriesOf(f);
    const size_t n = all.size();
    for (const size_t m : {n, n - 3, n / 2}) {
      SCOPED_TRACE(std::to_string(n - m) + " of " + std::to_string(n) +
                   " cells new");
      const std::vector<CellEntry> prefix(all.begin(), all.begin() + m);
      auto prior = CellDictionary::FromEntries(f.geom, prefix, opts, &pool);
      ASSERT_TRUE(prior.ok());
      auto one = CellDictionary::FromEntries(f.geom, all, opts, nullptr,
                                             &*prior);
      auto three =
          CellDictionary::FromEntries(f.geom, all, opts, &pool, &*prior);
      ASSERT_TRUE(one.ok()) << one.status();
      ASSERT_TRUE(three.ok()) << three.status();
      EXPECT_EQ(one->Serialize(), want_bytes);
      EXPECT_EQ(NeighborIdSets(*one), want_sets);
      EXPECT_EQ(RawNeighborhoods(*three), RawNeighborhoods(*one));
    }
  }
}

// Cells for the neighborhood oracle, one sub-cell each: a run along the
// last axis far longer than any row's window 2w + 1 (and than the
// build's chunks of source cells, so a run straddles two), a dense block
// around the origin (negative coordinates included), cells at and next
// to the int32 lattice extremes, and a sparse scatter. The first `*m`
// entries form the prior prefix; prior and new cells alternate along the
// long run and mix everywhere else, and ids follow no lattice order.
std::vector<CellEntry> OracleEntries(size_t dim, uint64_t seed, size_t* m) {
  Rng rng(seed);
  std::set<std::vector<int32_t>> seen;
  std::vector<std::vector<int32_t>> groups[2];  // prior, new
  auto add = [&](const std::vector<int32_t>& c, bool is_new) {
    if (seen.insert(c).second) groups[is_new].push_back(c);
  };
  std::vector<int32_t> c(dim);
  for (int32_t v = -600; v <= 600; ++v) {
    std::fill(c.begin(), c.end(), -1);
    c[dim - 1] = v;
    add(c, v % 2 != 0);
  }
  for (int i = 0; i < 200; ++i) {
    for (int32_t& x : c) x = static_cast<int32_t>(rng.Uniform(8)) - 4;
    add(c, rng.Uniform(2) == 1);
  }
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const int32_t edges[] = {kMin, kMin + 1, kMax - 1, kMax};
  for (int i = 0; i < 60; ++i) {
    for (int32_t& x : c) x = edges[rng.Uniform(4)];
    add(c, rng.Uniform(2) == 1);
  }
  for (int i = 0; i < 60; ++i) {
    for (int32_t& x : c) x = static_cast<int32_t>(rng.Uniform(81)) - 40;
    add(c, rng.Uniform(2) == 1);
  }
  std::vector<CellEntry> entries;
  for (std::vector<std::vector<int32_t>>& group : groups) {
    for (size_t i = group.size(); i > 1; --i) {
      std::swap(group[i - 1], group[rng.Uniform(i)]);
    }
    for (const std::vector<int32_t>& coord : group) {
      CellEntry e;
      e.coord = CellCoord(coord.data(), dim);
      e.cell_id = static_cast<uint32_t>(entries.size());
      e.subcells.push_back(DictSubcell{SubcellId{}, 1});
      entries.push_back(std::move(e));
    }
  }
  *m = groups[0].size();
  return entries;
}

// The oracle, by brute force over all cell pairs and independent of both
// the build's merge-join and the audit's hash probes: b is in a's list
// iff b - a, taken in int64, is an offset of `stencil`. Indexed by cell
// id, sorted, self excluded — NeighborIdSets' shape.
std::vector<std::vector<uint32_t>> BruteForceNeighborIds(
    const std::vector<CellEntry>& entries, const LatticeStencil& stencil) {
  const size_t dim = stencil.dim();
  std::set<std::vector<int64_t>> offsets;
  int64_t reach = 0;
  for (size_t i = 0; i < stencil.num_offsets(); ++i) {
    const int32_t* o = stencil.offset(i);
    offsets.insert(std::vector<int64_t>(o, o + dim));
    for (size_t d = 0; d < dim; ++d) {
      reach = std::max<int64_t>(reach, o[d] < 0 ? -int64_t{o[d]} : o[d]);
    }
  }
  std::vector<std::vector<uint32_t>> out(entries.size());
  std::vector<int64_t> diff(dim);
  for (const CellEntry& a : entries) {
    for (const CellEntry& b : entries) {
      bool near = a.cell_id != b.cell_id;
      for (size_t d = 0; near && d < dim; ++d) {
        diff[d] = int64_t{b.coord[d]} - a.coord[d];
        near = diff[d] >= -reach && diff[d] <= reach;
      }
      if (near && offsets.count(diff) > 0) out[a.cell_id].push_back(b.cell_id);
    }
  }
  return out;
}

TEST(CellDictionaryTest, NeighborhoodsMatchABruteForceOracle) {
  // Every list, with or without a prior and over a chain of epochs,
  // equals the brute-force window; serial and pooled builds store the
  // same raw lists.
  ThreadPool pool(3);
  for (size_t dim = 1; dim <= 5; ++dim) {
    for (const double scale : {1.0, 1.5}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " scale " +
                   std::to_string(scale));
      auto geom = GridGeometry::Create(dim, 1.0, 1.0);
      ASSERT_TRUE(geom.ok());
      CellDictionaryOptions opts;
      opts.max_cells_per_subdict = 32;  // slots far from lattice order
      opts.stencil_eps_scale = scale;
      opts.max_stencil_offsets = size_t{1} << 15;
      size_t m = 0;
      const std::vector<CellEntry> all = OracleEntries(dim, 70 + dim, &m);
      const size_t n = all.size();
      const LatticeStencil stencil =
          LatticeStencil::CreateScaled(dim, scale, opts.max_stencil_offsets);
      ASSERT_TRUE(stencil.enabled());
      const auto want = BruteForceNeighborIds(all, stencil);

      auto serial = CellDictionary::FromEntries(*geom, all, opts);
      auto pooled = CellDictionary::FromEntries(*geom, all, opts, &pool);
      ASSERT_TRUE(serial.ok()) << serial.status();
      ASSERT_TRUE(pooled.ok()) << pooled.status();
      ASSERT_TRUE(serial->has_stencil());
      EXPECT_EQ(NeighborIdSets(*serial), want);
      EXPECT_EQ(RawNeighborhoods(*pooled), RawNeighborhoods(*serial));

      // Priors whose new cells fall between their cells, in the long run
      // and elsewhere: half the cells new, then a few.
      for (const size_t k : {m, n - 3}) {
        SCOPED_TRACE(std::to_string(n - k) + " of " + std::to_string(n) +
                     " cells new");
        const std::vector<CellEntry> prefix(all.begin(), all.begin() + k);
        auto prior = CellDictionary::FromEntries(*geom, prefix, opts, &pool);
        ASSERT_TRUE(prior.ok()) << prior.status();
        EXPECT_EQ(NeighborIdSets(*prior),
                  BruteForceNeighborIds(prefix, stencil));
        auto one =
            CellDictionary::FromEntries(*geom, all, opts, nullptr, &*prior);
        auto three =
            CellDictionary::FromEntries(*geom, all, opts, &pool, &*prior);
        ASSERT_TRUE(one.ok()) << one.status();
        ASSERT_TRUE(three.ok()) << three.status();
        EXPECT_EQ(NeighborIdSets(*one), want);
        EXPECT_EQ(RawNeighborhoods(*three), RawNeighborhoods(*one));
      }

      // A chain of epochs: each prior's lattice order was itself merged.
      const std::vector<CellEntry> first(all.begin(), all.begin() + m / 2);
      const std::vector<CellEntry> second(all.begin(), all.begin() + m);
      auto e0 = CellDictionary::FromEntries(*geom, first, opts, &pool);
      ASSERT_TRUE(e0.ok());
      auto e1 = CellDictionary::FromEntries(*geom, second, opts, &pool, &*e0);
      ASSERT_TRUE(e1.ok());
      auto e2 = CellDictionary::FromEntries(*geom, all, opts, &pool, &*e1);
      ASSERT_TRUE(e2.ok());
      EXPECT_EQ(NeighborIdSets(*e2), want);
    }
  }
}

TEST(CellDictionaryTest, LatticeEdgeCellsAreNotNeighbors) {
  // 1.0 and -1.0 land on INT32_MAX and INT32_MIN: one lattice step apart
  // only if the coordinate wrapped. Each cell's list holds just itself,
  // and the full audit's independent hash-probe oracle agrees.
  Dataset data(1);
  data.Append({1.0f});
  data.Append({-1.0f});
  Fixture f(std::move(data), 4.656612875e-10, 0.01, 2);
  int32_t lo = std::numeric_limits<int32_t>::max();
  int32_t hi = std::numeric_limits<int32_t>::min();
  for (uint32_t id = 0; id < f.cells->num_cells(); ++id) {
    lo = std::min(lo, f.cells->cell(id).coord[0]);
    hi = std::max(hi, f.cells->cell(id).coord[0]);
  }
  ASSERT_EQ(lo, std::numeric_limits<int32_t>::min());
  ASSERT_EQ(hi, std::numeric_limits<int32_t>::max());
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  ASSERT_TRUE(dict->has_stencil());
  EXPECT_EQ(NeighborIdSets(*dict),
            std::vector<std::vector<uint32_t>>(2));
  const AuditReport report =
      AuditDictionary(f.data, *f.cells, *dict, AuditLevel::kFull);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Checks every cell's entry against std::map counts, in the map's
// (hi, lo) order. Returns whether any sub-cell id used the hi word.
bool ExpectEntriesMatchMapHistograms(const Fixture& f) {
  bool hi_used = false;
  for (uint32_t id = 0; id < f.cells->num_cells(); ++id) {
    const CellData& cell = f.cells->cell(id);
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> hist;
    for (const uint32_t pid : cell.point_ids) {
      const SubcellId sc = f.geom.SubcellOf(f.data.point(pid), cell.coord);
      ++hist[{sc.hi, sc.lo}];
      hi_used = hi_used || sc.hi != 0;
    }
    const CellEntry entry =
        CellDictionary::MakeCellEntry(f.data, f.geom, cell, id);
    EXPECT_EQ(entry.cell_id, id);
    EXPECT_TRUE(entry.coord == cell.coord);
    EXPECT_EQ(entry.subcells.size(), hist.size()) << "cell " << id;
    if (entry.subcells.size() != hist.size()) continue;
    size_t i = 0;
    for (const auto& [key, count] : hist) {
      EXPECT_EQ(entry.subcells[i].id.hi, key.first) << "cell " << id;
      EXPECT_EQ(entry.subcells[i].id.lo, key.second) << "cell " << id;
      EXPECT_EQ(entry.subcells[i].count, count) << "cell " << id;
      ++i;
    }
  }
  return hi_used;
}

TEST(CellDictionaryTest, MakeCellEntryMatchesAMapHistogram) {
  // The sorted-run histogram against std::map counts: 13-d ids that use
  // the hi word, h = 1 (every id 0), and a cell whose points all share
  // one sub-cell.
  {
    SCOPED_TRACE("13-d, hi word");
    Fixture f(synth::TeraLike(3000, 17), 40.0, 0.01, 2);
    EXPECT_TRUE(ExpectEntriesMatchMapHistograms(f));
  }
  {
    SCOPED_TRACE("h = 1");
    Fixture f(synth::Blobs(3000, 3, 2.0, 18), 1.0, 1.0, 2);
    EXPECT_EQ(f.geom.bits_per_dim(), 0u);
    ExpectEntriesMatchMapHistograms(f);
  }
  {
    SCOPED_TRACE("one sub-cell");
    Dataset same(2);
    for (int i = 0; i < 50; ++i) same.Append({3.25f, -7.5f});
    Fixture f(std::move(same), 4.0, 0.01, 2);
    ASSERT_EQ(f.cells->num_cells(), 1u);
    ExpectEntriesMatchMapHistograms(f);
    const CellEntry entry =
        CellDictionary::MakeCellEntry(f.data, f.geom, f.cells->cell(0), 0);
    ASSERT_EQ(entry.subcells.size(), 1u);
    EXPECT_EQ(entry.subcells[0].count, 50u);
  }
}

TEST(CellDictionaryTest, PriorThatDoesNotFitIsRejected) {
  Fixture f(synth::Blobs(2000, 5, 3.0, 31, 3), 2.0, 0.05);
  const std::vector<CellEntry> all = EntriesOf(f);
  const std::vector<CellEntry> prefix(all.begin(),
                                      all.begin() + all.size() / 2);
  auto rejects = [&](const std::vector<CellEntry>& entries,
                     const StatusOr<CellDictionary>& prior) {
    EXPECT_TRUE(prior.ok());
    auto got = CellDictionary::FromEntries(
        f.geom, entries, CellDictionaryOptions(), nullptr, &*prior);
    return !got.ok() && got.status().code() == StatusCode::kInvalidArgument;
  };
  auto fits = CellDictionary::FromEntries(f.geom, prefix);
  EXPECT_TRUE(CellDictionary::FromEntries(f.geom, all,
                                          CellDictionaryOptions(), nullptr,
                                          &*fits)
                  .ok());

  // More cells than the entries.
  EXPECT_TRUE(rejects(prefix, CellDictionary::FromEntries(f.geom, all)));
  // A prior cell id at another coordinate.
  std::vector<CellEntry> moved = all;
  int32_t far[CellCoord::kMaxDim];
  std::copy(moved[1].coord.data(), moved[1].coord.data() + 3, far);
  far[0] += 1000;
  moved[1].coord = CellCoord(far, 3);
  EXPECT_TRUE(rejects(moved, fits));
  // Another geometry.
  auto wider = GridGeometry::Create(3, 2.5, 0.05);
  ASSERT_TRUE(wider.ok());
  EXPECT_TRUE(rejects(all, CellDictionary::FromEntries(*wider, prefix)));
  // Another stencil offset family: a scaled one, or none at all.
  CellDictionaryOptions scaled;
  scaled.stencil_eps_scale = 1.5;
  EXPECT_TRUE(rejects(all, CellDictionary::FromEntries(f.geom, prefix, scaled)));
  CellDictionaryOptions no_stencil;
  no_stencil.max_stencil_offsets = 0;
  EXPECT_TRUE(
      rejects(all, CellDictionary::FromEntries(f.geom, prefix, no_stencil)));
}

TEST(CellDictionaryTest, PriorWithoutStencilChangesNothing) {
  // At d >= 6 no stencil is built, so there is nothing to carry over.
  Fixture f(synth::TeraLike(1500, 13), 40.0, 0.01);
  auto fresh = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(fresh.ok());
  ASSERT_FALSE(fresh->has_stencil());
  const std::vector<CellEntry> all = EntriesOf(f);
  auto prior = CellDictionary::FromEntries(
      f.geom, std::vector<CellEntry>(all.begin(), all.begin() + 100));
  ASSERT_TRUE(prior.ok());
  auto got = CellDictionary::FromEntries(f.geom, all, CellDictionaryOptions(),
                                         nullptr, &*prior);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->Serialize(), fresh->Serialize());
}

}  // namespace
}  // namespace rpdbscan
