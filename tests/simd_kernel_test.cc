// Scalar-vs-SIMD equivalence of the sub-cell classification kernels: on
// any lane block the detected vector kernel must return the exact same
// densities, first-match verdicts and bounds as the header-inline scalar
// reference — the property that makes SIMD dispatch invisible to
// clustering and serving results, which reach the kernels only through
// the Get*Fn tables.
#include "core/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "io/dataset.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

// One cell's SoA block: `n` real sub-cells padded to the lane width,
// coordinate d's lane at lanes[d * padded + s]. Padding carries +inf
// centers / zero counts, exactly as CellDictionary::Assemble emits them.
struct LaneBlock {
  uint32_t n = 0;
  uint32_t padded = 0;
  std::vector<float> lanes;
  std::vector<uint32_t> counts;
};

LaneBlock RandomBlock(Rng& rng, size_t dim, uint32_t n, double span) {
  LaneBlock b;
  b.n = n;
  b.padded = (n + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
  if (b.padded == 0) b.padded = kSimdLaneWidth;
  b.lanes.assign(static_cast<size_t>(b.padded) * dim, kLanePadCenter);
  b.counts.assign(b.padded, 0);
  for (uint32_t s = 0; s < n; ++s) {
    b.counts[s] = 1 + static_cast<uint32_t>(rng.Uniform(50));
    for (size_t d = 0; d < dim; ++d) {
      b.lanes[d * b.padded + s] =
          static_cast<float>(rng.UniformDouble(0.0, span));
    }
  }
  return b;
}

// Gathered query counts on both sides of the AVX2 multi-count kernel's
// 16-query tile: one query, a partial tile, a full tile, one past it, and
// two full tiles plus one.
constexpr size_t kQueryCounts[] = {1, 15, 16, 17, 33};

/// The gather view of `nq` queries: every other row of a packed buffer of
/// 2 * nq rows, in reverse order, so a kernel that read rows in sequence
/// instead of through qidx would answer for the wrong queries.
std::vector<uint32_t> GatherIndex(size_t nq) {
  std::vector<uint32_t> qidx(nq);
  for (size_t k = 0; k < nq; ++k) {
    qidx[k] = static_cast<uint32_t>(2 * (nq - 1 - k) + 1);
  }
  return qidx;
}

/// Both tiers of the multi-count kernel over one gather view. The scalar
/// reference must equal a per-sub-cell DistanceSquared sum for every
/// query, and the detected tier must equal the scalar one. Every tier of
/// the first-match kernel must say true iff the scalar count is nonzero
/// for some query.
void ExpectTiersAgree(const LaneBlock& b, const std::vector<float>& qs,
                      const std::vector<uint32_t>& qidx, size_t dim,
                      double eps2, const std::string& what) {
  const size_t nq = qidx.size();
  std::vector<uint32_t> want(nq, ~0u);
  std::vector<uint32_t> got(nq, ~0u);
  GetSubcellCountMultiFn(SimdLevel::kScalar, dim)(
      qs.data(), qidx.data(), nq, b.lanes.data(), b.counts.data(), b.padded,
      dim, eps2, want.data());
  GetSubcellCountMultiFn(DetectSimdLevel(), dim)(
      qs.data(), qidx.data(), nq, b.lanes.data(), b.counts.data(), b.padded,
      dim, eps2, got.data());
  for (size_t k = 0; k < nq; ++k) {
    const float* q = qs.data() + static_cast<size_t>(qidx[k]) * dim;
    uint32_t brute = 0;
    for (uint32_t s = 0; s < b.n; ++s) {
      float center[CellCoord::kMaxDim];
      for (size_t d = 0; d < dim; ++d) center[d] = b.lanes[d * b.padded + s];
      if (DistanceSquared(q, center, dim) <= eps2) brute += b.counts[s];
    }
    EXPECT_EQ(brute, want[k]) << what << " k=" << k;
    EXPECT_EQ(want[k], got[k]) << what << " k=" << k;
  }
  const bool any = std::any_of(want.begin(), want.end(),
                               [](uint32_t m) { return m != 0; });
  for (const SimdLevel level : {SimdLevel::kScalar, DetectSimdLevel()}) {
    EXPECT_EQ(any, GetSubcellAnyMatchFn(level, dim)(
                       qs.data(), qidx.data(), nq, b.lanes.data(),
                       b.counts.data(), b.padded, dim, eps2))
        << what << " first match, " << SimdLevelName(level);
  }
}

/// Gathered query k uniform in [0, 1]^dim shifted by 3k along the first
/// axis, so no two lie within 2 of each other; the other rows far away.
std::vector<float> SpreadQueries(Rng& rng, const std::vector<uint32_t>& qidx,
                                 size_t dim) {
  std::vector<float> qs(2 * qidx.size() * dim, -50.0f);
  for (size_t k = 0; k < qidx.size(); ++k) {
    for (size_t d = 0; d < dim; ++d) {
      qs[qidx[k] * dim + d] = static_cast<float>(
          rng.UniformDouble(0.0, 1.0) + (d == 0 ? 3.0 * k : 0.0));
    }
  }
  return qs;
}

/// Two blocks a first-match kernel must read to the end (eps < 1). In
/// the first, the only center within eps of any query sits in the block's
/// last stride, and only the last gathered query reaches it; in the
/// second, every real center is far and only padding slots (zero
/// density) sit on the queries.
void ExpectFirstMatchReadsToTheEnd(Rng& rng, size_t dim,
                                   const std::vector<uint32_t>& qidx,
                                   double eps, const std::string& what) {
  const std::vector<float> qs = SpreadQueries(rng, qidx, dim);
  const float* last = qs.data() + static_cast<size_t>(qidx.back()) * dim;
  auto far_block = [&](uint32_t n) {
    LaneBlock b = RandomBlock(rng, dim, n, 1.0);
    for (uint32_t s = 0; s < n; ++s) {
      for (size_t d = 0; d < dim; ++d) b.lanes[d * b.padded + s] -= 20.0f;
    }
    return b;
  };

  LaneBlock tail = far_block(13);  // slot 12 opens the last stride
  for (size_t d = 0; d < dim; ++d) {
    tail.lanes[d * tail.padded + 12] =
        last[d] + static_cast<float>(0.25 * eps / dim);
  }
  ExpectTiersAgree(tail, qs, qidx, dim, eps * eps, what + " last stride");

  LaneBlock pad = far_block(5);
  for (uint32_t s = pad.n; s < pad.padded; ++s) {
    const float* q =
        qs.data() + static_cast<size_t>(qidx[s % qidx.size()]) * dim;
    for (size_t d = 0; d < dim; ++d) pad.lanes[d * pad.padded + s] = q[d];
  }
  ExpectTiersAgree(pad, qs, qidx, dim, eps * eps, what + " padding");
}

TEST(SimdKernelTest, DetectedLevelMatchesScalarExactly) {
  Rng rng(101);
  for (const size_t dim : {2u, 3u, 4u, 5u, 7u}) {
    const double eps = 0.9;
    for (const size_t nq : kQueryCounts) {
      const std::vector<uint32_t> qidx = GatherIndex(nq);
      for (int trial = 0; trial < 8; ++trial) {
        const uint32_t n = static_cast<uint32_t>(rng.Uniform(23));
        const LaneBlock b = RandomBlock(rng, dim, n, 3.0);
        std::vector<float> qs(2 * nq * dim);
        for (float& v : qs) {
          v = static_cast<float>(rng.UniformDouble(-0.5, 3.5));
        }
        ExpectTiersAgree(b, qs, qidx, dim, eps * eps,
                         "dim=" + std::to_string(dim) +
                             " nq=" + std::to_string(nq) +
                             " trial=" + std::to_string(trial));
      }
      ExpectFirstMatchReadsToTheEnd(
          rng, dim, qidx, eps,
          "dim=" + std::to_string(dim) + " nq=" + std::to_string(nq));
    }
  }
}

TEST(SimdKernelTest, BoundaryDistancesStayBitIdentical) {
  // Each query sits on, or a few ulps off, the eps sphere around one
  // sub-cell center along a random axis: the acute case for any
  // arithmetic re-association. The vector kernel must agree on every <=
  // verdict.
  Rng rng(202);
  for (const size_t dim : {2u, 3u, 5u}) {
    const double eps = 1.0;
    for (const size_t nq : kQueryCounts) {
      const std::vector<uint32_t> qidx = GatherIndex(nq);
      for (int trial = 0; trial < 8; ++trial) {
        const LaneBlock b = RandomBlock(rng, dim, 8, 2.0);
        std::vector<float> qs(2 * nq * dim, 0.0f);
        for (size_t k = 0; k < nq; ++k) {
          float* q = qs.data() + static_cast<size_t>(qidx[k]) * dim;
          const uint32_t s = static_cast<uint32_t>(k % b.n);
          for (size_t d = 0; d < dim; ++d) q[d] = b.lanes[d * b.padded + s];
          const size_t axis = rng.Uniform(dim);
          float on = q[axis] + static_cast<float>(eps);
          const int nudges = static_cast<int>(rng.Uniform(4));
          for (int nudge = 0; nudge < nudges; ++nudge) {
            on = std::nextafter(on, k % 2 == 0 ? 10.0f : -10.0f);
          }
          q[axis] = on;
        }
        ExpectTiersAgree(b, qs, qidx, dim, eps * eps,
                         "dim=" + std::to_string(dim) +
                             " nq=" + std::to_string(nq) +
                             " trial=" + std::to_string(trial));
      }
    }
  }
}

// The per-point bounds Phase II computed before its tile scan, kept as
// the reference: one point against one float MBR, the interval gap (lower
// bound) and the farther face (upper bound) per dimension, squared and
// accumulated in double in dimension order.
void PerPointBounds(const float* q, const float* lo, const float* hi,
                    size_t dim, double* min2, double* max2) {
  double mn = 0.0;
  double mx = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double l = lo[d];
    const double h = hi[d];
    const double v = q[d];
    double gap = 0.0;
    if (v < l) {
      gap = l - v;
    } else if (v > h) {
      gap = v - h;
    }
    mn += gap * gap;
    const double to_lo = v > l ? v - l : l - v;
    const double to_hi = v > h ? v - h : h - v;
    const double far = to_lo > to_hi ? to_lo : to_hi;
    mx += far * far;
  }
  *min2 = mn;
  *max2 = mx;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(SimdKernelTest, GroupBoundsReproducesPerPointBounds) {
  // Phase II's tile scan measures a cell's points against one candidate
  // MBR widened to double, where the per-point scan measured one point
  // against a float MBR. On every tier the group kernel must return
  // exactly the per-point min² and max², bit for bit: members inside the
  // box, on a face, outside it, and at +0 / -0 against boxes with a zero
  // face.
  Rng rng(404);
  for (const SimdLevel level : {SimdLevel::kScalar, DetectSimdLevel()}) {
    const GroupBoundsFn fn = GetGroupBoundsFn(level);
    for (const size_t dim : {2u, 3u, 4u, 5u, 7u, 13u}) {
      for (int trial = 0; trial < 40; ++trial) {
        float lo[CellCoord::kMaxDim];
        float hi[CellCoord::kMaxDim];
        double lo_d[CellCoord::kMaxDim];
        double hi_d[CellCoord::kMaxDim];
        for (size_t d = 0; d < dim; ++d) {
          float a = static_cast<float>(rng.UniformDouble(-1.0, 4.0));
          float b = static_cast<float>(rng.UniformDouble(-1.0, 4.0));
          if (a > b) std::swap(a, b);
          // Some boxes get a face at -0 or +0, so ±0 members sit on it.
          const uint32_t face = rng.Uniform(6);
          if (face == 0 && b >= 0.0f) a = -0.0f;
          if (face == 1 && a <= 0.0f) b = 0.0f;
          lo[d] = a;
          hi[d] = b;
          lo_d[d] = a;
          hi_d[d] = b;
        }
        const size_t num = rng.Uniform(27);
        const size_t stride =
            (num + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
        std::vector<float> qt(stride * dim, 0.0f);
        for (size_t k = 0; k < num; ++k) {
          for (size_t d = 0; d < dim; ++d) {
            float v = 0.0f;
            switch (rng.Uniform(7)) {
              case 0:
                v = lo[d];
                break;
              case 1:
                v = hi[d];
                break;
              case 2:
                v = lo[d] - static_cast<float>(rng.UniformDouble(0.0, 2.0));
                break;
              case 3:
                v = hi[d] + static_cast<float>(rng.UniformDouble(0.0, 2.0));
                break;
              case 4:
                v = rng.Uniform(2) == 0 ? 0.0f : -0.0f;
                break;
              default:
                v = static_cast<float>(rng.UniformDouble(lo[d], hi[d]));
                break;
            }
            qt[d * stride + k] = v;
          }
        }
        std::vector<double> got_min(stride, -1.0);
        std::vector<double> got_max(stride, -1.0);
        fn(qt.data(), stride, num, lo_d, hi_d, dim, got_min.data(),
           got_max.data());
        for (size_t k = 0; k < num; ++k) {
          float q[CellCoord::kMaxDim];
          for (size_t d = 0; d < dim; ++d) q[d] = qt[d * stride + k];
          double want_min = 0.0;
          double want_max = 0.0;
          PerPointBounds(q, lo, hi, dim, &want_min, &want_max);
          EXPECT_EQ(Bits(want_min), Bits(got_min[k]))
              << SimdLevelName(level) << " dim=" << dim
              << " trial=" << trial << " k=" << k;
          EXPECT_EQ(Bits(want_max), Bits(got_max[k]))
              << SimdLevelName(level) << " dim=" << dim
              << " trial=" << trial << " k=" << k;
        }
      }
    }
  }
}

TEST(SimdKernelTest, GroupBoundsMatchesScalarBitExactly) {
  // The grouped box-bounds kernel: transposed member coordinates against
  // one box, min2 AND max2 from the detected tier must be bit-identical
  // doubles to the scalar reference — including members exactly on a box
  // face (one gap exactly zero) and members inside the box (min2 exactly
  // zero, max2 positive).
  Rng rng(505);
  for (const size_t dim : {2u, 3u, 4u, 5u, 7u}) {
    GroupBoundsFn vec = GetGroupBoundsFn(DetectSimdLevel());
    for (int trial = 0; trial < 40; ++trial) {
      const size_t num = rng.Uniform(27);
      const size_t stride =
          (num + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
      double lo[CellCoord::kMaxDim];
      double hi[CellCoord::kMaxDim];
      for (size_t d = 0; d < dim; ++d) {
        double a = rng.UniformDouble(-1.0, 4.0);
        double b = rng.UniformDouble(-1.0, 4.0);
        if (a > b) std::swap(a, b);
        lo[d] = a;
        hi[d] = b;
      }
      std::vector<float> qt(stride * dim, 0.0f);
      for (size_t k = 0; k < stride; ++k) {
        for (size_t d = 0; d < dim; ++d) {
          float v = static_cast<float>(rng.UniformDouble(-1.0, 4.0));
          // A third of the coordinates land exactly on a box face, and
          // a third strictly inside the interval — the equality and
          // in-box cases where the max selects must agree.
          const uint32_t pick = rng.Uniform(6);
          if (pick == 0) v = static_cast<float>(lo[d]);
          if (pick == 1) v = static_cast<float>(hi[d]);
          if (pick == 2 || pick == 3) {
            v = static_cast<float>(
                rng.UniformDouble(lo[d], std::max(lo[d], hi[d])));
          }
          qt[d * stride + k] = v;
        }
      }
      std::vector<double> want_min(stride, -1.0), want_max(stride, -1.0);
      std::vector<double> got_min(stride, -1.0), got_max(stride, -1.0);
      GroupBoundsScalar(qt.data(), stride, num, lo, hi, dim,
                        want_min.data(), want_max.data());
      vec(qt.data(), stride, num, lo, hi, dim, got_min.data(),
          got_max.data());
      for (size_t k = 0; k < num; ++k) {
        EXPECT_EQ(want_min[k], got_min[k])
            << "dim=" << dim << " trial=" << trial << " k=" << k;
        EXPECT_EQ(want_max[k], got_max[k])
            << "dim=" << dim << " trial=" << trial << " k=" << k;
      }
    }
  }
}

/// A fragment of `count` boxes in SubDictionary::cell_mbr's layout (per
/// box dim lo floats, then dim hi floats) around the source box [lo, hi]:
/// per dimension a box touches the source from above or below, copies
/// its interval, or spans a random one; box 0 is the source box itself.
std::vector<float> BoxesAround(Rng& rng, const float* lo, const float* hi,
                               size_t dim, size_t count) {
  std::vector<float> boxes(count * 2 * dim);
  for (size_t b = 0; b < count; ++b) {
    float* blo = boxes.data() + b * 2 * dim;
    float* bhi = blo + dim;
    for (size_t d = 0; d < dim; ++d) {
      const float width = static_cast<float>(rng.UniformDouble(0.0, 3.0));
      const uint32_t pick = b == 0 ? 2 : rng.Uniform(6);
      if (pick == 0) {  // touches the source's hi face
        blo[d] = hi[d];
        bhi[d] = hi[d] + width;
      } else if (pick == 1) {  // touches the source's lo face
        blo[d] = lo[d] - width;
        bhi[d] = lo[d];
      } else if (pick == 2) {  // the source's own interval
        blo[d] = lo[d];
        bhi[d] = hi[d];
      } else {
        float a = static_cast<float>(rng.UniformDouble(-4.0, 8.0));
        float c = static_cast<float>(rng.UniformDouble(-4.0, 8.0));
        if (a > c) std::swap(a, c);
        blo[d] = a;
        bhi[d] = c;
      }
    }
  }
  return boxes;
}

/// Checks one tier's BoxPairBoundsFn over the candidates `ids` of
/// `boxes` against the scalar reference, bit for bit, and its disjoint
/// and contained verdicts at every threshold of `disjoint2s` (plus one
/// ulp either side of each candidate's own min² and max²) against
/// MbrPairDistBounds' early-exit verdict.
void ExpectBoxPairTierMatches(SimdLevel level, const float* lo,
                              const float* hi, const std::vector<float>& boxes,
                              const std::vector<uint32_t>& ids, size_t dim,
                              const std::vector<double>& disjoint2s,
                              const std::string& what) {
  const size_t n = ids.size();
  std::vector<double> want_min(n, -1.0), want_max(n, -1.0);
  std::vector<double> got_min(n + 4, -1.0), got_max(n + 4, -1.0);
  BoxPairBoundsScalar(lo, hi, boxes.data(), ids.data(), n, dim,
                      want_min.data(), want_max.data());
  GetBoxPairBoundsFn(level)(lo, hi, boxes.data(), ids.data(), n, dim,
                            got_min.data(), got_max.data());
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < n; ++k) {
    const std::string at =
        what + " " + SimdLevelName(level) + " k=" + std::to_string(k);
    ASSERT_EQ(Bits(want_min[k]), Bits(got_min[k])) << at;
    ASSERT_EQ(Bits(want_max[k]), Bits(got_max[k])) << at;
    const float* b = boxes.data() + static_cast<size_t>(ids[k]) * 2 * dim;
    std::vector<double> thresholds = disjoint2s;
    for (const double v : {want_min[k], want_max[k]}) {
      thresholds.push_back(std::nextafter(v, -inf));
      thresholds.push_back(v);
      thresholds.push_back(std::nextafter(v, inf));
    }
    for (const double t : thresholds) {
      double min2 = -1.0;
      double max2 = -1.0;
      const bool kept =
          MbrPairDistBounds(lo, hi, b, b + dim, dim, t, &min2, &max2);
      ASSERT_EQ(kept, !(got_min[k] > t)) << at << " disjoint2=" << t;
      if (kept) {
        ASSERT_EQ(Bits(min2), Bits(got_min[k])) << at;
        ASSERT_EQ(Bits(max2), Bits(got_max[k])) << at;
      }
      // A contained2 at the same threshold: equal bits, equal verdict.
      ASSERT_EQ(want_max[k] <= t, got_max[k] <= t) << at;
    }
  }
  // Nothing past the n-th output is written.
  for (size_t k = n; k < n + 4; ++k) {
    ASSERT_EQ(got_min[k], -1.0) << what << " wrote past n";
    ASSERT_EQ(got_max[k], -1.0) << what << " wrote past n";
  }
}

TEST(SimdKernelTest, BoxPairBoundsMatchesScalarBitExactly) {
  // The kd gather's leaf kernel: one source box against N candidate
  // boxes of one fragment. Every tier must return the scalar reference's
  // min² and max² bit for bit, and min² > disjoint2 must be exactly
  // MbrPairDistBounds' early-exit verdict, at d = 1..16 and N = 1..17
  // (both sides of the 4-lane tail), with candidates touching the source,
  // identical to it, and read through a reversed, gapped id list.
  Rng rng(2424);
  for (size_t dim = 1; dim <= CellCoord::kMaxDim; ++dim) {
    for (size_t n = 1; n <= 17; ++n) {
      float lo[CellCoord::kMaxDim];
      float hi[CellCoord::kMaxDim];
      for (size_t d = 0; d < dim; ++d) {
        float a = static_cast<float>(rng.UniformDouble(-2.0, 6.0));
        float c = static_cast<float>(rng.UniformDouble(-2.0, 6.0));
        if (a > c) std::swap(a, c);
        lo[d] = a;
        hi[d] = c;
      }
      const std::vector<float> boxes = BoxesAround(rng, lo, hi, dim, 2 * n + 3);
      // Every other box, last first, so a kernel that read the boxes in
      // sequence would measure the wrong ones.
      std::vector<uint32_t> ids(n);
      for (size_t k = 0; k < n; ++k) {
        ids[k] = static_cast<uint32_t>(2 * (n - k));
      }
      ids[n / 2] = 0;  // the source box itself
      const double eps2 = rng.UniformDouble(0.5, 4.0 * dim);
      const std::vector<double> disjoint2s = {0.0, eps2 * (1.0 + 1e-9),
                                              eps2 * (1.0 - 1e-9)};
      for (const SimdLevel level : {SimdLevel::kScalar, DetectSimdLevel()}) {
        ExpectBoxPairTierMatches(
            level, lo, hi, boxes, ids, dim, disjoint2s,
            "dim=" + std::to_string(dim) + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(SimdKernelTest, BoxPairBoundsEarlyExitVerdictIsTheFullSums) {
  // A candidate whose first dimension alone already passes disjoint2:
  // MbrPairDistBounds stops there, the kernel sums every dimension, and
  // both must call it disjoint. The later dimensions add gaps of their
  // own, so the full min² is well above the partial one.
  for (size_t dim = 2; dim <= CellCoord::kMaxDim; ++dim) {
    float lo[CellCoord::kMaxDim];
    float hi[CellCoord::kMaxDim];
    std::vector<float> boxes(2 * 2 * dim);
    for (size_t d = 0; d < dim; ++d) {
      lo[d] = 0.0f;
      hi[d] = 1.0f;
      boxes[d] = 0.25f;  // box 0 overlaps the source
      boxes[dim + d] = 0.75f;
      boxes[2 * dim + d] = d == 0 ? 4.0f : 1.5f;  // box 1: gaps 3, 0.5, ...
      boxes[3 * dim + d] = d == 0 ? 5.0f : 2.5f;
    }
    const double partial = 3.0 * 3.0;  // box 1's min² after dimension 0
    const std::vector<uint32_t> ids = {1, 0, 1};
    for (const SimdLevel level : {SimdLevel::kScalar, DetectSimdLevel()}) {
      std::vector<double> min2(ids.size()), max2(ids.size());
      GetBoxPairBoundsFn(level)(lo, hi, boxes.data(), ids.data(), ids.size(),
                                dim, min2.data(), max2.data());
      const double disjoint2 = std::nextafter(partial, 0.0);
      double m = 0.0;
      double x = 0.0;
      EXPECT_FALSE(MbrPairDistBounds(lo, hi, boxes.data() + 2 * dim,
                                     boxes.data() + 3 * dim, dim, disjoint2,
                                     &m, &x));
      EXPECT_GT(min2[0], partial) << SimdLevelName(level) << " dim=" << dim;
      EXPECT_GT(min2[0], disjoint2) << SimdLevelName(level);
      EXPECT_EQ(Bits(min2[0]), Bits(min2[2])) << SimdLevelName(level);
      EXPECT_EQ(min2[1], 0.0) << SimdLevelName(level);
    }
  }
}

}  // namespace
}  // namespace rpdbscan
