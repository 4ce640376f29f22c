// Scalar-vs-SIMD equivalence of the sub-cell classification kernels: on
// any lane block the detected vector kernel must return the exact same
// density as the header-inline scalar reference — the property that makes
// SIMD dispatch invisible to clustering results. Also covers the
// end-to-end pipeline guarantee (labels bit-identical with kernels forced
// scalar).
#include "core/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rp_dbscan.h"
#include "synth/generators.h"
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

TEST(SimdKernelTest, DetectedLevelMatchesScalarExactly) {
  Rng rng(101);
  for (const size_t dim : {2u, 3u, 4u, 5u, 7u}) {
    const double eps = 0.9;
    const double eps2 = eps * eps;
    SubcellCountFn scalar = GetSubcellCountFn(SimdLevel::kScalar, dim);
    SubcellCountFn vec = GetSubcellCountFn(DetectSimdLevel(), dim);
    for (int trial = 0; trial < 40; ++trial) {
      const uint32_t n = static_cast<uint32_t>(rng.Uniform(23));
      const LaneBlock b = RandomBlock(rng, dim, n, 3.0);
      float q[CellCoord::kMaxDim];
      for (size_t d = 0; d < dim; ++d) {
        q[d] = static_cast<float>(rng.UniformDouble(-0.5, 3.5));
      }
      EXPECT_EQ(scalar(q, b.lanes.data(), b.counts.data(), b.padded, dim,
                       eps2),
                vec(q, b.lanes.data(), b.counts.data(), b.padded, dim,
                    eps2))
          << "dim=" << dim << " trial=" << trial;
    }
  }
}

TEST(SimdKernelTest, BoundaryDistancesStayBitIdentical) {
  // Centers planted exactly on / just off the eps sphere: the acute case
  // for any arithmetic re-association. The vector kernel must agree on
  // every <= verdict.
  for (const size_t dim : {2u, 3u, 5u}) {
    const double eps = 1.0;
    SubcellCountFn scalar = GetSubcellCountFn(SimdLevel::kScalar, dim);
    SubcellCountFn vec = GetSubcellCountFn(DetectSimdLevel(), dim);
    Rng rng(202);
    for (int trial = 0; trial < 60; ++trial) {
      LaneBlock b = RandomBlock(rng, dim, 8, 2.0);
      float q[CellCoord::kMaxDim] = {};
      for (size_t d = 0; d < dim; ++d) q[d] = 1.0f;
      // Overwrite sub-cell 0 with a point at distance ~eps from q along
      // a random axis, nudged by a few ulps either way.
      const size_t axis = rng.Uniform(dim);
      float on = q[axis] + static_cast<float>(eps);
      for (int nudge = 0; nudge < static_cast<int>(rng.Uniform(4));
           ++nudge) {
        on = std::nextafter(on, trial % 2 == 0 ? 10.0f : -10.0f);
      }
      for (size_t d = 0; d < dim; ++d) {
        b.lanes[d * b.padded] = d == axis ? on : q[d];
      }
      EXPECT_EQ(scalar(q, b.lanes.data(), b.counts.data(), b.padded, dim,
                       eps * eps),
                vec(q, b.lanes.data(), b.counts.data(), b.padded, dim,
                    eps * eps));
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

TEST(SimdKernelTest, PipelineLabelsIdenticalScalarVsDispatch) {
  // The whole point: flipping kernels cannot move a single label.
  for (const size_t dim : {2u, 3u, 5u}) {
    const Dataset ds = synth::Blobs(3000, 4, 1.0, 110 + dim, dim);
    RpDbscanOptions scalar;
    scalar.eps = 1.5;
    scalar.min_pts = 15;
    scalar.num_threads = 2;
    scalar.num_partitions = 8;
    scalar.scalar_kernels = true;
    RpDbscanOptions simd = scalar;
    simd.scalar_kernels = false;
    auto a = RunRpDbscan(ds, scalar);
    auto b = RunRpDbscan(ds, simd);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->stats.simd_kernel, "scalar");
    EXPECT_EQ(b->stats.simd_kernel, SimdLevelName(DetectSimdLevel()));
    EXPECT_EQ(a->labels, b->labels) << "dim=" << dim;
    EXPECT_EQ(a->stats.num_clusters, b->stats.num_clusters);
  }
}

}  // namespace
}  // namespace rpdbscan
