#ifndef RPDBSCAN_CORE_SIMD_H_
#define RPDBSCAN_CORE_SIMD_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/cell_coord.h"

namespace rpdbscan {

/// Vector instruction tier of the sub-cell distance/classification
/// kernels. Dispatch is resolved at runtime: the build may carry AVX2
/// code the host cannot execute (and vice versa the host may offer more
/// than the build compiled).
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

const char* SimdLevelName(SimdLevel level);

/// Highest tier this binary carries code for (decided at configure time:
/// the AVX2 translation unit is only built when the compiler accepts
/// -mavx2).
SimdLevel CompiledSimdLevel();

/// Highest tier usable on this host: compiled-in support intersected with
/// the host CPU's feature set, probed once and cached. This alone picks
/// the tier Phase II and serving run; every tier returns bit-identical
/// results. Only the kernel tests ask for SimdLevel::kScalar explicitly,
/// as the reference the vector tier is compared against.
SimdLevel DetectSimdLevel();

/// Sub-cell coordinate lanes are padded to a multiple of this many slots
/// (the AVX2 double-lane width). Padding slots carry +inf centers and
/// zero densities, so every kernel can run whole vector strides without
/// a scalar tail and padding can never match or contribute.
inline constexpr uint32_t kSimdLaneWidth = 4;

/// Padding values for the lane arrays (see kSimdLaneWidth).
inline constexpr float kLanePadCenter =
    std::numeric_limits<float>::infinity();

/// The exact sub-cell classification kernel of the batched serving path
/// and of pass 1 of Phase II's tile scan. Evaluates `nq` queries against
/// ONE cell's lane-major (SoA) block — `dim` runs of `padded_n` floats,
/// coordinate d's lane at lanes + d * padded_n — in a single invocation,
/// so the lane loads (and their float->double widening) are paid once per
/// vector stride instead of once per query. Query k's coordinates live at
/// qs + qidx[k] * dim — a gather-index view over a packed row-major query
/// buffer, so callers can route any subset of a group through the kernel
/// without copying. Writes matched_out[0..nq): the summed density of the
/// sub-cells whose center lies within sqrt(eps2) of query k, with
/// per-lane arithmetic bit-identical to DistanceSquared (sequential
/// per-dimension double accumulation) on every tier.
using SubcellCountMultiFn = void (*)(const float* qs, const uint32_t* qidx,
                                     size_t nq, const float* lanes,
                                     const uint32_t* counts,
                                     uint32_t padded_n, size_t dim,
                                     double eps2, uint32_t* matched_out);

/// The first-match kernel of Phase II's edge search: true iff some
/// gathered query has a sub-cell center of ONE cell's lane block within
/// sqrt(eps2) — exactly when SubcellCountMultiFn would return a nonzero
/// density for some query. Same operands, same per-lane arithmetic
/// (widen, subtract, square, add in dimension order, ordered <=), and a
/// slot only matches with a nonzero density, so padding never does. The
/// vector tier walks the queries in the count kernel's tiles and returns
/// after the first stride in which any query of the tile matched, so an
/// edge test stops at its first witness instead of counting every slot.
using SubcellAnyMatchFn = bool (*)(const float* qs, const uint32_t* qidx,
                                   size_t nq, const float* lanes,
                                   const uint32_t* counts,
                                   uint32_t padded_n, size_t dim,
                                   double eps2);

/// The group box-bounds kernel: squared min AND max distance from each of
/// `num` group members to ONE axis-aligned box — the per-neighbor
/// pre-drop/containment pass of the grouped serving path and of Phase
/// II's tile scan, vectorized along the member axis. Member coordinates
/// are transposed dimension-major with lane stride `stride` (a multiple
/// of kSimdLaneWidth; dimension d of member k at qt[d * stride + k]); the
/// box is `dim` double intervals [lo[d], hi[d]]. Writes
/// min2_out/max2_out[0..num) — both output arrays (and the qt lanes) must
/// extend to num rounded up to kSimdLaneWidth; the padded tail may
/// receive garbage that callers never read. Per member the recurrence is
/// exact and sequential in dimension order: with dlo = lo - v and dhi =
/// v - hi (each an exact IEEE negation of its counterpart gap), min gap =
/// max(dlo, dhi, 0) and max gap = max(|dlo|, |dhi|) — bit-identical
/// across tiers for finite member coordinates. Non-finite members
/// NaN/inf-poison both sums identically enough that every downstream
/// verdict (pre-drop, containment, lane kernel) coincides on every tier.
using GroupBoundsFn = void (*)(const float* qt, size_t stride, size_t num,
                               const double* lo, const double* hi,
                               size_t dim, double* min2_out,
                               double* max2_out);

/// The box-pair bounds kernel of the kd-tree gather's partial leaves:
/// squared min AND max distance from one source box [a_lo, a_hi] to each
/// of `n` candidate boxes of one fragment, one candidate per double lane.
/// Candidate k's box sits at boxes + ids[k] * 2 * dim — dim lo floats,
/// then dim hi floats, SubDictionary::cell_mbr's layout — with the
/// offset computed in 64 bits, so every fragment size is addressable.
/// Writes exactly min2_out/max2_out[0..n). Each lane runs
/// MbrPairDistBounds' arithmetic in dimension order without its early
/// exit, so every tier returns the same doubles, and min2 > disjoint2 is
/// exactly MbrPairDistBounds' disjoint verdict (see there).
using BoxPairBoundsFn = void (*)(const float* a_lo, const float* a_hi,
                                 const float* boxes, const uint32_t* ids,
                                 size_t n, size_t dim, double* min2_out,
                                 double* max2_out);

/// Kernel lookup for a dimensionality (compile-time-unrolled bodies for
/// d in {2,3,4,5}, a runtime-dim fallback otherwise). Requesting a level
/// above CompiledSimdLevel() degrades to the highest compiled tier.
SubcellCountMultiFn GetSubcellCountMultiFn(SimdLevel level, size_t dim);
/// First-match-kernel lookup, dispatched like GetSubcellCountMultiFn.
SubcellAnyMatchFn GetSubcellAnyMatchFn(SimdLevel level, size_t dim);
/// Group-bounds-kernel lookup (no dimension dispatch: the vector axis is
/// the group-member index).
GroupBoundsFn GetGroupBoundsFn(SimdLevel level);
/// Box-pair-bounds-kernel lookup (no dimension dispatch: the vector axis
/// is the candidate index).
BoxPairBoundsFn GetBoxPairBoundsFn(SimdLevel level);

// ---- Portable reference kernels (header-inline so tests and the scalar
// ---- dispatch table share one definition). Per-lane arithmetic is the
// ---- canonical DistanceSquared recurrence: double-cast per coordinate,
// ---- difference, square, sequential per-dimension accumulation. ----

/// Reference implementation of SubcellCountMultiFn: per gathered query,
/// every lane slot in stride order; the vector tiers are tested against
/// this.
template <size_t kDim>
inline void SubcellCountMultiScalar(const float* qs, const uint32_t* qidx,
                                    size_t nq, const float* lanes,
                                    const uint32_t* counts,
                                    uint32_t padded_n, size_t dim_rt,
                                    double eps2, uint32_t* matched_out) {
  const size_t dim = kDim ? kDim : dim_rt;
  for (size_t k = 0; k < nq; ++k) {
    const float* q = qs + static_cast<size_t>(qidx[k]) * dim;
    uint32_t matched = 0;
    for (uint32_t s = 0; s < padded_n; ++s) {
      double acc = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        const double delta = static_cast<double>(q[d]) -
                             static_cast<double>(lanes[d * padded_n + s]);
        acc += delta * delta;
      }
      matched += acc <= eps2 ? counts[s] : 0u;
    }
    matched_out[k] = matched;
  }
}

/// Reference implementation of SubcellAnyMatchFn: per gathered query,
/// every lane slot in stride order, ending at the first matching slot.
template <size_t kDim>
inline bool SubcellAnyMatchScalar(const float* qs, const uint32_t* qidx,
                                  size_t nq, const float* lanes,
                                  const uint32_t* counts, uint32_t padded_n,
                                  size_t dim_rt, double eps2) {
  const size_t dim = kDim ? kDim : dim_rt;
  for (size_t k = 0; k < nq; ++k) {
    const float* q = qs + static_cast<size_t>(qidx[k]) * dim;
    for (uint32_t s = 0; s < padded_n; ++s) {
      double acc = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        const double delta = static_cast<double>(q[d]) -
                             static_cast<double>(lanes[d * padded_n + s]);
        acc += delta * delta;
      }
      if (acc <= eps2 && counts[s] != 0) return true;
    }
  }
  return false;
}

/// Reference implementation of GroupBoundsFn: per member the branchless
/// double recurrence the grouped serving walk needs — min gap as
/// max(dlo, dhi, 0) (exactly one of dlo/dhi is positive outside the
/// box), max gap as max(|dlo|, |dhi|), squared and accumulated in
/// dimension order.
inline void GroupBoundsScalar(const float* qt, size_t stride, size_t num,
                              const double* lo, const double* hi,
                              size_t dim, double* min2_out,
                              double* max2_out) {
  for (size_t k = 0; k < num; ++k) {
    double mn = 0.0;
    double mx = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double v = static_cast<double>(qt[d * stride + k]);
      const double dlo = lo[d] - v;
      const double dhi = v - hi[d];
      const double mind = std::max(std::max(dlo, dhi), 0.0);
      mn += mind * mind;
      const double maxd = std::max(std::fabs(dlo), std::fabs(dhi));
      mx += maxd * maxd;
    }
    min2_out[k] = mn;
    max2_out[k] = mx;
  }
}

/// Squared distance bounds between two float boxes [a_lo, a_hi] and
/// [b_lo, b_hi], valid for every pair of one point of each: the
/// candidate classification of both Phase II gathers, the kd descent's
/// node tests and the source cell's own center-box test. Per dimension
/// the gap is max(0, alo - hi, lo - ahi) and the far side max(ahi - lo,
/// hi - alo), in double, squared and summed in dimension order.
///
/// Returns false, leaving *min2 / *max2 unset, as soon as the partial
/// min2 exceeds `disjoint2`. Every term is non-negative, and under
/// round-to-nearest a running sum of non-negative terms never decreases,
/// so a partial sum above `disjoint2` means the full sum is above it too;
/// and the last partial sum is the full one. The early exit therefore
/// gives exactly the verdict "full min2 > disjoint2". On sparse
/// high-dimensional data most pairs are settled after a few dimensions.
/// With disjoint2 = +inf it never exits: the reference tier of
/// BoxPairBoundsFn.
inline bool MbrPairDistBounds(const float* a_lo, const float* a_hi,
                              const float* b_lo, const float* b_hi,
                              size_t dim, double disjoint2, double* min2,
                              double* max2) {
  double mn = 0.0;
  double mx = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double lo = b_lo[d];
    const double hi = b_hi[d];
    const double alo = a_lo[d];
    const double ahi = a_hi[d];
    // Both boxes are non-empty, so at most one side has a positive gap;
    // the branch-free max keeps the early-exit branch the only one.
    const double gap = std::max(0.0, std::max(alo - hi, lo - ahi));
    mn += gap * gap;
    if (mn > disjoint2) return false;
    const double far = std::max(ahi - lo, hi - alo);
    mx += far * far;
  }
  *min2 = mn;
  *max2 = mx;
  return true;
}

/// Reference implementation of BoxPairBoundsFn: MbrPairDistBounds per
/// candidate, never exiting early.
inline void BoxPairBoundsScalar(const float* a_lo, const float* a_hi,
                                const float* boxes, const uint32_t* ids,
                                size_t n, size_t dim, double* min2_out,
                                double* max2_out) {
  for (size_t k = 0; k < n; ++k) {
    const float* b = boxes + static_cast<size_t>(ids[k]) * 2 * dim;
    MbrPairDistBounds(a_lo, a_hi, b, b + dim, dim,
                      std::numeric_limits<double>::infinity(), &min2_out[k],
                      &max2_out[k]);
  }
}

namespace simd_internal {
// AVX2 kernel tables, defined in simd_avx2.cc (compiled with -mavx2
// only — deliberately without -mfma, so the compiler cannot contract the
// multiply-add chains and per-lane sums stay bit-identical to the scalar
// recurrence). Declared unconditionally; referenced by the dispatcher
// only when that translation unit was built.
SubcellCountMultiFn GetAvx2CountMultiFn(size_t dim);
SubcellAnyMatchFn GetAvx2AnyMatchFn(size_t dim);
void GroupBoundsAvx2(const float* qt, size_t stride, size_t num,
                     const double* lo, const double* hi, size_t dim,
                     double* min2_out, double* max2_out);
void BoxPairBoundsAvx2(const float* a_lo, const float* a_hi,
                       const float* boxes, const uint32_t* ids, size_t n,
                       size_t dim, double* min2_out, double* max2_out);
}  // namespace simd_internal

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_SIMD_H_
