// AVX2 tier of the sub-cell classification and box-bounds kernels. This
// translation unit is the only one compiled with -mavx2, and deliberately
// WITHOUT -mfma: every multiply-add below is spelled as separate
// _mm256_mul_pd / _mm256_add_pd, and with the FMA ISA unavailable the
// compiler cannot contract them, so each vector lane reproduces its
// scalar reference's recurrence bit for bit.

#include <immintrin.h>

#include <algorithm>

#include "core/simd.h"

namespace rpdbscan {
namespace simd_internal {
namespace {

// One subcell per double lane; each lane accumulates its per-dimension
// squared deltas in dimension order, exactly like the scalar kernel.
// Padding slots hold +inf centers, so their accumulator is +inf and the
// ordered LE compare rejects them. Queries are processed in
// register-resident tiles. Per tile the query broadcasts are hoisted out
// of the stride loop, and per stride the lane loads (and float->double
// widening) are shared by every query of the tile — so classifying nq
// queries against one cell costs nq compute passes but only
// ceil(nq / kTile) passes of lane memory traffic. Matches are accumulated
// as 4x-u32 vectors (compare mask narrowed to 32-bit lanes, ANDed with
// the counts) and summed horizontally once per query at tile end; that
// only reorders commutative u32 additions of the same per-lane terms
// (bounded by the cell's total count, so no overflow at any order), so
// every per-query result is bit-identical to the scalar reference.
template <size_t kDim>
void CountMultiAvx2(const float* qs, const uint32_t* qidx, size_t nq,
                    const float* lanes, const uint32_t* counts,
                    uint32_t padded_n, size_t dim_rt, double eps2,
                    uint32_t* matched_out) {
  const size_t dim = kDim ? kDim : dim_rt;
  const __m256d veps2 = _mm256_set1_pd(eps2);
  constexpr size_t kTile = 16;
  __m256d qb[kTile * CellCoord::kMaxDim];
  __m128i kacc[kTile];
  __m256d cvec[CellCoord::kMaxDim];
  for (size_t k0 = 0; k0 < nq; k0 += kTile) {
    const size_t kt = nq - k0 < kTile ? nq - k0 : kTile;
    for (size_t t = 0; t < kt; ++t) {
      const float* q = qs + static_cast<size_t>(qidx[k0 + t]) * dim;
      for (size_t d = 0; d < dim; ++d) {
        qb[t * dim + d] = _mm256_set1_pd(static_cast<double>(q[d]));
      }
      kacc[t] = _mm_setzero_si128();
    }
    for (uint32_t s = 0; s < padded_n; s += 4) {
      for (size_t d = 0; d < dim; ++d) {
        cvec[d] = _mm256_cvtps_pd(_mm_loadu_ps(lanes + d * padded_n + s));
      }
      const __m128i vcnt = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(counts + s));
      for (size_t t = 0; t < kt; ++t) {
        __m256d acc = _mm256_setzero_pd();
        for (size_t d = 0; d < dim; ++d) {
          const __m256d delta = _mm256_sub_pd(qb[t * dim + d], cvec[d]);
          acc = _mm256_add_pd(acc, _mm256_mul_pd(delta, delta));
        }
        const __m256i hit =
            _mm256_castpd_si256(_mm256_cmp_pd(acc, veps2, _CMP_LE_OQ));
        // Narrow the four 64-bit lane masks to 32-bit (even words of
        // each lane), gate the counts, accumulate.
        const __m128i m32 = _mm_castps_si128(_mm_shuffle_ps(
            _mm_castsi128_ps(_mm256_castsi256_si128(hit)),
            _mm_castsi128_ps(_mm256_extracti128_si256(hit, 1)),
            _MM_SHUFFLE(2, 0, 2, 0)));
        kacc[t] = _mm_add_epi32(kacc[t], _mm_and_si128(m32, vcnt));
      }
    }
    for (size_t t = 0; t < kt; ++t) {
      const __m128i h1 = _mm_add_epi32(
          kacc[t], _mm_shuffle_epi32(kacc[t], _MM_SHUFFLE(1, 0, 3, 2)));
      const __m128i h2 = _mm_add_epi32(
          h1, _mm_shuffle_epi32(h1, _MM_SHUFFLE(2, 3, 0, 1)));
      matched_out[k0 + t] =
          static_cast<uint32_t>(_mm_cvtsi128_si32(h2));
    }
  }
}

// The count kernel's tiles, broadcasts and per-lane arithmetic, but the
// compare masks of a tile's queries are ORed per stride instead of
// accumulated: the first stride in which any query of the tile lies
// within eps of a slot of nonzero density ends the call. Densities are
// loaded only after a center hit, so a stride without one reads nothing
// but the coordinate lanes.
template <size_t kDim>
bool AnyMatchAvx2(const float* qs, const uint32_t* qidx, size_t nq,
                  const float* lanes, const uint32_t* counts,
                  uint32_t padded_n, size_t dim_rt, double eps2) {
  const size_t dim = kDim ? kDim : dim_rt;
  const __m256d veps2 = _mm256_set1_pd(eps2);
  constexpr size_t kTile = 16;
  __m256d qb[kTile * CellCoord::kMaxDim];
  __m256d cvec[CellCoord::kMaxDim];
  for (size_t k0 = 0; k0 < nq; k0 += kTile) {
    const size_t kt = nq - k0 < kTile ? nq - k0 : kTile;
    for (size_t t = 0; t < kt; ++t) {
      const float* q = qs + static_cast<size_t>(qidx[k0 + t]) * dim;
      for (size_t d = 0; d < dim; ++d) {
        qb[t * dim + d] = _mm256_set1_pd(static_cast<double>(q[d]));
      }
    }
    for (uint32_t s = 0; s < padded_n; s += 4) {
      for (size_t d = 0; d < dim; ++d) {
        cvec[d] = _mm256_cvtps_pd(_mm_loadu_ps(lanes + d * padded_n + s));
      }
      __m256d any = _mm256_setzero_pd();
      for (size_t t = 0; t < kt; ++t) {
        __m256d acc = _mm256_setzero_pd();
        for (size_t d = 0; d < dim; ++d) {
          const __m256d delta = _mm256_sub_pd(qb[t * dim + d], cvec[d]);
          acc = _mm256_add_pd(acc, _mm256_mul_pd(delta, delta));
        }
        any = _mm256_or_pd(any, _mm256_cmp_pd(acc, veps2, _CMP_LE_OQ));
      }
      const int hit = _mm256_movemask_pd(any);
      if (hit == 0) continue;
      const __m128i empty = _mm_cmpeq_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + s)),
          _mm_setzero_si128());
      if ((hit & ~_mm_movemask_ps(_mm_castsi128_ps(empty))) != 0) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

SubcellAnyMatchFn GetAvx2AnyMatchFn(size_t dim) {
  switch (dim) {
    case 2:
      return &AnyMatchAvx2<2>;
    case 3:
      return &AnyMatchAvx2<3>;
    case 4:
      return &AnyMatchAvx2<4>;
    case 5:
      return &AnyMatchAvx2<5>;
    default:
      return &AnyMatchAvx2<0>;
  }
}

SubcellCountMultiFn GetAvx2CountMultiFn(size_t dim) {
  switch (dim) {
    case 2:
      return &CountMultiAvx2<2>;
    case 3:
      return &CountMultiAvx2<3>;
    case 4:
      return &CountMultiAvx2<4>;
    case 5:
      return &CountMultiAvx2<5>;
    default:
      return &CountMultiAvx2<0>;
  }
}

// Four group members per iteration, one per double lane, against a
// single box. dlo/dhi are exact subtractions; the min gap selects
// max(dlo, dhi, 0) (exactly one of the two is positive outside the
// interval) and the max gap max(|dlo|, |dhi|) — |x| as a sign-bit mask,
// bit-exact with std::fabs. maxpd returns its SECOND operand when a lane
// compares unordered, so the operand order below (zero first, then the
// member-derived values) propagates NaN exactly like the scalar
// std::max chain in GroupBoundsScalar. Squares and per-dimension
// accumulation run in the scalar recurrence's order, lane by lane.
void GroupBoundsAvx2(const float* qt, size_t stride, size_t num,
                     const double* lo, const double* hi, size_t dim,
                     double* min2_out, double* max2_out) {
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vabs = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  for (size_t k = 0; k < num; k += 4) {
    __m256d mn = vzero;
    __m256d mx = vzero;
    for (size_t d = 0; d < dim; ++d) {
      const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(qt + d * stride + k));
      const __m256d vlo = _mm256_set1_pd(lo[d]);
      const __m256d vhi = _mm256_set1_pd(hi[d]);
      const __m256d dlo = _mm256_sub_pd(vlo, v);
      const __m256d dhi = _mm256_sub_pd(v, vhi);
      const __m256d mind =
          _mm256_max_pd(vzero, _mm256_max_pd(dlo, dhi));
      mn = _mm256_add_pd(mn, _mm256_mul_pd(mind, mind));
      const __m256d maxd = _mm256_max_pd(_mm256_and_pd(dlo, vabs),
                                         _mm256_and_pd(dhi, vabs));
      mx = _mm256_add_pd(mx, _mm256_mul_pd(maxd, maxd));
    }
    _mm256_storeu_pd(min2_out + k, mn);
    _mm256_storeu_pd(max2_out + k, mx);
  }
}

// Four candidate boxes per iteration, one per double lane, against one
// source box. Each box is addressed by a 64-bit offset (id * 2 * dim
// floats), so no fragment size can overflow it, and each dimension's lo
// and hi floats of the four boxes are assembled into one vector each
// (four scalar loads measured faster than a 4-lane gather). A short last
// stride repeats its last candidate in the spare lanes (valid memory,
// never stored). Per lane the arithmetic is MbrPairDistBounds' without
// the early exit: std::max(a, b) is maxpd(b, a) bit for bit (maxpd
// returns its second operand unless the first compares greater), and the
// squares are summed in dimension order.
void BoxPairBoundsAvx2(const float* a_lo, const float* a_hi,
                       const float* boxes, const uint32_t* ids, size_t n,
                       size_t dim, double* min2_out, double* max2_out) {
  const __m256d vzero = _mm256_setzero_pd();
  __m256d alo[CellCoord::kMaxDim];
  __m256d ahi[CellCoord::kMaxDim];
  for (size_t d = 0; d < dim; ++d) {
    alo[d] = _mm256_set1_pd(static_cast<double>(a_lo[d]));
    ahi[d] = _mm256_set1_pd(static_cast<double>(a_hi[d]));
  }
  for (size_t k = 0; k < n; k += 4) {
    const size_t lanes = n - k < 4 ? n - k : 4;
    const float* b[4];
    for (size_t t = 0; t < 4; ++t) {
      const uint32_t id = ids[k + (t < lanes ? t : lanes - 1)];
      b[t] = boxes + static_cast<size_t>(id) * 2 * dim;
    }
    __m256d mn = vzero;
    __m256d mx = vzero;
    for (size_t d = 0; d < dim; ++d) {
      const __m256d lo = _mm256_cvtps_pd(
          _mm_setr_ps(b[0][d], b[1][d], b[2][d], b[3][d]));
      const size_t h = dim + d;
      const __m256d hi = _mm256_cvtps_pd(
          _mm_setr_ps(b[0][h], b[1][h], b[2][h], b[3][h]));
      const __m256d gap = _mm256_max_pd(
          _mm256_max_pd(_mm256_sub_pd(lo, ahi[d]),
                        _mm256_sub_pd(alo[d], hi)),
          vzero);
      mn = _mm256_add_pd(mn, _mm256_mul_pd(gap, gap));
      const __m256d far = _mm256_max_pd(_mm256_sub_pd(hi, alo[d]),
                                        _mm256_sub_pd(ahi[d], lo));
      mx = _mm256_add_pd(mx, _mm256_mul_pd(far, far));
    }
    if (lanes == 4) {
      _mm256_storeu_pd(min2_out + k, mn);
      _mm256_storeu_pd(max2_out + k, mx);
    } else {
      double mn_lanes[4];
      double mx_lanes[4];
      _mm256_storeu_pd(mn_lanes, mn);
      _mm256_storeu_pd(mx_lanes, mx);
      std::copy_n(mn_lanes, lanes, min2_out + k);
      std::copy_n(mx_lanes, lanes, max2_out + k);
    }
  }
}

}  // namespace simd_internal
}  // namespace rpdbscan
