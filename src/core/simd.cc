#include "core/simd.h"

namespace rpdbscan {
namespace {

bool HostHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel CompiledSimdLevel() {
#ifdef RPDBSCAN_HAVE_AVX2
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel DetectSimdLevel() {
  static const SimdLevel level =
      CompiledSimdLevel() >= SimdLevel::kAvx2 && HostHasAvx2()
          ? SimdLevel::kAvx2
          : SimdLevel::kScalar;
  return level;
}

SubcellCountMultiFn GetSubcellCountMultiFn(SimdLevel level, size_t dim) {
#ifdef RPDBSCAN_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) {
    return simd_internal::GetAvx2CountMultiFn(dim);
  }
#else
  (void)level;
#endif
  switch (dim) {
    case 2:
      return &SubcellCountMultiScalar<2>;
    case 3:
      return &SubcellCountMultiScalar<3>;
    case 4:
      return &SubcellCountMultiScalar<4>;
    case 5:
      return &SubcellCountMultiScalar<5>;
    default:
      return &SubcellCountMultiScalar<0>;
  }
}

SubcellAnyMatchFn GetSubcellAnyMatchFn(SimdLevel level, size_t dim) {
#ifdef RPDBSCAN_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) {
    return simd_internal::GetAvx2AnyMatchFn(dim);
  }
#else
  (void)level;
#endif
  switch (dim) {
    case 2:
      return &SubcellAnyMatchScalar<2>;
    case 3:
      return &SubcellAnyMatchScalar<3>;
    case 4:
      return &SubcellAnyMatchScalar<4>;
    case 5:
      return &SubcellAnyMatchScalar<5>;
    default:
      return &SubcellAnyMatchScalar<0>;
  }
}

GroupBoundsFn GetGroupBoundsFn(SimdLevel level) {
#ifdef RPDBSCAN_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) return &simd_internal::GroupBoundsAvx2;
#else
  (void)level;
#endif
  return &GroupBoundsScalar;
}

BoxPairBoundsFn GetBoxPairBoundsFn(SimdLevel level) {
#ifdef RPDBSCAN_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) return &simd_internal::BoxPairBoundsAvx2;
#else
  (void)level;
#endif
  return &BoxPairBoundsScalar;
}

}  // namespace rpdbscan
