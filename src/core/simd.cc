#include "core/simd.h"

#include <cstdlib>
#include <cstring>

namespace rpdbscan {
namespace {

bool ForceScalarEnv() {
  // Re-read on every detection call: the equivalence tests flip this
  // mid-process to compare both dispatch outcomes.
  const char* v = std::getenv("RPDBSCAN_FORCE_SCALAR");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

bool HostHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
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
  if (ForceScalarEnv()) return SimdLevel::kScalar;
  if (CompiledSimdLevel() >= SimdLevel::kAvx2 && HostHasAvx2()) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kScalar;
}

SubcellCountFn GetSubcellCountFn(SimdLevel level, size_t dim) {
#ifdef RPDBSCAN_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) return simd_internal::GetAvx2CountFn(dim);
#else
  (void)level;
#endif
  switch (dim) {
    case 2:
      return &SubcellCountScalar<2>;
    case 3:
      return &SubcellCountScalar<3>;
    case 4:
      return &SubcellCountScalar<4>;
    case 5:
      return &SubcellCountScalar<5>;
    default:
      return &SubcellCountScalar<0>;
  }
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

PointBoundsFn GetPointBoundsFn(SimdLevel level) {
#ifdef RPDBSCAN_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) return &simd_internal::PointBoundsAvx2;
#else
  (void)level;
#endif
  return &PointBoundsScalar;
}

GroupBoundsFn GetGroupBoundsFn(SimdLevel level) {
#ifdef RPDBSCAN_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) return &simd_internal::GroupBoundsAvx2;
#else
  (void)level;
#endif
  return &GroupBoundsScalar;
}

}  // namespace rpdbscan
