// End-to-end out-of-core smoke test: clusters an on-disk .rpds data set
// several times larger than the Phase I-1 memory budget and asserts
//  * the labels are bit-identical to the all-in-RAM pipeline, and
//  * the measured peak RSS growth of the external Phase I-1 build stays
//    within the budget plus the (unavoidable) output structures — while
//    the in-RAM build on the same input provably exceeds it.
//
// RSS is measured per build in a forked child (VmHWM is a high-water
// mark: two builds in one process would mask each other), read from
// /proc/self/status before and after the build. Linux resets a child's
// VmHWM to its fork-time RSS, so the delta isolates the build itself.
//
// Under ASan/TSan the allocator and shadow memory dominate RSS, so the
// residency assertions are skipped (bit-identity still runs, smaller).

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/cell_set.h"
#include "core/grid.h"
#include "core/rp_dbscan.h"
#include "io/binary.h"
#include "io/mmap_dataset.h"
#include "synth/generators.h"
#include "util/hash.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RPDBSCAN_UNDER_SANITIZER 1
#endif
#if !defined(RPDBSCAN_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RPDBSCAN_UNDER_SANITIZER 1
#endif
#endif

namespace rpdbscan {
namespace {

uint64_t ReadVmHwmKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// A pure function of everything downstream phases read from a CellSet.
uint64_t CellSetFingerprint(const CellSet& cells) {
  uint64_t h = Fnv1a64(
      reinterpret_cast<const uint8_t*>(cells.cell_point_offsets().data()),
      cells.cell_point_offsets().size() * sizeof(uint64_t));
  h = HashCombine(h, Fnv1a64(reinterpret_cast<const uint8_t*>(
                                 cells.point_ids().data()),
                             cells.point_ids().size() * sizeof(uint32_t)));
  for (uint32_t c = 0; c < cells.num_cells(); ++c) {
    const CellData& cell = cells.cell(c);
    h = HashCombine(h, cell.owner_partition);
    for (size_t d = 0; d < cells.geom().dim(); ++d) {
      h = HashCombine(h, static_cast<uint64_t>(
                             static_cast<int64_t>(cell.coord[d])));
    }
  }
  return h;
}

struct ChildResult {
  int32_t ok = 0;
  uint64_t fingerprint = 0;
  uint64_t hwm_delta_kb = 0;
  uint64_t num_cells = 0;
};

/// Forks, runs Phase I-1 in the child (external under `budget` when
/// `external`, in-RAM over the borrowed view otherwise), and reports the
/// structure fingerprint plus the build's VmHWM growth.
ChildResult RunBuildInChild(const std::string& rpds_path, double eps,
                            bool external, size_t budget,
                            const std::string& spill_dir) {
  int fds[2];
  if (pipe(fds) != 0) return ChildResult{};
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return ChildResult{};
  }
  if (pid == 0) {
    close(fds[0]);
    ChildResult r;
    auto run = [&]() -> bool {
      auto source = MmapDataset::Open(rpds_path);
      if (!source.ok()) return false;
      auto geom = GridGeometry::Create(source->dim(), eps, 0.1);
      if (!geom.ok()) return false;
      const uint64_t before_kb = ReadVmHwmKb();
      StatusOr<CellSet> cells = [&]() {
        if (external) {
          ExternalBuildOptions opts;
          opts.memory_budget_bytes = budget;
          opts.spill_dir = spill_dir;
          return CellSet::BuildExternal(*source, *geom, 16, 7, opts);
        }
        return CellSet::Build(source->BorrowedView(), *geom, 16, 7);
      }();
      if (!cells.ok()) return false;
      r.fingerprint = CellSetFingerprint(*cells);
      r.num_cells = cells->num_cells();
      r.hwm_delta_kb = ReadVmHwmKb() - before_kb;
      return true;
    };
    r.ok = run() ? 1 : 0;
    ssize_t w = write(fds[1], &r, sizeof(r));
    (void)w;
    close(fds[1]);
    _exit(r.ok ? 0 : 2);
  }
  close(fds[1]);
  ChildResult r;
  size_t got = 0;
  while (got < sizeof(r)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&r) + got,
                           sizeof(r) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(r) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return ChildResult{};
  }
  return r;
}

class OocoreE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/oocore_e2e_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    const std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
  }
  void TearDown() override {
    const std::string rm = "rm -rf " + dir_;
    (void)std::system(rm.c_str());
  }

  std::string dir_;
};

TEST_F(OocoreE2eTest, PeakRssBoundedByBudgetOnOversizedInput) {
#ifdef RPDBSCAN_UNDER_SANITIZER
  const size_t n = 60000;
#else
  const size_t n = 1500000;
#endif
  const size_t budget = 4u << 20;
  const Dataset ds = synth::GeoLifeLike(n, 111);
  const std::string path = dir_ + "/big.rpds";
  ASSERT_TRUE(WriteBinary(path, ds).ok());
  const uint64_t payload = ds.size() * ds.dim() * sizeof(float);
#ifndef RPDBSCAN_UNDER_SANITIZER
  ASSERT_GE(payload, 4 * budget) << "input must dwarf the budget";
#endif

  const ChildResult ext =
      RunBuildInChild(path, 2.0, /*external=*/true, budget, dir_);
  ASSERT_EQ(ext.ok, 1) << "external child build failed";
  const ChildResult in_ram =
      RunBuildInChild(path, 2.0, /*external=*/false, 0, dir_);
  ASSERT_EQ(in_ram.ok, 1) << "in-RAM child build failed";

  // Same structures, bit for bit.
  EXPECT_EQ(ext.fingerprint, in_ram.fingerprint);
  EXPECT_EQ(ext.num_cells, in_ram.num_cells);

#ifndef RPDBSCAN_UNDER_SANITIZER
  // The external build may keep resident: its transient buffers (bounded
  // by the budget), the CSR outputs it returns, the CellData/partition
  // vectors (per cell), and one chunk of the mapped payload (inside the
  // budget). Everything else must have been spilled or released.
  const uint64_t output_bytes =
      4 * static_cast<uint64_t>(n) /* point_ids */ +
      ext.num_cells * 160 /* CellData + offsets + index + partitions */;
  const uint64_t slack = 8u << 20;  // allocator + page-cache noise
  const uint64_t limit_kb = (budget + output_bytes + slack) / 1024;
  EXPECT_LE(ext.hwm_delta_kb, limit_kb)
      << "external build RSS grew past the budget (payload="
      << payload / 1024 << "KB)";
  // The in-RAM build over the same mapped input must cost strictly more:
  // it faults the whole payload resident and sorts full-size pair
  // buffers. If the external path ever regresses into loading
  // everything, the two deltas converge and the bound above fires too.
  EXPECT_GT(in_ram.hwm_delta_kb, ext.hwm_delta_kb)
      << "external=" << ext.hwm_delta_kb
      << "KB in-ram=" << in_ram.hwm_delta_kb << "KB";
#endif
}

TEST_F(OocoreE2eTest, FullPipelineLabelsBitIdentical) {
#ifdef RPDBSCAN_UNDER_SANITIZER
  const size_t n = 15000;
#else
  const size_t n = 60000;
#endif
  const Dataset ds = synth::GeoLifeLike(n, 112);
  const std::string path = dir_ + "/pts.rpds";
  ASSERT_TRUE(WriteBinary(path, ds).ok());
  auto source = MmapDataset::Open(path);
  ASSERT_TRUE(source.ok());
  const Dataset view = source->BorrowedView();

  RpDbscanOptions base;
  base.eps = 2.0;
  base.min_pts = 20;
  base.num_partitions = 16;
  base.num_threads = 2;
  auto plain = RunRpDbscan(ds, base);
  ASSERT_TRUE(plain.ok()) << plain.status();

  RpDbscanOptions oo = base;
  oo.point_source = &*source;
  oo.memory_budget_bytes = 512u << 10;
  oo.spill_dir = dir_;
  oo.audit_level = AuditLevel::kCheap;
  auto oocore = RunRpDbscan(view, oo);
  ASSERT_TRUE(oocore.ok()) << oocore.status();

  EXPECT_EQ(oocore->labels, plain->labels);
  EXPECT_TRUE(oocore->stats.external_phase1);
  EXPECT_GT(oocore->stats.external_chunks, 1u);
  EXPECT_GT(oocore->stats.external_spill_bytes, 0u);
  EXPECT_FALSE(plain->stats.external_phase1);
}

TEST_F(OocoreE2eTest, PointSourceMismatchRejected) {
  const Dataset ds = synth::GeoLifeLike(2000, 113);
  const std::string path = dir_ + "/pts.rpds";
  ASSERT_TRUE(WriteBinary(path, ds).ok());
  auto source = MmapDataset::Open(path);
  ASSERT_TRUE(source.ok());
  const Dataset other = synth::GeoLifeLike(1999, 114);
  RpDbscanOptions o;
  o.eps = 2.0;
  o.min_pts = 20;
  o.point_source = &*source;
  auto r = RunRpDbscan(other, o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rpdbscan
