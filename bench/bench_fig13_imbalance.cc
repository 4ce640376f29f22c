// Reproduces Figure 13: load imbalance of local clustering — the ratio of
// the slowest split's task time to the fastest split's — for the
// region-split family vs RP-DBSCAN as eps varies.
//
// Expected shape (paper, Sec. 7.3.1): RP-DBSCAN stays near 1 (perfect
// balance) on every data set; region-split algorithms are worse and
// degrade with eps, catastrophically so on the skewed GeoLife analogue.

#include <cstdio>
#include <vector>

#include "baselines/region_split.h"
#include "bench_common.h"
#include "core/rp_dbscan.h"
#include "parallel/cluster_model.h"

namespace rpdbscan {
namespace bench {
namespace {

double RegionImbalance(const Dataset& ds, double eps,
                       RegionPartitionStrategy strategy) {
  RegionSplitOptions o;
  o.params = {eps, kMinPts};
  o.strategy = strategy;
  o.num_splits = 8;
  o.num_threads = 1;  // sequential: per-task times free of CPU contention
  auto r = RunRegionSplitDbscan(ds, o);
  if (!r.ok()) return -1;
  return LoadImbalance(r->task_seconds);
}

double RpImbalance(const Dataset& ds, double eps) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = kMinPts;
  o.num_threads = 1;  // sequential: per-task times free of CPU contention
  // Match the region-split family's 8 tasks for a fair slowest/fastest
  // ratio (the paper compares per-split times).
  o.num_partitions = 8;
  auto r = RunRpDbscan(ds, o);
  if (!r.ok()) return -1;
  return LoadImbalance(r->stats.phase2_task_seconds);
}

void Run() {
  PrintHeader(
      "Figure 13: load imbalance (slowest/fastest split) vs eps\n"
      "(paper shape: RP ~1 everywhere; region-split >> 1, worst on the\n"
      " skewed GeoLife analogue and growing with eps)");
  std::printf("%-14s %8s %8s %8s %8s %8s\n", "dataset", "eps", "ESP",
              "RBP", "CBP", "RP");
  for (const BenchDataset& bd : AllDatasets()) {
    for (const double eps : bd.EpsSweep()) {
      const double esp =
          RegionImbalance(bd.data, eps, RegionPartitionStrategy::kEvenSplit);
      const double rbp = RegionImbalance(
          bd.data, eps, RegionPartitionStrategy::kReducedBoundary);
      const double cbp =
          RegionImbalance(bd.data, eps, RegionPartitionStrategy::kCostBased);
      const double rp = RpImbalance(bd.data, eps);
      std::printf("%-14s %8.3f %8.2f %8.2f %8.2f %8.2f\n", bd.name.c_str(),
                  eps, esp, rbp, cbp, rp);
      std::fflush(stdout);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace rpdbscan

int main() { rpdbscan::bench::Run(); }
