// Reproduces Figure 15: speed-up as the number of cores grows from 5 to
// 40, on the Cosmo50 analogue with eps = eps10/8 (the paper uses
// Cosmo50 with eps = 0.02, the second-smallest of its sweep).
//
// Substitution note: this host has one physical core, so the multi-worker
// cluster is modeled deterministically — each algorithm's per-split task
// times are measured once, then scheduled onto k executor slots with the
// same greedy policy Spark uses (see parallel/cluster_model.h). The
// speed-up curves therefore reflect exactly what the paper measures:
// how evenly the per-split work divides.
//
// Expected shape (paper, Sec. 7.4): RP-DBSCAN ~4.4x at 40 cores (near
// linear until task granularity binds); region-split family 2.9-3.2x
// because their skewed splits cap the achievable parallelism.

#include <cstdio>
#include <vector>

#include "baselines/region_split.h"
#include "bench_common.h"
#include "core/rp_dbscan.h"
#include "parallel/cluster_model.h"

namespace rpdbscan {
namespace bench {
namespace {

constexpr size_t kTotalTasks = 40;  // one task per executor slot at 40 cores

std::vector<double> RegionTasks(const Dataset& ds, double eps,
                                RegionPartitionStrategy strategy) {
  RegionSplitOptions o;
  o.params = {eps, kMinPts};
  o.strategy = strategy;
  o.num_splits = kTotalTasks;
  o.num_threads = 1;  // sequential: per-task times free of CPU contention
  auto r = RunRegionSplitDbscan(ds, o);
  if (!r.ok()) return {};
  return r->task_seconds;
}

std::vector<double> RpTasks(const Dataset& ds, double eps) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = kMinPts;
  o.num_threads = 1;  // sequential: per-task times free of CPU contention
  o.num_partitions = kTotalTasks;
  auto r = RunRpDbscan(ds, o);
  if (!r.ok()) return {};
  return r->stats.phase2_task_seconds;
}

void PrintRow(const char* name, const std::vector<double>& tasks) {
  if (tasks.empty()) {
    std::printf("%-12s (failed)\n", name);
    return;
  }
  const std::vector<size_t> cores = {5, 10, 20, 40};
  const std::vector<double> s = SpeedupSeries(tasks, 5, cores);
  std::printf("%-12s", name);
  for (const double v : s) std::printf(" %8.2f", v);
  std::printf("\n");
  std::fflush(stdout);
}

void Run() {
  PrintHeader(
      "Figure 15: speed-up vs number of cores (Cosmo50 analogue)\n"
      "speed-up = makespan(5 workers) / makespan(k workers) over the\n"
      "measured per-split task times\n"
      "(paper shape: RP near-linear ~4.4x at 40 cores; region-split\n"
      " family saturates at ~2.9-3.2x)");
  const BenchDataset cosmo = MakeCosmo();
  const double eps = cosmo.EpsSweep()[2];  // a dense regime, as in the paper
  std::printf("%-12s %8s %8s %8s %8s\n", "algorithm", "5", "10", "20",
              "40");
  PrintRow("ESP", RegionTasks(cosmo.data, eps,
                              RegionPartitionStrategy::kEvenSplit));
  PrintRow("RBP", RegionTasks(cosmo.data, eps,
                              RegionPartitionStrategy::kReducedBoundary));
  PrintRow("CBP", RegionTasks(cosmo.data, eps,
                              RegionPartitionStrategy::kCostBased));
  PrintRow("RP-DBSCAN", RpTasks(cosmo.data, eps));
}

}  // namespace
}  // namespace bench
}  // namespace rpdbscan

int main() { rpdbscan::bench::Run(); }
