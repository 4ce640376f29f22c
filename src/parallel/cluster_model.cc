#include "parallel/cluster_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace rpdbscan {

double LoadImbalance(const std::vector<double>& task_seconds) {
  // NaN poisons minmax_element (comparisons are all-false), and a stage
  // that records Inf or a negative duration is a measurement glitch, not
  // skew — ignore such entries instead of returning garbage ratios.
  double min_t = std::numeric_limits<double>::infinity();
  double max_t = 0.0;
  size_t finite = 0;
  for (const double t : task_seconds) {
    if (!std::isfinite(t) || t < 0.0) continue;
    ++finite;
    min_t = std::min(min_t, t);
    max_t = std::max(max_t, t);
  }
  if (finite < 2) return 1.0;
  if (min_t <= 1e-12) return 1.0;
  return max_t / min_t;
}

double MakespanForWorkers(const std::vector<double>& task_seconds,
                          size_t num_workers) {
  if (task_seconds.empty()) return 0.0;
  if (num_workers == 0) num_workers = 1;
  // Min-heap of worker finish times; each task goes to the earliest-free
  // worker, in submission order.
  std::priority_queue<double, std::vector<double>, std::greater<>> workers;
  for (size_t i = 0; i < num_workers; ++i) workers.push(0.0);
  double makespan = 0.0;
  for (double t : task_seconds) {
    double free_at = workers.top();
    workers.pop();
    free_at += t;
    makespan = std::max(makespan, free_at);
    workers.push(free_at);
  }
  return makespan;
}

std::vector<double> SpeedupSeries(const std::vector<double>& task_seconds,
                                  size_t base_workers,
                                  const std::vector<size_t>& worker_counts) {
  std::vector<double> out;
  out.reserve(worker_counts.size());
  const double base = MakespanForWorkers(task_seconds, base_workers);
  for (size_t w : worker_counts) {
    const double m = MakespanForWorkers(task_seconds, w);
    out.push_back(m > 0.0 ? base / m : 1.0);
  }
  return out;
}

}  // namespace rpdbscan
