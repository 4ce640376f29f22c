#ifndef RPDBSCAN_PARALLEL_CLUSTER_MODEL_H_
#define RPDBSCAN_PARALLEL_CLUSTER_MODEL_H_

#include <cstddef>
#include <vector>

namespace rpdbscan {

/// Ratio of the slowest split to the fastest split of a stage — the paper's
/// "load imbalance" metric (value 1 means perfect balance, Sec. 7.3.1).
/// Non-finite or negative entries (failed timers) are ignored; returns 1.0
/// when fewer than two usable tasks remain or the fastest task is ~0.
double LoadImbalance(const std::vector<double>& task_seconds);

/// Deterministic model of running `task_seconds` on `num_workers` executor
/// slots: greedy list scheduling in submission order (each finished worker
/// pulls the next task), which is how Spark assigns partition tasks to a
/// fixed executor fleet. Returns the makespan in seconds.
///
/// This is the substitution for the paper's physical 48-core cluster: on a
/// single-CPU host, speed-up curves (Fig. 15) are computed from measured
/// per-task durations through this model rather than from wall clock.
double MakespanForWorkers(const std::vector<double>& task_seconds,
                          size_t num_workers);

/// Speed-up series: makespan(base_workers) / makespan(w) for each w in
/// `worker_counts`, mirroring Fig. 15 (base of 5 cores in the paper).
std::vector<double> SpeedupSeries(const std::vector<double>& task_seconds,
                                  size_t base_workers,
                                  const std::vector<size_t>& worker_counts);

}  // namespace rpdbscan

#endif  // RPDBSCAN_PARALLEL_CLUSTER_MODEL_H_
