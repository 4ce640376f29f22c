// Shared pieces of the rpbench binary: run configuration, the outcome
// sink (metrics plus correctness accounting), the in-memory span tracer,
// and small statistics helpers. rpbench only calls the library's public
// API; every span here wraps one such call from the outside.
#ifndef RPDBSCAN_PERFBENCH_BENCH_H_
#define RPDBSCAN_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rpbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs: every workload finishes in seconds (the self-test).
  bool tiny = false;
  /// CPUs in the process's affinity mask: the "n" of run_nt_s.
  size_t nproc = 1;
  /// Scratch directory for input and output files.
  std::string workdir;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
  /// Deliberate output corruption for the self-test: "label" flips one
  /// clustering label, "response" alters one served response record.
  std::string corrupt;
};

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
  /// How many measurements the value summarizes (1 for a single reading).
  size_t samples = 1;
};

/// What a workload reports: named metrics, and every correctness check as
/// one attempted operation that either passed or failed. A failed check
/// never aborts the run.
struct Outcome {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  /// Input and dictionary sizes, for the result's provenance.
  std::map<std::string, uint64_t> sizes;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records one checked operation.
  void Check(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder. A span has a name, the layer (module) it
/// belongs to, start and end times, and the span that was open on the
/// same thread when it began (its parent). Disabled tracers record
/// nothing; Time() still measures, so untraced code paths share the same
/// calls.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Runs `fn` inside a span and returns its wall seconds.
  template <typename Fn>
  double Time(const char* name, const char* layer, Fn&& fn) {
    const int id = Begin(name, layer);
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = SecondsSince(t0);
    End(id);
    return s;
  }

  /// Self seconds per layer: each span's duration minus the part its
  /// children cover, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes the spans as Chrome trace-event JSON (one complete event per
  /// span; parent ids in args) plus the per-layer self times.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
    uint32_t tid = 0;
  };

  int Begin(const char* name, const char* layer);
  void End(int id);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

// --- statistics over measured samples ---

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 100].
double Percentile(std::vector<double> v, double q);
double Sum(const std::vector<double>& v);

/// The host's speed, measured beside the passes. The machine this benchmark
/// was defined on is shared, and its speed drifts by tens of percent over
/// minutes, for single-threaded and parallel work alike. So each round also
/// times a fixed kernel that does not call the library: sorting a seeded
/// array of 2^20 keys, once on one thread and once on each of nproc threads
/// at the same time. A timing is then reported at reference host speed:
/// the raw median times the reference kernel time over this run's median
/// kernel time. The drift cancels, and a change to the library does not,
/// because the kernel does not run library code.
class HostSpeed {
 public:
  explicit HostSpeed(size_t nproc) : nproc_(nproc) {}

  /// Times the kernel twice on one thread and twice on nproc threads. Its
  /// buffers are mapped and unmapped directly, so it leaves neither the
  /// allocator's state nor the resident set changed. Call it before a
  /// round's ResetPeakRss(), so its buffers are not counted in the peak.
  void Sample();

  /// Factors that bring a raw time to reference host speed: for work on
  /// one thread, and for work spread over the nproc CPUs.
  double Scale1() const;
  double ScaleN() const;

  /// Sets `name` (which ends in _s) to the median of `raw` times `scale`,
  /// and `name` with _raw_s in place of _s to the raw median.
  static void SetScaled(const std::string& name, const std::vector<double>& raw,
                        double scale, Outcome* out);
  /// Reports the kernel's median times, host.kernel_1t_s and
  /// host.kernel_nt_s.
  void Report(Outcome* out) const;

 private:
  size_t nproc_;
  std::vector<double> one_, all_;
};

/// Peak resident set of this process, in MiB (VmHWM), since the start or
/// the last ResetPeakRss().
double PeakRssMb();
/// Resets the VmHWM mark to the current RSS (/proc/self/clear_refs), so
/// each timed round can report its own peak. Where the kernel refuses,
/// the mark keeps counting from the start.
void ResetPeakRss();

// --- the workloads (workloads.cc) ---

void RunClusterWorkload(const Config& cfg, bool tera, Tracer& tracer,
                        Outcome* out);
void RunServeWorkload(const Config& cfg, Tracer& tracer, Outcome* out);
void RunStreamWorkload(const Config& cfg, Tracer& tracer, Outcome* out);

/// Names of every per-layer metric with its unit; a traced run reports all
/// of them, 0 for layers its workload does not exercise.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

}  // namespace rpbench

#endif  // RPDBSCAN_PERFBENCH_BENCH_H_
