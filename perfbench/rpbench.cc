// rpbench: the benchmark of record's binary. Runs one workload with
// seeded inputs, times calls into the library's public API, checks every
// output, and prints one JSON result object as its last stdout line.
//
//   rpbench --workload cluster-geolife --seed 1 --seconds 10 --trace 0
//           --workdir DIR [--tiny] [--spans PATH]
//           [--corrupt label|response] [--smoke]
//
// perfbench/run.py builds this binary and maps its result onto the
// metrics BENCHMARK.json names; see perfbench/README.md.

#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>

#include "bench.h"
#include "core/simd.h"
#include "util/json_writer.h"

#ifndef RPBENCH_BUILD_TYPE
#define RPBENCH_BUILD_TYPE "unknown"
#endif

namespace rpbench {

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

int Tracer::Begin(const char* name, const char* layer) {
  if (!enabled_) return -1;
  // Parent = the innermost span still open on this thread.
  thread_local std::vector<int> open;
  std::lock_guard<std::mutex> lock(mu_);
  while (!open.empty() && spans_[open.back()].end_ns >= 0) open.pop_back();
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  s.parent = open.empty() ? -1 : open.back();
  s.tid = static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    self[spans_[i].layer] +=
        static_cast<double>(std::max<int64_t>(own, 0)) * 1e-9;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::map<std::string, double> self = SelfSecondsByLayer();
  rpdbscan::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.Key("name").Value(s.name);
      w.Key("cat").Value(s.layer);
      w.Key("ph").Value("X");
      w.Key("ts").Value(static_cast<double>(s.start_ns) * 1e-3);
      w.Key("dur").Value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      w.Key("pid").Value(1);
      w.Key("tid").Value(static_cast<uint64_t>(s.tid));
      w.Key("args").BeginObject();
      w.Key("id").Value(static_cast<int64_t>(i));
      w.Key("parent").Value(static_cast<int64_t>(s.parent));
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("self_seconds_by_layer").BeginObject();
  for (const auto& [layer, seconds] : self) w.Key(layer).Value(seconds);
  w.EndObject();
  w.EndObject();
  std::ofstream f(path);
  f << w.TakeString() << '\n';
  return static_cast<bool>(f);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

namespace {

constexpr size_t kKernelKeys = size_t{1} << 20;
/// The kernel's times on the reference host: the 4-vCPU x86-64 VM the
/// benchmark was defined on (gcc 12.2, Release build), medians over many
/// runs. They fix only the scale of the reported times.
constexpr double kReferenceOneS = 0.115;
constexpr double kReferenceAllS = 0.135;

/// The host-speed kernel: fills a freshly mapped buffer with seeded keys
/// and sorts it.
void SortKernel(uint64_t seed) {
  const size_t bytes = kKernelKeys * sizeof(uint64_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  uint64_t* keys = static_cast<uint64_t*>(mem);
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < kKernelKeys; ++i) keys[i] = rng();
  std::sort(keys, keys + kKernelKeys);
  munmap(mem, bytes);
}

}  // namespace

void HostSpeed::Sample() {
  for (int rep = 0; rep < 2; ++rep) {
    Clock::time_point t0 = Clock::now();
    SortKernel(1);
    one_.push_back(SecondsSince(t0));
    t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < nproc_; ++i) threads.emplace_back(SortKernel, i + 1);
    for (std::thread& t : threads) t.join();
    all_.push_back(SecondsSince(t0));
  }
}

double HostSpeed::Scale1() const {
  return one_.empty() ? 1.0 : kReferenceOneS / Median(one_);
}

double HostSpeed::ScaleN() const {
  return all_.empty() ? 1.0 : kReferenceAllS / Median(all_);
}

void HostSpeed::SetScaled(const std::string& name,
                          const std::vector<double>& raw, double scale,
                          Outcome* out) {
  const double median = Median(raw);
  out->Set(name, median * scale, "s", raw.size());
  out->Set(name.substr(0, name.size() - 2) + "_raw_s", median, "s",
           raw.size());
}

void HostSpeed::Report(Outcome* out) const {
  out->Set("host.kernel_1t_s", Median(one_), "s", one_.size());
  out->Set("host.kernel_nt_s", Median(all_), "s", all_.size());
}

namespace {

uint64_t LlcBytes() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K') v <<= 10;
    if (s.back() == 'M') v <<= 20;
    return v;
  }
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

/// The CPUs this process may run on: the "n" of run_nt_s.
size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "rpbench: %s\nusage: rpbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--tiny] "
               "[--spans PATH] [--corrupt label|response] [--smoke]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace rpbench

int main(int argc, char** argv) {
  using namespace rpbench;
  Config cfg;
  cfg.nproc = AffinityCpus();
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") cfg.workload = next();
    else if (a == "--seed") cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::strtod(next().c_str(), nullptr);
    else if (a == "--trace") cfg.trace = next() == "1";
    else if (a == "--workdir") cfg.workdir = next();
    else if (a == "--spans") cfg.spans_path = next();
    else if (a == "--corrupt") cfg.corrupt = next();
    else if (a == "--tiny") cfg.tiny = true;
    else if (a == "--smoke") smoke = true;
    else return Usage(("unknown argument " + a).c_str());
  }
  if (cfg.workdir.empty()) return Usage("--workdir is required");
  const std::string build_type = RPBENCH_BUILD_TYPE;
  if (build_type != "Release" && !smoke) {
    std::fprintf(stderr,
                 "rpbench: refusing to measure a %s build; build Release or "
                 "pass --smoke\n",
                 build_type.c_str());
    return 3;
  }

  Tracer tracer(cfg.trace);
  Outcome out;
  if (cfg.workload == "cluster-geolife") {
    RunClusterWorkload(cfg, /*tera=*/false, tracer, &out);
  } else if (cfg.workload == "cluster-tera") {
    RunClusterWorkload(cfg, /*tera=*/true, tracer, &out);
  } else if (cfg.workload == "serve-session") {
    RunServeWorkload(cfg, tracer, &out);
  } else if (cfg.workload == "stream-churn") {
    RunStreamWorkload(cfg, tracer, &out);
  } else {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }
  if (out.attempted == 0) out.Check(false, "workload attempted nothing");

  if (cfg.trace) {
    // Every layer metric is reported; layers this workload bypasses read 0.
    for (const auto& [name, unit] : LayerMetricUnits()) {
      if (out.metrics.count(name) == 0) out.Set(name, 0.0, unit);
    }
    if (!cfg.spans_path.empty() && !tracer.WriteJson(cfg.spans_path)) {
      out.Check(false, "cannot write spans to " + cfg.spans_path);
    }
  }
  out.Set("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "frac", out.attempted);

  rpdbscan::JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(cfg.workload);
  w.Key("seed").Value(cfg.seed);
  w.Key("trace").Value(cfg.trace);
  w.Key("tiny").Value(cfg.tiny);
  w.Key("provenance").BeginObject();
  w.Key("build_type").Value(build_type);
  w.Key("nproc").Value(static_cast<uint64_t>(cfg.nproc));
  w.Key("simd").Value(rpdbscan::SimdLevelName(rpdbscan::DetectSimdLevel()));
  w.Key("compiler").Value(std::string("gcc ") + __VERSION__);
  w.Key("llc_bytes").Value(LlcBytes());
  for (const auto& [k, v] : out.sizes) w.Key(k).Value(v);
  w.EndObject();
  w.Key("attempted").Value(out.attempted);
  w.Key("failed").Value(out.failed);
  w.Key("failures").BeginArray();
  for (const std::string& f : out.failures) w.Value(f);
  w.EndArray();
  w.Key("metrics").BeginObject();
  for (const auto& [name, m] : out.metrics) {
    w.Key(name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(m.unit);
    w.Key("samples").Value(static_cast<uint64_t>(m.samples));
    w.EndObject();
  }
  w.EndObject();
  if (cfg.trace) {
    w.Key("self_seconds_by_layer").BeginObject();
    for (const auto& [layer, s] : tracer.SelfSecondsByLayer()) {
      w.Key(layer).Value(s);
    }
    w.EndObject();
  }
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return 0;
}
