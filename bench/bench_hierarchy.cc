// Multi-eps ladder: one BuildClusterHierarchy sweep (shared Phase I +
// cell dictionary, per-level Phase II/III with core-set seeding and CSR
// prefix reuse) head-to-head against N independent RunRpDbscan
// invocations at the same (eps, min_pts) settings, on the GeoLife
// analogue.
//
// Every rung is bit-identical to its independent run
// (tests/hierarchy_differential_test.cc pins this; the bench re-asserts
// it on the measured data), so the ratio is a pure like-for-like cost
// comparison: the sweep pays Phase I and the dictionary build once, the
// independent runs pay them N times. Target regime:
// sweep cost below 60% of the independent total at N >= 4 levels. A
// second, sampled-core ladder (DBSCAN++-style cell sampling at 50%)
// records the approximation's cost and its per-level NMI / Rand index
// against the exact ladder.
//
// Usage: bench_hierarchy [OUTPUT_JSON]
//   OUTPUT_JSON  where to write the machine-readable report
//                (default: BENCH_hierarchy.json in the working directory)

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/rp_dbscan.h"
#include "core/simd.h"
#include "hierarchy/eps_ladder.h"
#include "io/dataset.h"
#include "metrics/nmi.h"
#include "metrics/rand_index.h"
#include "util/json_writer.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace bench {
namespace {

/// The ladder schedule: fourteen ascending rungs spanning the analogue's
/// sparse-to-dense regimes — the dense sampling an OPTICS-like hierarchy
/// actually wants, and the regime where the shared Phase I and dictionary
/// amortize best. The top-to-bottom radius ratio of 2.6 keeps
/// the assembled stencil family (enumerated once, out to the top rung)
/// comfortably within the dictionary's offset budget in 3-D.
constexpr double kEpsRungs[] = {0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4,
                                1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1};

struct LevelRow {
  double eps = 0;
  size_t num_clusters = 0;
  size_t num_noise = 0;
  size_t num_core_cells = 0;
  bool seeded = false;
  double phase2_seconds = 0;
  double merge_seconds = 0;
  double label_seconds = 0;
  double independent_seconds = 0;
  bool bit_identical = false;
};

int Run(const std::string& out_path) {
  PrintHeader(
      "Multi-eps hierarchy: one shared-dictionary sweep vs N independent\n"
      "runs (GeoLife analogue; every rung bit-identical to its\n"
      "independent run, so the ratio is pure shared-stage economy)");

  const BenchDataset geo = MakeGeoLife();
  const size_t n = geo.data.size();

  HierarchyOptions ho;
  ho.eps_levels.assign(std::begin(kEpsRungs), std::end(kEpsRungs));
  ho.min_pts_levels = {kMinPts};
  ho.num_threads = kThreads;

  const size_t hardware = std::thread::hardware_concurrency();
  const char* simd = SimdLevelName(DetectSimdLevel());
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::printf(
      "dataset=%s points=%zu levels=%zu minpts=%zu threads=%zu\n"
      "hardware_concurrency=%zu simd=%s build=%s\n",
      geo.name.c_str(), n, ho.eps_levels.size(), kMinPts, kThreads,
      hardware, simd, build_type);

  const Stopwatch sweep_watch;
  auto h_or = BuildClusterHierarchy(geo.data, ho);
  const double sweep_seconds = sweep_watch.ElapsedSeconds();
  if (!h_or.ok()) {
    std::fprintf(stderr, "bench_hierarchy: sweep failed: %s\n",
                 h_or.status().ToString().c_str());
    return 1;
  }
  const ClusterHierarchy& h = *h_or;

  std::printf("%8s %9s %7s %10s %7s %9s %9s %7s\n", "eps", "clusters",
              "noise", "core_cells", "seeded", "sweep_s", "indep_s",
              "equal");
  std::vector<LevelRow> rows;
  double independent_total = 0;
  for (size_t i = 0; i < h.levels.size(); ++i) {
    const HierarchyLevel& lv = h.levels[i];
    LevelRow row;
    row.eps = lv.eps;
    row.num_clusters = lv.num_clusters;
    row.num_noise = lv.num_noise_points;
    row.num_core_cells = lv.num_core_cells;
    row.seeded = lv.seeded;
    row.phase2_seconds = lv.phase2_seconds;
    row.merge_seconds = lv.merge_seconds;
    row.label_seconds = lv.label_seconds;

    RpDbscanOptions o;
    o.eps = ho.eps_levels[0];
    o.query_eps = lv.eps;
    o.min_pts = lv.min_pts;
    o.num_threads = kThreads;
    const Stopwatch indep_watch;
    auto independent = RunRpDbscan(geo.data, o);
    row.independent_seconds = indep_watch.ElapsedSeconds();
    if (!independent.ok()) {
      std::fprintf(stderr, "bench_hierarchy: independent run %zu: %s\n", i,
                   independent.status().ToString().c_str());
      return 1;
    }
    row.bit_identical = independent->labels == lv.labels;
    independent_total += row.independent_seconds;
    const double level_sweep_seconds =
        lv.phase2_seconds + lv.merge_seconds + lv.label_seconds;
    std::printf("%8.2f %9zu %7zu %10zu %7s %9.4f %9.4f %7s\n", row.eps,
                row.num_clusters, row.num_noise, row.num_core_cells,
                row.seeded ? "yes" : "no", level_sweep_seconds,
                row.independent_seconds,
                row.bit_identical ? "yes" : "NO");
    std::fflush(stdout);
    rows.push_back(row);
  }
  const double ratio =
      independent_total > 0 ? sweep_seconds / independent_total : 0;
  const bool all_identical = [&] {
    for (const LevelRow& r : rows) {
      if (!r.bit_identical) return false;
    }
    return true;
  }();
  std::printf(
      "sweep %.4fs (phase1 %.4fs, dictionary %.4fs) vs "
      "%zu independent runs %.4fs -> ratio %.1f%%\n",
      sweep_seconds, h.phase1_seconds, h.dictionary_seconds, rows.size(),
      independent_total, 100.0 * ratio);
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_hierarchy: a ladder level diverged from its "
                 "independent run\n");
    return 1;
  }

  // The sampled-core ladder: same schedule at 50% of cells eligible for
  // core status, scored per level against the exact rungs above.
  HierarchyOptions so = ho;
  so.sampled_core_fraction = 0.5;
  const Stopwatch sampled_watch;
  auto sampled_or = BuildClusterHierarchy(geo.data, so);
  const double sampled_seconds = sampled_watch.ElapsedSeconds();
  if (!sampled_or.ok()) {
    std::fprintf(stderr, "bench_hierarchy: sampled sweep failed: %s\n",
                 sampled_or.status().ToString().c_str());
    return 1;
  }
  struct SampledRow {
    double nmi = 0;
    double rand_index = 0;
    size_t num_core_cells = 0;
  };
  std::vector<SampledRow> sampled_rows;
  for (size_t i = 0; i < h.levels.size(); ++i) {
    auto nmi = NormalizedMutualInformation(sampled_or->levels[i].labels,
                                           h.levels[i].labels);
    auto ri =
        RandIndex(sampled_or->levels[i].labels, h.levels[i].labels);
    if (!nmi.ok() || !ri.ok()) {
      std::fprintf(stderr, "bench_hierarchy: scoring level %zu failed\n",
                   i);
      return 1;
    }
    sampled_rows.push_back(
        {*nmi, *ri, sampled_or->levels[i].num_core_cells});
    std::printf(
        "sampled 50%% level %zu: NMI %.4f RI %.4f (%zu of %zu core "
        "cells)\n",
        i, *nmi, *ri, sampled_or->levels[i].num_core_cells,
        h.levels[i].num_core_cells);
  }
  std::printf("sampled sweep %.4fs (%.1f%% of exact sweep)\n",
              sampled_seconds,
              sweep_seconds > 0 ? 100.0 * sampled_seconds / sweep_seconds
                                : 0.0);

  JsonWriter w;
  w.BeginObject();
  w.Key("generated_by").Value("bench/bench_hierarchy");
  w.Key("bench_scale").Value(BenchScale());
  w.Key("dataset").Value(geo.name);
  w.Key("num_points").Value(static_cast<uint64_t>(n));
  w.Key("dim").Value(static_cast<uint64_t>(geo.data.dim()));
  w.Key("min_pts").Value(static_cast<uint64_t>(kMinPts));
  w.Key("num_threads").Value(static_cast<uint64_t>(kThreads));
  w.Key("hardware_concurrency").Value(static_cast<uint64_t>(hardware));
  w.Key("simd").Value(simd);
  w.Key("build_type").Value(build_type);
  w.Key("num_levels").Value(static_cast<uint64_t>(rows.size()));
  w.Key("sweep_seconds").Value(sweep_seconds);
  w.Key("independent_seconds_total").Value(independent_total);
  w.Key("ratio_sweep_over_independent").Value(ratio);
  w.Key("bit_identical").Value(all_identical);
  w.Key("phase1_seconds").Value(h.phase1_seconds);
  w.Key("dictionary_seconds").Value(h.dictionary_seconds);
  w.Key("num_cells").Value(static_cast<uint64_t>(h.num_cells));
  w.Key("dictionary_bytes")
      .Value(static_cast<uint64_t>(h.dictionary_bytes));
  w.Key("levels").BeginArray();
  for (const LevelRow& r : rows) {
    w.BeginObject();
    w.Key("eps").Value(r.eps);
    w.Key("num_clusters").Value(static_cast<uint64_t>(r.num_clusters));
    w.Key("num_noise_points").Value(static_cast<uint64_t>(r.num_noise));
    w.Key("num_core_cells").Value(static_cast<uint64_t>(r.num_core_cells));
    w.Key("seeded").Value(r.seeded);
    w.Key("phase2_seconds").Value(r.phase2_seconds);
    w.Key("merge_seconds").Value(r.merge_seconds);
    w.Key("label_seconds").Value(r.label_seconds);
    w.Key("independent_seconds").Value(r.independent_seconds);
    w.Key("bit_identical").Value(r.bit_identical);
    w.EndObject();
  }
  w.EndArray();
  w.Key("sampled_core_fraction").Value(so.sampled_core_fraction);
  w.Key("sampled_sweep_seconds").Value(sampled_seconds);
  w.Key("sampled_levels").BeginArray();
  for (const SampledRow& r : sampled_rows) {
    w.BeginObject();
    w.Key("nmi_vs_exact").Value(r.nmi);
    w.Key("rand_index_vs_exact").Value(r.rand_index);
    w.Key("num_core_cells").Value(static_cast<uint64_t>(r.num_core_cells));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hierarchy: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  const std::string json = w.TakeString();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rpdbscan

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_hierarchy.json";
  return rpdbscan::bench::Run(out);
}
