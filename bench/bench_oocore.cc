// Out-of-core Phase I-1, measured: the external build (chunked sort +
// disk spill + k-way merge) against the in-RAM sorted build over the same
// memory-mapped .rpds input, with the spill/merge accounting (chunks,
// runs, spill bytes, peak accounted transient bytes vs the budget) and a
// bit-identity check of the two cell sets.
//
// Usage: bench_oocore [OUTPUT_JSON]
//   OUTPUT_JSON  machine-readable report (default: BENCH_oocore.json)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "io/binary.h"
#include "io/mmap_dataset.h"
#include "parallel/thread_pool.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace bench {
namespace {

// The real GeoLife corpus packs 24.9M points of repeatedly-revisited GPS
// trajectories into one metropolitan area: many points per occupied
// sub-cell. At bench-feasible n the synthetic analogue sits near one
// point per sub-cell. Replicating the base trace with jitter far below
// the sub-cell side reproduces the revisit density without changing the
// spatial shape, and gives the external build an input several times its
// memory budget.
constexpr size_t kReplicas = 16;
constexpr double kJitter = 0.02;  // << sub-cell side (~0.072 at eps=2)

Dataset Densify(const Dataset& base) {
  Rng rng(7);
  Dataset out(base.dim());
  out.Reserve(base.size() * kReplicas);
  std::vector<float> p(base.dim());
  for (size_t r = 0; r < kReplicas; ++r) {
    for (size_t i = 0; i < base.size(); ++i) {
      const float* src = base.point(i);
      for (size_t d = 0; d < base.dim(); ++d) {
        p[d] = r == 0 ? src[d]
                      : src[d] + static_cast<float>(rng.UniformDouble(
                                     -kJitter, kJitter));
      }
      out.Append(p.data());
    }
  }
  return out;
}

int Run(const std::string& out_path) {
  PrintHeader(
      "Out-of-core Phase I-1 (measured)\n"
      "(GeoLife analogue from a memory-mapped .rpds; budget ~payload/4)");

  const BenchDataset geo = MakeGeoLife(60000);
  const double eps = geo.eps10;
  const Dataset dense = Densify(geo.data);
  const uint64_t payload_bytes =
      static_cast<uint64_t>(dense.size()) * dense.dim() * sizeof(float);

  // Stage the input on disk, as the out-of-core path would see it.
  const std::filesystem::path rpds =
      std::filesystem::temp_directory_path() /
      ("bench_oocore_" + std::to_string(::getpid()) + ".rpds");
  WriteBinaryOptions wopts;
  wopts.payload_checksum = true;
  if (!WriteBinary(rpds.string(), dense, wopts).ok()) {
    std::fprintf(stderr, "bench_oocore: cannot stage %s\n",
                 rpds.c_str());
    return 1;
  }
  auto source = MmapDataset::Open(rpds.string());
  if (!source.ok()) {
    std::fprintf(stderr, "bench_oocore: open failed: %s\n",
                 source.status().ToString().c_str());
    return 1;
  }
  auto geom_or = GridGeometry::Create(dense.dim(), eps, 0.1);
  if (!geom_or.ok()) return 1;
  const GridGeometry geom = *geom_or;

  const size_t hardware = std::thread::hardware_concurrency();
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif

  // ---- Phase I-1: external vs in-RAM over the same mapped input. ----
  const size_t budget = std::max<size_t>(payload_bytes / 4, 256u << 10);
  ThreadPool pool(kThreads);
  ExternalBuildOptions eopts;
  eopts.memory_budget_bytes = budget;
  ExternalBuildStats estats;
  Stopwatch ext_watch;
  auto ext = CellSet::BuildExternal(*source, geom, 16, 7, eopts, &pool,
                                    &estats);
  const double external_seconds = ext_watch.ElapsedSeconds();
  if (!ext.ok()) {
    std::fprintf(stderr, "bench_oocore: external build failed: %s\n",
                 ext.status().ToString().c_str());
    return 1;
  }
  source->DropResidency();
  const Dataset view = source->BorrowedView();
  Stopwatch ram_watch;
  auto in_ram = CellSet::Build(view, geom, 16, 7, &pool);
  const double in_ram_seconds = ram_watch.ElapsedSeconds();
  if (!in_ram.ok()) {
    std::fprintf(stderr, "bench_oocore: in-RAM build failed: %s\n",
                 in_ram.status().ToString().c_str());
    return 1;
  }
  const bool identical =
      ext->cell_point_offsets() == in_ram->cell_point_offsets() &&
      ext->point_ids() == in_ram->point_ids();
  std::printf(
      "phase1: points=%zu payload=%llu B budget=%zu B\n"
      "  external %.3fs (chunks=%zu runs=%zu spill=%llu B "
      "peak_accounted=%llu B)\n"
      "  in-RAM   %.3fs  -> external/in-RAM = %.2fx, bit-identical=%s\n",
      dense.size(), static_cast<unsigned long long>(payload_bytes),
      budget, external_seconds, estats.chunks, estats.runs,
      static_cast<unsigned long long>(estats.spill_bytes),
      static_cast<unsigned long long>(estats.peak_accounted_bytes),
      in_ram_seconds,
      in_ram_seconds > 0 ? external_seconds / in_ram_seconds : 0.0,
      identical ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr,
                 "bench_oocore: external build diverged from in-RAM\n");
    std::filesystem::remove(rpds);
    return 1;
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("generated_by").Value("bench/bench_oocore");
  w.Key("bench_scale").Value(BenchScale());
  w.Key("build_type").Value(build_type);
  w.Key("hardware_concurrency").Value(static_cast<uint64_t>(hardware));
  w.Key("dataset").Value(geo.name + "-dense");
  w.Key("eps").Value(eps);
  w.Key("num_points").Value(static_cast<uint64_t>(dense.size()));
  w.Key("replicas").Value(static_cast<uint64_t>(kReplicas));
  w.Key("payload_bytes").Value(payload_bytes);
  w.Key("oocore_phase1").BeginObject();
  w.Key("memory_budget_bytes").Value(static_cast<uint64_t>(budget));
  w.Key("external_path_used").Value(estats.external_path_used);
  w.Key("chunks").Value(static_cast<uint64_t>(estats.chunks));
  w.Key("runs").Value(static_cast<uint64_t>(estats.runs));
  w.Key("spill_bytes").Value(estats.spill_bytes);
  w.Key("peak_accounted_bytes").Value(estats.peak_accounted_bytes);
  w.Key("bounds_seconds").Value(estats.bounds_seconds);
  w.Key("spill_seconds").Value(estats.spill_seconds);
  w.Key("merge_seconds").Value(estats.merge_seconds);
  w.Key("external_seconds").Value(external_seconds);
  w.Key("in_ram_seconds").Value(in_ram_seconds);
  w.Key("bit_identical").Value(identical);
  w.EndObject();
  w.EndObject();

  std::filesystem::remove(rpds);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_oocore: cannot write %s\n",
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
  const std::string out = argc > 1 ? argv[1] : "BENCH_oocore.json";
  return rpdbscan::bench::Run(out);
}
