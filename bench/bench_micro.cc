// Google-benchmark micro-benchmarks for the library's hot paths: cell
// binning, dictionary construction, the (eps,rho)-region query, kd-tree
// radius search, and union-find. These are the per-operation costs behind
// the figure-level harnesses. BM_HostKernel times no library code: it is
// the host-speed reference tools/run_bench.sh records.

#include <benchmark/benchmark.h>

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>

#include "bench_common.h"
#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "core/simd.h"
#include "graph/disjoint_set.h"
#include "spatial/kdtree.h"
#include "synth/generators.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

const Dataset& BenchData() {
  static const Dataset* ds = new Dataset(synth::OsmLike(50000, 901));
  return *ds;
}

void BM_CellOf(benchmark::State& state) {
  const Dataset& ds = BenchData();
  auto geom = GridGeometry::Create(2, 0.5, 0.01);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom->CellOf(ds.point(i)));
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(BM_CellOf);

void BM_SubcellOf(benchmark::State& state) {
  const Dataset& ds = BenchData();
  auto geom = GridGeometry::Create(2, 0.5, 0.01);
  const CellCoord c = geom->CellOf(ds.point(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom->SubcellOf(ds.point(0), c));
  }
}
BENCHMARK(BM_SubcellOf);

void BM_CellSetBuild(benchmark::State& state) {
  const Dataset& ds = BenchData();
  auto geom = GridGeometry::Create(2, 0.5, 0.01);
  for (auto _ : state) {
    auto cells = CellSet::Build(ds, *geom, 16, 7);
    benchmark::DoNotOptimize(cells);
  }
  state.SetItemsProcessed(state.iterations() * ds.size());
}
BENCHMARK(BM_CellSetBuild)->Unit(benchmark::kMillisecond);

// ---- Phase I-1 build. ----
//
// Sorted CSR grouping (key encode + radix sort + CSR emit) on the skewed
// GeoLife-like generator at two sizes, with the per-stage breakdown as
// counters. A single-thread pool measures the algorithm, not parallel
// speedup. Honors RPDBSCAN_BENCH_SCALE for run_bench.sh.

const Dataset& Phase1Data(size_t n) {
  static auto* cache = new std::map<size_t, Dataset>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, synth::GeoLifeLike(bench::Scaled(n), 101)).first;
  }
  return it->second;
}

void BM_Phase1Build(benchmark::State& state) {
  const Dataset& ds = Phase1Data(static_cast<size_t>(state.range(0)));
  auto geom = GridGeometry::Create(3, 2.0, 0.01);
  ThreadPool pool(1);
  double key_s = 0;
  double sort_s = 0;
  double scatter_s = 0;
  for (auto _ : state) {
    auto cells = CellSet::Build(ds, *geom, 32, 7, &pool);
    benchmark::DoNotOptimize(cells->num_cells());
    key_s = cells->breakdown().key_seconds;
    sort_s = cells->breakdown().sort_seconds;
    scatter_s = cells->breakdown().scatter_seconds;
  }
  state.SetItemsProcessed(state.iterations() * ds.size());
  state.counters["key_seconds"] = key_s;
  state.counters["sort_seconds"] = sort_s;
  state.counters["scatter_seconds"] = scatter_s;
}
BENCHMARK(BM_Phase1Build)
    ->Arg(40000)
    ->Arg(160000)
    ->Unit(benchmark::kMillisecond);

void BM_DictionaryBuild(benchmark::State& state) {
  const Dataset& ds = BenchData();
  auto geom = GridGeometry::Create(2, 0.5, 0.01);
  auto cells = CellSet::Build(ds, *geom, 16, 7);
  for (auto _ : state) {
    auto dict = CellDictionary::Build(ds, *cells);
    benchmark::DoNotOptimize(dict);
  }
  state.SetItemsProcessed(state.iterations() * ds.size());
}
BENCHMARK(BM_DictionaryBuild)->Unit(benchmark::kMillisecond);

void BM_KdTreeRadius(benchmark::State& state) {
  const Dataset& ds = BenchData();
  KdTree tree;
  tree.Build(ds.raw(), ds.size(), ds.dim());
  size_t i = 0;
  for (auto _ : state) {
    size_t count = 0;
    tree.ForEachInRadius(ds.point(i), 0.5,
                         [&count](uint32_t, double) { ++count; });
    benchmark::DoNotOptimize(count);
    i = (i + 997) % ds.size();
  }
}
BENCHMARK(BM_KdTreeRadius);

// ---- Phase II query kernels, head to head. ----
//
// Same cells, same output, two candidate engines: the batched per-cell
// kernel over kd-tree descent (a dictionary built without a stencil) and
// over the precomputed lattice-stencil neighborhoods. Run on the
// GeoLife-like skewed generator (the workload where dense cells make
// per-cell batching matter most) at the bench_common defaults.
// `batched_tree_tera` times the tree engine on the input it serves in
// production: the 13-d TeraClickLog analogue at eps 40 with the default
// dictionary options, where the stencil is off. Honors
// RPDBSCAN_BENCH_SCALE so tools/run_bench.sh can smoke-test it.

struct Phase2Fixture {
  Dataset data;
  StatusOr<CellSet> cells = Status::Internal("unset");
  StatusOr<CellDictionary> dict = Status::Internal("unset");
  StatusOr<CellDictionary> tree_dict = Status::Internal("unset");
  double eps = 0;

  Phase2Fixture(Dataset ds, double eps_in, size_t max_cells_per_subdict)
      : data(std::move(ds)), eps(eps_in) {
    auto geom = GridGeometry::Create(data.dim(), eps, 0.01);
    cells = CellSet::Build(data, *geom, 32, 7);
    CellDictionaryOptions dopts;
    dopts.max_cells_per_subdict = max_cells_per_subdict;
    dict = CellDictionary::Build(data, *cells, dopts);
    if (dict->has_stencil()) {
      dopts.max_stencil_offsets = 0;
      tree_dict = CellDictionary::Build(data, *cells, dopts);
    }
  }
};

Phase2Fixture& GeoLifeFixture() {
  // Memory-bounded fragmentation regime (Sec. 4.2.2): sub-dictionary
  // count scales with the data rather than collapsing into a handful of
  // fragments, which is the deployment the paper's defragmentation +
  // skipping machinery exists for. This is the regime the query-engine
  // comparison below should measure — tree enumeration pays one index
  // descent per surviving sub-dictionary per cell, stencil probing is
  // oblivious to fragment count. stencil_query_test pins the same
  // setting for its equivalence sweeps.
  static Phase2Fixture* f = new Phase2Fixture(
      synth::GeoLifeLike(bench::Scaled(40000), 101), /*eps=*/2.0,
      /*max_cells_per_subdict=*/64);
  return *f;
}

Phase2Fixture& TeraFixture() {
  static Phase2Fixture* f = new Phase2Fixture(
      synth::TeraLike(bench::Scaled(40000), 104), /*eps=*/40.0,
      CellDictionaryOptions().max_cells_per_subdict);
  return *f;
}

enum class QueryEngine {
  kBatchedTree,
  kStencil,
  kTeraTree,  // the d >= 6 production path: no stencil is built
};

void BM_Phase2Query(benchmark::State& state, QueryEngine engine) {
  Phase2Fixture& f =
      engine == QueryEngine::kTeraTree ? TeraFixture() : GeoLifeFixture();
  ThreadPool pool(1);  // kernel cost, not parallel speedup
  const CellDictionary& dict =
      engine == QueryEngine::kBatchedTree ? *f.tree_dict : *f.dict;
  Phase2Result last;
  for (auto _ : state) {
    last = BuildSubgraphs(f.data, *f.cells, dict, bench::kMinPts, pool,
                          Phase2Options());
    benchmark::DoNotOptimize(last.point_is_core.data());
  }
  state.SetItemsProcessed(state.iterations() * f.data.size());
  state.counters["candidate_cells_scanned"] =
      static_cast<double>(last.candidate_cells_scanned);
  state.counters["early_exits"] = static_cast<double>(last.early_exits);
  state.counters["stencil_probes"] =
      static_cast<double>(last.stencil_probes);
}
BENCHMARK_CAPTURE(BM_Phase2Query, batched_tree, QueryEngine::kBatchedTree)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Phase2Query, stencil, QueryEngine::kStencil)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Phase2Query, batched_tree_tera, QueryEngine::kTeraTree)
    ->Unit(benchmark::kMillisecond);

void BM_LatticeStencilCreate(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto stencil = LatticeStencil::Create(dim, 8192);
    benchmark::DoNotOptimize(stencil.num_offsets());
  }
}
BENCHMARK(BM_LatticeStencilCreate)->Arg(2)->Arg(3)->Arg(5);

// ---- Phase III-1 merge engines, head to head. ----
//
// One prebuilt synthetic cell graph (random partition ownership, mostly
// core cells, random successor rows — the shape Phase II emits), read by
// every iteration. The sequential tournament expands the rows into typed
// edge lists and pays per-round concatenation + hash-set rebuilds + a
// mutexed union-find; the edge-parallel path types every edge in one
// pass over the rows against a lock-free union-find — so it wins even on
// one thread, and additionally scales with the pool.
struct MergeFixture {
  CellGraph graph;
  size_t num_cells;

  explicit MergeFixture(size_t cells_in, size_t partitions, size_t edges)
      : num_cells(cells_in) {
    Rng rng(77);
    graph.cell_is_core.resize(num_cells);
    graph.successors.resize(num_cells);
    graph.partitions.resize(partitions);
    for (uint32_t c = 0; c < num_cells; ++c) {
      graph.partitions[rng.Uniform(partitions)].push_back(c);
      graph.cell_is_core[c] = rng.UniformDouble(0, 1) < 0.8;
    }
    for (size_t e = 0; e < edges; ++e) {
      const uint32_t from = static_cast<uint32_t>(rng.Uniform(num_cells));
      const uint32_t to = static_cast<uint32_t>(rng.Uniform(num_cells));
      if (from == to || !graph.cell_is_core[from]) continue;  // Phase II shape
      graph.successors[from].push_back(to);
    }
    for (std::vector<uint32_t>& row : graph.successors) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
  }
};

MergeFixture& MergeData() {
  static MergeFixture* f = new MergeFixture(
      bench::Scaled(60000), /*partitions=*/32, bench::Scaled(360000));
  return *f;
}

void BM_MergeForest(benchmark::State& state, bool parallel) {
  const MergeFixture& f = MergeData();
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(threads);
  MergeOptions opts;
  opts.parallel_unions = parallel;
  opts.pool = &pool;
  size_t clusters = 0;
  for (auto _ : state) {
    const MergeResult r = MergeSubgraphs(f.graph, f.num_cells, opts);
    clusters = r.num_clusters;
    benchmark::DoNotOptimize(clusters);
  }
  state.SetItemsProcessed(state.iterations() * f.graph.partitions.size());
  state.counters["clusters"] = static_cast<double>(clusters);
}
BENCHMARK_CAPTURE(BM_MergeForest, sequential, false)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MergeForest, parallel, true)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_DisjointSetUnionFind(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    DisjointSet dsu(100000);
    state.ResumeTiming();
    for (int i = 0; i < 100000; ++i) {
      dsu.Union(static_cast<uint32_t>(rng.Uniform(100000)),
                static_cast<uint32_t>(rng.Uniform(100000)));
    }
    benchmark::DoNotOptimize(dsu.num_components());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_DisjointSetUnionFind)->Unit(benchmark::kMillisecond);

// Host-speed reference: fills a freshly mapped buffer with 2^20 seeded
// 64-bit keys and sorts it on one thread, calling no library code — the
// kernel perfbench's HostSpeed times. A shared host drifts by tens of
// percent within minutes, so tools/run_bench.sh records this time beside
// every BENCH_*.json record, and two records compare at the host speed
// each one saw.
void BM_HostKernel(benchmark::State& state) {
  constexpr size_t kKeys = size_t{1} << 20;
  constexpr size_t kBytes = kKeys * sizeof(uint64_t);
  for (auto _ : state) {
    void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      state.SkipWithError("mmap failed");
      break;
    }
    uint64_t* keys = static_cast<uint64_t*>(mem);
    std::mt19937_64 rng(1);
    for (size_t i = 0; i < kKeys; ++i) keys[i] = rng();
    std::sort(keys, keys + kKeys);
    benchmark::DoNotOptimize(keys);
    benchmark::ClobberMemory();
    munmap(mem, kBytes);
  }
}
BENCHMARK(BM_HostKernel)->Unit(benchmark::kSecond);

}  // namespace
}  // namespace rpdbscan

// Custom main instead of BENCHMARK_MAIN: the library's own build type
// must land in the JSON context. google-benchmark's "library_build_type"
// field reports how *libbenchmark* was compiled (the system package),
// which is what let a debug-built rp_core masquerade as a release
// benchmark run — run_bench.sh now keys off this context entry instead.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("rpdbscan_build_type", "release");
#else
  benchmark::AddCustomContext("rpdbscan_build_type", "debug");
#endif
  benchmark::AddCustomContext(
      "rpdbscan_simd",
      rpdbscan::SimdLevelName(rpdbscan::DetectSimdLevel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
