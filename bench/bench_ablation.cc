// Ablation study of RP-DBSCAN's design choices (beyond the paper's own
// figures, but directly motivated by its Sections 4.2.2, 5.2 and 6.1.4):
//
//  (a) dictionary defragmentation + sub-dictionary skipping on/off
//      -> Phase II time and the fraction of sub-dictionaries inspected;
//  (b) full-edge reduction on/off -> surviving edge count after merging;
//  (d) pseudo random partitioning vs one monolithic partition
//      -> Phase II task balance;
//  (f) Phase II candidate enumeration: lattice-stencil walk vs kd-tree
//      descent -> Phase II time plus probe/hit counters.
//
// All variants must produce the identical clustering (asserted in tests);
// this harness measures only their cost profile. RunRpDbscan walks the
// stencil on this 2-d data, and skipping only exists on the kd-tree path,
// so section (a) and the kd-tree row of (f) run the stages directly on a
// dictionary built without a stencil (max_stencil_offsets = 0).

#include <cstdio>

#include "bench_common.h"
#include "core/phase2.h"
#include "core/rp_dbscan.h"
#include "parallel/cluster_model.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace bench {
namespace {

RunStats RunVariant(const Dataset& ds, double eps, bool reduce,
                    size_t partitions) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = kMinPts;
  o.num_threads = kThreads;
  o.num_partitions = partitions;
  o.reduce_edges = reduce;
  auto r = RunRpDbscan(ds, o);
  if (!r.ok()) {
    std::fprintf(stderr, "variant failed: %s\n",
                 r.status().ToString().c_str());
    return RunStats();
  }
  return r->stats;
}

/// Phase II on the kd-tree engine over 32 partitions, with defragmentation
/// and skipping both on or both off. Sets *seconds to the Phase II wall
/// time.
Phase2Result TreePhase2(const Dataset& ds, double eps, bool defrag_and_skip,
                        double* seconds) {
  *seconds = 0;
  const RpDbscanOptions defaults;
  auto geom = GridGeometry::Create(ds.dim(), eps, defaults.rho);
  ThreadPool pool(kThreads);
  auto cells =
      geom.ok() ? CellSet::Build(ds, *geom, 32, defaults.seed, &pool)
                : StatusOr<CellSet>(geom.status());
  if (!cells.ok()) {
    std::fprintf(stderr, "variant failed: %s\n",
                 cells.status().ToString().c_str());
    return Phase2Result();
  }
  CellDictionaryOptions opts;
  opts.defragment = defrag_and_skip;
  opts.enable_skipping = defrag_and_skip;
  opts.max_stencil_offsets = 0;
  auto dict = CellDictionary::Build(ds, *cells, opts, &pool);
  if (!dict.ok()) {
    std::fprintf(stderr, "variant failed: %s\n",
                 dict.status().ToString().c_str());
    return Phase2Result();
  }
  Stopwatch watch;
  Phase2Result r = BuildSubgraphs(ds, *cells, *dict, kMinPts, pool);
  *seconds = watch.ElapsedSeconds();
  return r;
}

void Run() {
  PrintHeader(
      "Ablation: dictionary defrag+skipping, edge reduction, partitioning");
  const BenchDataset osm = MakeOsm();
  const double eps = osm.EpsSweep()[1];

  std::printf("\n(a) dictionary defragmentation + skipping (Lemma 5.10)\n");
  std::printf("%-28s %12s %14s\n", "variant", "phase2(s)",
              "subdict visit%");
  for (const bool on : {true, false}) {
    double seconds = 0;
    const Phase2Result r = TreePhase2(osm.data, eps, on, &seconds);
    const double pct =
        r.subdict_possible > 0
            ? 100.0 * static_cast<double>(r.subdict_visited) /
                  static_cast<double>(r.subdict_possible)
            : 100.0;
    std::printf("%-28s %12.3f %13.1f%%\n",
                on ? "defrag+skip ON" : "monolithic, no skip", seconds,
                pct);
    std::fflush(stdout);
  }

  std::printf("\n(b) full-edge reduction (Sec. 6.1.4)\n");
  std::printf("%-28s %14s %14s\n", "variant", "edges round0",
              "edges final");
  for (const bool on : {true, false}) {
    const RunStats s = RunVariant(osm.data, eps, on, 32);
    std::printf("%-28s %14zu %14zu\n",
                on ? "reduction ON" : "reduction OFF",
                s.edges_per_round.empty() ? 0 : s.edges_per_round.front(),
                s.edges_per_round.empty() ? 0 : s.edges_per_round.back());
    std::fflush(stdout);
  }

  std::printf(
      "\n(d) partition granularity (cells spread over k partitions)\n");
  std::printf("%-28s %12s %12s\n", "variant", "total(s)", "imbalance");
  for (const size_t parts : {1, 8, 32, 128}) {
    const RunStats s = RunVariant(osm.data, eps, true, parts);
    char name[32];
    std::snprintf(name, sizeof(name), "k = %zu", parts);
    std::printf("%-28s %12.3f %12.2f\n", name, s.total_seconds,
                LoadImbalance(s.phase2_task_seconds));
    std::fflush(stdout);
  }

  std::printf(
      "\n(f) Phase II candidate enumeration (stencil vs kd-tree)\n");
  std::printf("%-28s %12s %14s\n", "variant", "phase2(s)",
              "stencil probes");
  const RunStats s = RunVariant(osm.data, eps, true, 32);
  std::printf("%-28s %12.3f %14zu\n", "lattice stencil", s.phase2_seconds,
              s.stencil_probes);
  double tree_seconds = 0;
  TreePhase2(osm.data, eps, true, &tree_seconds);
  std::printf("%-28s %12.3f %14d\n", "kd-tree descent", tree_seconds, 0);
  std::fflush(stdout);
}

}  // namespace
}  // namespace bench
}  // namespace rpdbscan

int main() { rpdbscan::bench::Run(); }
