#include "core/rp_dbscan.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "core/labeling.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "core/simd.h"
#include "parallel/thread_pool.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "verify/audit.h"

namespace rpdbscan {

std::string RunStats::ToString() const {
  std::ostringstream os;
  os << "RP-DBSCAN run: " << total_seconds << " s total\n"
     << "  Phase I-1 (partitioning):   " << partition_seconds << " s"
     << " (key " << key_seconds << " s, sort " << sort_seconds
     << " s, scatter " << scatter_seconds << " s)\n"
     << "  Phase I-2 (dictionary):     " << dictionary_seconds << " s"
     << " (histograms " << histogram_seconds << " s, fragments "
     << fragment_seconds << " s, neighborhoods " << neighborhood_seconds
     << " s; wire payload " << broadcast_bytes << " bytes)\n"
     << "  Phase II  (cell graph):     " << phase2_seconds << " s\n"
     << "  Phase III-1 (merging):      " << merge_seconds << " s\n"
     << "  Phase III-2 (labeling):     " << label_seconds << " s\n"
     << "  cells=" << num_cells << " subcells=" << num_subcells
     << " subdicts=" << num_subdictionaries
     << " dict_bytes=" << dictionary_bytes << "\n"
     << "  core_cells=" << num_core_cells << " clusters=" << num_clusters
     << " noise=" << num_noise_points << "\n"
     << "  candidate_cells_scanned=" << candidate_cells_scanned
     << " early_exits=" << early_exits << "\n"
     << "  kernels=" << simd_kernel
     << " merge=" << (parallel_merge ? "parallel" : "sequential") << "\n";
  if (stencil_probes > 0) os << "  stencil_probes=" << stencil_probes << "\n";
  if (memory_budget_bytes > 0) {
    os << "  out-of-core phase1: " << (external_phase1 ? "on" : "fallback")
       << " budget=" << memory_budget_bytes << " chunks=" << external_chunks
       << " runs=" << external_runs << " spill=" << external_spill_bytes
       << " peak_accounted=" << external_peak_accounted_bytes << "\n";
  }
  if (audit_checks > 0) {
    os << "  audit: " << audit_checks << " checks, " << audit_violations
       << " violations, " << audit_seconds << " s\n";
  }
  os << "  edges/round:";
  for (const size_t e : edges_per_round) os << ' ' << e;
  os << '\n';
  return os.str();
}

std::string RunStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("partition_seconds").Value(partition_seconds);
  w.Key("key_seconds").Value(key_seconds);
  w.Key("sort_seconds").Value(sort_seconds);
  w.Key("scatter_seconds").Value(scatter_seconds);
  w.Key("dictionary_seconds").Value(dictionary_seconds);
  w.Key("histogram_seconds").Value(histogram_seconds);
  w.Key("fragment_seconds").Value(fragment_seconds);
  w.Key("neighborhood_seconds").Value(neighborhood_seconds);
  w.Key("phase2_seconds").Value(phase2_seconds);
  w.Key("merge_seconds").Value(merge_seconds);
  w.Key("label_seconds").Value(label_seconds);
  w.Key("total_seconds").Value(total_seconds);
  w.Key("num_cells").Value(num_cells);
  w.Key("num_subcells").Value(num_subcells);
  w.Key("num_subdictionaries").Value(num_subdictionaries);
  w.Key("dictionary_bytes").Value(dictionary_bytes);
  w.Key("broadcast_bytes").Value(broadcast_bytes);
  w.Key("num_core_cells").Value(num_core_cells);
  w.Key("num_clusters").Value(num_clusters);
  w.Key("num_noise_points").Value(num_noise_points);
  w.Key("subdict_visited").Value(subdict_visited);
  w.Key("subdict_possible").Value(subdict_possible);
  w.Key("candidate_cells_scanned").Value(candidate_cells_scanned);
  w.Key("early_exits").Value(early_exits);
  w.Key("stencil_probes").Value(stencil_probes);
  w.Key("audit_checks").Value(audit_checks);
  w.Key("audit_violations").Value(audit_violations);
  w.Key("audit_seconds").Value(audit_seconds);
  w.Key("simd_kernel").Value(simd_kernel);
  w.Key("parallel_merge").Value(parallel_merge);
  w.Key("external_phase1").Value(external_phase1);
  w.Key("external_chunks").Value(external_chunks);
  w.Key("external_runs").Value(external_runs);
  w.Key("external_spill_bytes").Value(external_spill_bytes);
  w.Key("external_peak_accounted_bytes").Value(external_peak_accounted_bytes);
  w.Key("memory_budget_bytes").Value(memory_budget_bytes);
  w.Key("phase2_task_seconds").BeginArray();
  for (const double s : phase2_task_seconds) w.Value(s);
  w.EndArray();
  w.Key("edges_per_round").BeginArray();
  for (const size_t e : edges_per_round) w.Value(e);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

StatusOr<RpDbscanResult> RunRpDbscan(const Dataset& data,
                                     const RpDbscanOptions& options) {
  if (options.min_pts == 0) {
    return Status::InvalidArgument("min_pts must be >= 1");
  }
  if (data.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.query_eps != 0.0 && options.query_eps < options.eps) {
    return Status::InvalidArgument(
        "query_eps must be >= eps (the cell diagonal must stay within the "
        "query radius)");
  }
  if (options.stencil_eps_scale < 1.0) {
    return Status::InvalidArgument("stencil_eps_scale must be >= 1");
  }
  if (!(options.sampled_core_fraction > 0.0)) {
    return Status::InvalidArgument("sampled_core_fraction must be > 0");
  }
  auto geom_or = GridGeometry::Create(data.dim(), options.eps, options.rho);
  if (!geom_or.ok()) return geom_or.status();
  const GridGeometry geom = *geom_or;

  size_t num_threads = options.num_threads;
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  size_t num_partitions = options.num_partitions;
  if (num_partitions == 0) num_partitions = num_threads * 4;

  ThreadPool pool(num_threads);
  RpDbscanResult result;
  RunStats& stats = result.stats;
  Stopwatch total;

  // Per-stage invariant auditing: accumulate counts/time into the stats
  // and fail the run on the first violated stage (later phases would only
  // propagate the corruption).
  const AuditLevel audit = options.audit_level;
  auto apply_audit = [&stats](const char* stage,
                              const AuditReport& rep) -> Status {
    stats.audit_checks += rep.checks();
    stats.audit_violations += rep.violations();
    return rep.ToStatus(stage);
  };

  // ---- Phase I-1: pseudo random partitioning (Sec. 4.1). In-RAM by
  // default; with a point_source the out-of-core external-sort build runs
  // instead, streaming the source under the memory budget. Both produce
  // bit-identical cell sets, so everything downstream is unchanged. ----
  Stopwatch phase_watch;
  StatusOr<CellSet> cells_or = [&]() -> StatusOr<CellSet> {
    if (options.point_source == nullptr) {
      return CellSet::Build(data, geom, num_partitions, options.seed, &pool);
    }
    if (options.point_source->size() != data.size() ||
        options.point_source->dim() != data.dim()) {
      return Status::InvalidArgument(
          "point_source does not describe the same points as the dataset");
    }
    ExternalBuildOptions ext_opts;
    ext_opts.memory_budget_bytes = options.memory_budget_bytes;
    ext_opts.spill_dir = options.spill_dir;
    ExternalBuildStats ext_stats;
    auto built =
        CellSet::BuildExternal(*options.point_source, geom, num_partitions,
                               options.seed, ext_opts, &pool, &ext_stats);
    stats.external_phase1 = ext_stats.external_path_used;
    stats.external_chunks = ext_stats.chunks;
    stats.external_runs = ext_stats.runs;
    stats.external_spill_bytes = ext_stats.spill_bytes;
    stats.external_peak_accounted_bytes = ext_stats.peak_accounted_bytes;
    stats.memory_budget_bytes = options.memory_budget_bytes;
    return built;
  }();
  if (!cells_or.ok()) return cells_or.status();
  const CellSet& cells = *cells_or;
  stats.partition_seconds = phase_watch.ElapsedSeconds();
  stats.key_seconds = cells.breakdown().key_seconds;
  stats.sort_seconds = cells.breakdown().sort_seconds;
  stats.scatter_seconds = cells.breakdown().scatter_seconds;

  if (audit != AuditLevel::kOff) {
    Stopwatch audit_watch;
    const AuditReport rep = AuditCellSet(data, cells, audit);
    stats.audit_seconds += audit_watch.ElapsedSeconds();
    RPDBSCAN_RETURN_IF_ERROR(apply_audit("cell-set", rep));
  }

  // ---- Phase I-2: two-level cell dictionary (Sec. 4.2). ----
  phase_watch.Reset();
  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = options.max_cells_per_subdict;
  dict_opts.defragment = options.defragment_dictionary;
  dict_opts.enable_skipping = options.subdictionary_skipping;
  // Decoupled query radii need stencil headroom: enumerate the offset
  // family out to the largest radius this dictionary will be queried at,
  // so those queries walk the neighborhood CSR as a class-filtered
  // prefix.
  dict_opts.stencil_eps_scale = options.stencil_eps_scale;
  if (options.query_eps > 0.0) {
    dict_opts.stencil_eps_scale = std::max(dict_opts.stencil_eps_scale,
                                           options.query_eps / options.eps);
  }
  StatusOr<CellDictionary> dict_or =
      CellDictionary::Build(data, cells, dict_opts, &pool);
  if (!dict_or.ok()) return dict_or.status();
  stats.dictionary_seconds = phase_watch.ElapsedSeconds();
  stats.histogram_seconds = dict_or->breakdown().histogram_seconds;
  stats.fragment_seconds = dict_or->breakdown().fragment_seconds;
  stats.neighborhood_seconds = dict_or->breakdown().neighborhood_seconds;

  // Alg. 1 line 5 broadcasts the dictionary to every worker; here the
  // Phase II threads share this one immutable instance, so only the
  // payload size is reported.
  const CellDictionary& dict = *dict_or;
  stats.num_cells = dict.num_cells();
  stats.num_subcells = dict.num_subcells();
  stats.num_subdictionaries = dict.num_subdictionaries();
  stats.dictionary_bytes = dict.SizeBytesLemma43();
  stats.broadcast_bytes = dict.WireSizeBytes();

  if (audit != AuditLevel::kOff) {
    Stopwatch audit_watch;
    const AuditReport rep = AuditDictionary(data, cells, dict, audit);
    stats.audit_seconds += audit_watch.ElapsedSeconds();
    RPDBSCAN_RETURN_IF_ERROR(apply_audit("dictionary", rep));
  }

  // ---- Phase II: core marking + cell subgraph building (Sec. 5). ----
  phase_watch.Reset();
  Phase2Options phase2_opts;
  phase2_opts.scalar_kernels = options.scalar_kernels;
  phase2_opts.query_eps = options.query_eps;
  // Sampled-core mode (DBSCAN++-style): keep a deterministic fraction of
  // cells as core candidates, chosen by hashing the cell coordinate with
  // the sample seed — the same cell is kept at every ladder level, which
  // preserves core-set monotonicity across levels. fraction >= 1 keeps the
  // exact run with no mask at all.
  std::vector<uint8_t> core_mask;
  if (options.sampled_core_fraction < 1.0) {
    const uint64_t threshold = static_cast<uint64_t>(
        options.sampled_core_fraction * 18446744073709551616.0);
    core_mask.resize(cells.num_cells());
    for (uint32_t cid = 0; cid < cells.num_cells(); ++cid) {
      const uint64_t h =
          Mix64(cells.cell(cid).coord.hash() ^ options.core_sample_seed);
      core_mask[cid] = h < threshold ? 1 : 0;
    }
    phase2_opts.core_cell_mask = core_mask.data();
  }
  Phase2Result phase2 =
      BuildSubgraphs(data, cells, dict, options.min_pts, pool, phase2_opts);
  stats.phase2_seconds = phase_watch.ElapsedSeconds();
  stats.simd_kernel = SimdLevelName(phase2.simd_level);
  stats.phase2_task_seconds = phase2.task_seconds;
  stats.subdict_visited = phase2.subdict_visited;
  stats.subdict_possible = phase2.subdict_possible;
  stats.candidate_cells_scanned = phase2.candidate_cells_scanned;
  stats.early_exits = phase2.early_exits;
  stats.stencil_probes = phase2.stencil_probes;
  for (const uint8_t c : phase2.cell_is_core) {
    stats.num_core_cells += c;
  }

  // The cell-graph and label audits recompute densities at the geometry
  // eps and with exact cores, so they only apply to the classic coupled,
  // unsampled run.
  const bool classic_semantics =
      options.query_eps == 0.0 && phase2_opts.core_cell_mask == nullptr;

  // Must run before MergeSubgraphs consumes the subgraphs.
  if (audit != AuditLevel::kOff && classic_semantics) {
    Stopwatch audit_watch;
    const AuditReport rep = AuditCellGraph(data, cells, phase2, audit);
    stats.audit_seconds += audit_watch.ElapsedSeconds();
    RPDBSCAN_RETURN_IF_ERROR(apply_audit("cell-graph", rep));
  }

  // ---- Phase III-1: progressive graph merging (Sec. 6.1). ----
  phase_watch.Reset();
  MergeOptions merge_opts;
  merge_opts.reduce_edges = options.reduce_edges;
  merge_opts.pool = &pool;
  merge_opts.parallel_unions = !options.sequential_merge;
  stats.parallel_merge = merge_opts.parallel_unions;
  MergeResult merged = MergeSubgraphs(std::move(phase2.subgraphs),
                                      cells.num_cells(), merge_opts);
  stats.merge_seconds = phase_watch.ElapsedSeconds();
  stats.edges_per_round = merged.edges_per_round;
  stats.num_clusters = merged.num_clusters;

  if (audit != AuditLevel::kOff) {
    Stopwatch audit_watch;
    const AuditReport rep =
        AuditMergeForest(phase2.cell_is_core, merged, audit);
    stats.audit_seconds += audit_watch.ElapsedSeconds();
    RPDBSCAN_RETURN_IF_ERROR(apply_audit("merge-forest", rep));
  }

  // ---- Phase III-2: point labeling (Sec. 6.2). ----
  phase_watch.Reset();
  result.labels = LabelPoints(data, cells, merged, phase2.point_is_core,
                              pool, options.query_eps);
  stats.label_seconds = phase_watch.ElapsedSeconds();
  for (const int64_t l : result.labels) {
    if (l == kNoise) ++stats.num_noise_points;
  }

  if (audit != AuditLevel::kOff && classic_semantics) {
    Stopwatch audit_watch;
    const AuditReport rep =
        AuditLabels(data, cells, merged, phase2.point_is_core, result.labels,
                    options.min_pts, audit, options.seed);
    stats.audit_seconds += audit_watch.ElapsedSeconds();
    RPDBSCAN_RETURN_IF_ERROR(apply_audit("labels", rep));
  }

  // ---- Model capture for the serving layer (src/serve/). Runs last, and
  // here rather than in a caller, because extracting the border references
  // needs the CellSet (which cells of which points) alive, and the
  // dictionary move must come after the final audit that reads it.
  if (options.capture_model) {
    result.model = std::make_shared<CapturedModel>(BuildCapturedModel(
        data, cells, std::move(merged), std::move(phase2.point_is_core),
        std::move(*dict_or), options.min_pts, options.query_eps));
  }

  stats.total_seconds = total.ElapsedSeconds();
  return result;
}

CapturedModel BuildCapturedModel(const Dataset& data, const CellSet& cells,
                                 MergeResult merged,
                                 std::vector<uint8_t> point_is_core,
                                 CellDictionary dictionary, size_t min_pts,
                                 double query_eps) {
  CapturedModel model;
  model.min_pts = min_pts;
  model.num_points = data.size();
  model.query_eps =
      query_eps > 0.0 ? query_eps : dictionary.geom().eps();
  const size_t dim = data.dim();
  const size_t num_cells = cells.num_cells();
  // Border references: for every cell that appears in some non-core
  // cell's predecessor list, the coordinates of its core points in cell
  // point-id order — exactly the points, and exactly the order, that
  // LabelPoints' first-match walk tests. Serving replays that walk
  // bit-for-bit from these copies.
  std::vector<uint8_t> referenced(num_cells, 0);
  for (const std::vector<uint32_t>& preds : merged.predecessors) {
    for (const uint32_t p : preds) referenced[p] = 1;
  }
  model.ref_offsets.assign(num_cells + 1, 0);
  for (uint32_t cid = 0; cid < num_cells; ++cid) {
    uint64_t count = 0;
    if (referenced[cid]) {
      for (const uint32_t pid : cells.cell(cid).point_ids) {
        count += point_is_core[pid];
      }
    }
    model.ref_offsets[cid + 1] = model.ref_offsets[cid] + count;
  }
  model.ref_coords.resize(model.ref_offsets[num_cells] * dim);
  for (uint32_t cid = 0; cid < num_cells; ++cid) {
    if (referenced[cid] == 0) continue;
    float* out = model.ref_coords.data() + model.ref_offsets[cid] * dim;
    for (const uint32_t pid : cells.cell(cid).point_ids) {
      if (point_is_core[pid] == 0) continue;
      const float* p = data.point(pid);
      out = std::copy(p, p + dim, out);
    }
  }
  model.point_is_core = std::move(point_is_core);
  model.merged = std::move(merged);
  model.dictionary = std::move(dictionary);
  return model;
}

}  // namespace rpdbscan
