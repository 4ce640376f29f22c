// The four workloads of the benchmark of record (see perfbench/README.md
// for why each exists and which layer metric should move which end-to-end
// metric). Each one makes its inputs from the seed, runs a set-up, then
// alternates timed passes at 1 thread and at nproc threads until the time
// budget is spent, and checks every output outside the timed region. With
// tracing on, it instead times nproc passes untraced (the overhead
// baseline) and then makes one traced pass that spans each public call.

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "core/labeling.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "core/rp_dbscan.h"
#include "io/binary.h"
#include "io/csv.h"
#include "io/dataset.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "serve/label_server.h"
#include "serve/request_loop.h"
#include "serve/snapshot.h"
#include "stream/epoch_registry.h"
#include "stream/incremental.h"
#include "synth/generators.h"
#include "verify/audit.h"

namespace rpbench {

using rpdbscan::CapturedModel;
using rpdbscan::CellDictionary;
using rpdbscan::CellDictionaryOptions;
using rpdbscan::CellEntry;
using rpdbscan::CellSet;
using rpdbscan::ClusterModelSnapshot;
using rpdbscan::Dataset;
using rpdbscan::EpochRegistry;
using rpdbscan::GridGeometry;
using rpdbscan::Labels;
using rpdbscan::LabelServer;
using rpdbscan::MergeResult;
using rpdbscan::RpDbscanOptions;
using rpdbscan::ServeResult;
using rpdbscan::ServeStats;
using rpdbscan::Status;
using rpdbscan::StreamClusterer;
using rpdbscan::ThreadPool;

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"io.read_s", "s"},
      {"io.write_s", "s"},
      {"io.write_bytes", "bytes"},
      {"phase1.build_s", "s"},
      {"phase1.cells", "count"},
      {"dict.entries_s", "s"},
      {"dict.assemble_s", "s"},
      {"dict.build_s", "s"},
      {"dict.subcells", "count"},
      {"dict.lemma43_bytes", "bytes"},
      {"broadcast.serialize_s", "s"},
      {"broadcast.deserialize_s", "s"},
      {"broadcast.wire_bytes", "bytes"},
      {"phase2.build_s", "s"},
      {"phase2.task_max_over_mean", "ratio"},
      {"phase2.candidate_cells", "count"},
      {"phase2.early_exit_frac", "frac"},
      {"phase2.neighbors_walked", "count"},
      {"phase2.subdict_visit_frac", "frac"},
      {"merge.merge_s", "s"},
      {"merge.edges_in", "count"},
      {"merge.edges_kept", "count"},
      {"label.label_s", "s"},
      {"serve.classify_s", "s"},
      {"serve.codec_s", "s"},
      {"serve.transport_s", "s"},
      {"serve.cell_hit_frac", "frac"},
      {"serve.exact_frac", "frac"},
      {"serve.neighbors_walked", "count"},
      {"serve.freeze_s", "s"},
      {"stream.ingest_s", "s"},
      {"stream.publish_s", "s"},
      {"stream.swap_s", "s"},
      {"stream.dirty_frac", "frac"},
      {"stream.reclustered_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return kUnits;
}

namespace {

constexpr size_t kMinPts = 20;
constexpr double kGeoEps = 2.0;
constexpr double kTeraEps = 40.0;
/// Fewest timed rounds a run makes, however long they take. Every loop
/// first makes one warm-up round, checked but not timed.
constexpr size_t kMinRounds = 3;
/// Set-up repetitions per run; setup_s is their median. The serve set-up
/// clusters 400k points, so it is repeated least.
constexpr size_t kSetupReps = 5;
/// The cluster set-up is one file write and the stream set-up one small
/// Create plus epoch 0, a few milliseconds each, so they are repeated more
/// often for a steady median.
constexpr size_t kWriteReps = 51;
constexpr size_t kStreamSetupReps = 21;
/// Untraced replays of the serve session's batches, the baseline of the
/// serve trace.overhead_frac.
constexpr size_t kReplayReps = 5;

double Frac(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Where a workload with a client beside a worker pool places its threads:
/// the client side (the serve client and the request loop's threads, or
/// the stream reader) on the last CPU this process may use, and the pool
/// and the thread that feeds it on the others. The two sides never share a
/// CPU, and the client's own hand-offs stay on one CPU. With one CPU both
/// sides share it.
struct CpuSplit {
  cpu_set_t workers;
  cpu_set_t client;

  static CpuSplit FromAffinity() {
    CpuSplit s;
    CPU_ZERO(&s.workers);
    CPU_ZERO(&s.client);
    cpu_set_t all;
    CPU_ZERO(&all);
    sched_getaffinity(0, sizeof(all), &all);
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) last = c;
    }
    s.workers = all;
    s.client = all;
    if (CPU_COUNT(&all) >= 2) {
      CPU_CLR(last, &s.workers);
      CPU_ZERO(&s.client);
      CPU_SET(last, &s.client);
    }
    return s;
  }
};

/// Restricts the calling thread to `cpus` until destroyed. Threads it
/// starts meanwhile, such as a ThreadPool's, inherit the restriction.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& cpus) {
    saved_ok_ =
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
    if (saved_ok_) pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus);
  }
  ~ScopedAffinity() {
    if (saved_ok_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_;
  bool saved_ok_ = false;
};

RpDbscanOptions ClusterOptions(double eps, size_t threads) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = kMinPts;
  o.num_threads = threads;
  return o;
}

Dataset Slice(const Dataset& all, size_t begin, size_t end) {
  Dataset out(all.dim());
  out.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out.Append(all.point(i));
  return out;
}

/// Seeded query points: half resampled training points (the exact path),
/// half uniform over the training bounding box (cell misses and noise).
class QueryMaker {
 public:
  QueryMaker(const Dataset& train, size_t train_points, uint64_t seed)
      : train_(train), train_points_(train_points), rng_(seed) {
    const size_t dim = train.dim();
    lo_.assign(dim, 0);
    hi_.assign(dim, 0);
    for (size_t i = 0; i < train_points; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        const float v = train.point(i)[d];
        if (i == 0 || v < lo_[d]) lo_[d] = v;
        if (i == 0 || v > hi_[d]) hi_[d] = v;
      }
    }
  }

  Dataset Batch(size_t size) {
    Dataset q(train_.dim());
    q.Reserve(size);
    std::vector<float> p(train_.dim());
    for (size_t j = 0; j < size; ++j) {
      if (rng_() & 1) {
        q.Append(train_.point(rng_() % train_points_));
        continue;
      }
      for (size_t d = 0; d < p.size(); ++d) {
        const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
        p[d] = static_cast<float>(lo_[d] + u * (hi_[d] - lo_[d]));
      }
      q.Append(p.data());
    }
    return q;
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  const Dataset& train_;
  size_t train_points_;
  std::mt19937_64 rng_;
  std::vector<float> lo_, hi_;
};

/// Generator seeds fixing each workload's point set. Part of the
/// workload's definition, like its size.
constexpr uint64_t kGeoShape = 101;
constexpr uint64_t kTeraShape = 104;

/// The input a run's seed selects: the workload's fixed point set in a
/// seeded order. The seed changes the order, and with it the cell
/// numbering, the partitions' contents and which points a stream ingests
/// late, but not the points themselves. Runs of different seeds therefore
/// measure the same workload, and their spread is the measurement's own.
Dataset ShuffledInput(const Dataset& points, uint64_t seed) {
  std::vector<uint32_t> idx(points.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<uint32_t>(i);
  std::shuffle(idx.begin(), idx.end(), std::mt19937_64(seed));
  Dataset out(points.dim());
  out.Reserve(points.size());
  for (const uint32_t i : idx) out.Append(points.point(i));
  return out;
}

Dataset GeoLifeInput(size_t n, uint64_t seed) {
  return ShuffledInput(rpdbscan::synth::GeoLifeLike(n, kGeoShape), seed);
}

bool SameResult(const ServeResult& a, const ServeResult& b) {
  return a.cluster == b.cluster && a.kind == b.kind &&
         a.certainty == b.certainty && a.density == b.density;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// RunRpDbscan's stages replayed one public call at a time, in its order
/// and with its default options, so that every layer gets its own span.
struct Staged {
  Labels labels;
  std::optional<CellSet> cells;
  MergeResult merged;
  std::vector<uint8_t> point_is_core;
  /// The dictionary Phase II queried: the broadcast round-trip's output.
  CellDictionary dict;
  /// Wall seconds of the pipeline stages (not the attribution replay).
  double stage_seconds = 0;
};

/// Runs the staged pipeline. Per-layer metrics land in `out` when given;
/// then the dictionary is also rebuilt as every MakeCellEntry plus
/// FromEntries, whose wire bytes must equal Build's.
std::unique_ptr<Staged> RunStaged(const Dataset& data, double eps,
                                  size_t threads, Tracer& tr, Outcome* out) {
  auto st = std::make_unique<Staged>();
  const RpDbscanOptions defaults;
  auto geom_or = GridGeometry::Create(data.dim(), eps, defaults.rho);
  if (!geom_or.ok()) return nullptr;
  const GridGeometry geom = *geom_or;
  ThreadPool pool(threads);
  const size_t partitions = threads * 4;  // RunRpDbscan's auto choice

  double t = tr.Time("CellSet::Build", "core/cell_set", [&] {
    auto cells = CellSet::Build(data, geom, partitions, defaults.seed, &pool);
    if (cells.ok()) st->cells.emplace(std::move(*cells));
  });
  st->stage_seconds += t;
  if (!st->cells) return nullptr;
  const CellSet& cells = *st->cells;
  if (out) {
    out->Set("phase1.build_s", t, "s");
    out->Set("phase1.cells", static_cast<double>(cells.num_cells()), "count");
  }

  const CellDictionaryOptions dict_opts;
  std::optional<CellDictionary> built;
  t = tr.Time("CellDictionary::Build", "core/cell_dictionary", [&] {
    auto d = CellDictionary::Build(data, cells, dict_opts, &pool);
    if (d.ok()) built.emplace(std::move(*d));
  });
  st->stage_seconds += t;
  if (!built) return nullptr;
  if (out) {
    out->Set("dict.build_s", t, "s");
    out->Set("dict.subcells", static_cast<double>(built->num_subcells()),
             "count");
    out->Set("dict.lemma43_bytes",
             static_cast<double>(built->SizeBytesLemma43()), "bytes");
  }

  std::vector<uint8_t> wire;
  t = tr.Time("CellDictionary::Serialize", "core/cell_dictionary",
              [&] { wire = built->Serialize(); });
  st->stage_seconds += t;
  if (out) {
    out->Set("broadcast.serialize_s", t, "s");
    out->Set("broadcast.wire_bytes", static_cast<double>(wire.size()),
             "bytes");
  }
  bool decoded_ok = false;
  t = tr.Time("CellDictionary::Deserialize", "core/cell_dictionary", [&] {
    auto d = CellDictionary::Deserialize(wire, dict_opts, &pool);
    decoded_ok = d.ok();
    if (decoded_ok) st->dict = std::move(*d);
  });
  st->stage_seconds += t;
  if (!decoded_ok) return nullptr;
  if (out) out->Set("broadcast.deserialize_s", t, "s");

  rpdbscan::Phase2Result phase2;
  t = tr.Time("BuildSubgraphs", "core/phase2", [&] {
    phase2 = rpdbscan::BuildSubgraphs(data, cells, st->dict, kMinPts, pool);
  });
  st->stage_seconds += t;
  if (out) {
    out->Set("phase2.build_s", t, "s");
    const std::vector<double>& tasks = phase2.task_seconds;
    const double mean = Frac(Sum(tasks), static_cast<double>(tasks.size()));
    const double max =
        tasks.empty() ? 0.0 : *std::max_element(tasks.begin(), tasks.end());
    out->Set("phase2.task_max_over_mean", Frac(max, mean), "ratio",
             tasks.size());
    out->Set("phase2.candidate_cells",
             static_cast<double>(phase2.candidate_cells_scanned), "count");
    out->Set("phase2.early_exit_frac",
             Frac(static_cast<double>(phase2.early_exits),
                  static_cast<double>(data.size())),
             "frac");
    out->Set("phase2.neighbors_walked",
             static_cast<double>(phase2.stencil_probes), "count");
    out->Set("phase2.subdict_visit_frac",
             Frac(static_cast<double>(phase2.subdict_visited),
                  static_cast<double>(phase2.subdict_possible)),
             "frac");
  }

  rpdbscan::MergeOptions merge_opts;
  merge_opts.reduce_edges = defaults.reduce_edges;
  merge_opts.pool = &pool;
  merge_opts.parallel_unions = !defaults.sequential_merge;
  t = tr.Time("MergeSubgraphs", "core/merge", [&] {
    st->merged = rpdbscan::MergeSubgraphs(std::move(phase2.subgraphs),
                                          cells.num_cells(), merge_opts);
  });
  st->stage_seconds += t;
  if (out) {
    const std::vector<size_t>& rounds = st->merged.edges_per_round;
    out->Set("merge.merge_s", t, "s");
    out->Set("merge.edges_in",
             rounds.empty() ? 0.0 : static_cast<double>(rounds.front()),
             "count");
    out->Set("merge.edges_kept",
             rounds.empty() ? 0.0 : static_cast<double>(rounds.back()),
             "count");
  }

  st->point_is_core = std::move(phase2.point_is_core);
  t = tr.Time("LabelPoints", "core/labeling", [&] {
    st->labels = rpdbscan::LabelPoints(data, cells, st->merged,
                                       st->point_is_core, pool);
  });
  st->stage_seconds += t;
  if (out == nullptr) return st;
  out->Set("label.label_s", t, "s");

  std::vector<CellEntry> entries(cells.num_cells());
  t = tr.Time("CellDictionary::MakeCellEntry", "core/cell_dictionary", [&] {
    rpdbscan::ParallelFor(pool, entries.size(), [&](size_t i) {
      const uint32_t id = static_cast<uint32_t>(i);
      entries[i] =
          CellDictionary::MakeCellEntry(data, geom, cells.cell(id), id);
    });
  });
  out->Set("dict.entries_s", t, "s");
  std::optional<CellDictionary> assembled;
  t = tr.Time("CellDictionary::FromEntries", "core/cell_dictionary", [&] {
    auto d =
        CellDictionary::FromEntries(geom, std::move(entries), dict_opts, &pool);
    if (d.ok()) assembled.emplace(std::move(*d));
  });
  out->Set("dict.assemble_s", t, "s");
  out->Check(assembled && assembled->Serialize() == wire,
             "FromEntries bytes differ from Build's");
  return st;
}

/// Checks a staged run's labels against RunRpDbscan's and audits them.
void CheckStaged(const Dataset& data, const Staged* st, const Labels& ref,
                 const char* what, Outcome* out) {
  out->Check(st != nullptr && st->labels == ref,
             std::string(what) + ": staged labels differ from RunRpDbscan's");
  if (st == nullptr) return;
  const rpdbscan::AuditReport rep = rpdbscan::AuditLabels(
      data, *st->cells, st->merged, st->point_is_core, st->labels, kMinPts,
      rpdbscan::AuditLevel::kCheap, RpDbscanOptions().seed);
  out->Check(rep.ok(), std::string(what) + ": AuditLabels: " + rep.ToString());
}

/// The self-test's corruption: one label changed.
void Corrupt(Labels* labels) {
  int64_t& l = (*labels)[labels->size() / 2];
  l = l == rpdbscan::kNoise ? 0 : rpdbscan::kNoise;
}

}  // namespace

// ---------------------------------------------------------------------------
// cluster-geolife / cluster-tera: ReadBinary -> RunRpDbscan -> WriteCsv.

void RunClusterWorkload(const Config& cfg, bool tera, Tracer& tr,
                        Outcome* out) {
  const size_t n = tera ? (cfg.tiny ? 4000 : 40000)
                        : (cfg.tiny ? 20000 : 400000);
  const double eps = tera ? kTeraEps : kGeoEps;
  const Dataset input =
      tera ? ShuffledInput(rpdbscan::synth::TeraLike(n, kTeraShape), cfg.seed)
           : GeoLifeInput(n, cfg.seed);
  const std::string in_path = cfg.workdir + "/input.rpds";
  const std::string csv_path = cfg.workdir + "/labels.csv";

  // Set-up: writing the input file is the program work before the timed
  // region.
  std::vector<double> setup;
  for (size_t i = 0; i < kWriteReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Status st = rpdbscan::WriteBinary(in_path, input);
    setup.push_back(SecondsSince(t0));
    out->Check(st.ok(), "WriteBinary: " + st.ToString());
  }
  out->sizes["input_bytes"] = FileBytes(in_path);

  struct Pass {
    bool ok = false;
    double seconds = 0;
    Labels labels;
  };
  auto run_pass = [&](size_t threads) {
    Pass p;
    const Clock::time_point t0 = Clock::now();
    auto ds = rpdbscan::ReadBinary(in_path);
    if (!ds.ok()) {
      out->Check(false, "ReadBinary: " + ds.status().ToString());
      return p;
    }
    auto run = rpdbscan::RunRpDbscan(*ds, ClusterOptions(eps, threads));
    if (!run.ok()) {
      out->Check(false, "RunRpDbscan: " + run.status().ToString());
      return p;
    }
    const Status w = rpdbscan::WriteCsv(csv_path, *ds, &run->labels);
    p.seconds = SecondsSince(t0);
    if (!w.ok()) {
      out->Check(false, "WriteCsv: " + w.ToString());
      return p;
    }
    out->sizes["dictionary_bytes"] = run->stats.dictionary_bytes;
    out->sizes["broadcast_bytes"] = run->stats.broadcast_bytes;
    p.ok = true;
    p.labels = std::move(run->labels);
    return p;
  };

  // Timed region. Every pass's labels must equal the first pass's: 1 and
  // nproc threads give bit-identical clusterings.
  Labels ref;
  std::vector<double> t1, tn;
  bool corrupted = false;
  auto record = [&](Pass p, size_t threads, std::vector<double>* times) {
    if (!p.ok) return;
    if (times != nullptr) times->push_back(p.seconds);
    if (ref.empty()) {
      ref = std::move(p.labels);
      out->Check(true, "");
      return;
    }
    if (cfg.corrupt == "label" && !corrupted) {
      Corrupt(&p.labels);
      corrupted = true;
    }
    out->Check(p.labels == ref, "labels at " + std::to_string(threads) +
                                    " threads differ from the first pass");
  };
  std::vector<double> rss;
  HostSpeed host(cfg.nproc);
  Clock::time_point start = Clock::now();
  for (size_t round = 0;; ++round) {
    if (round == 1) start = Clock::now();
    host.Sample();
    ResetPeakRss();
    if (!cfg.trace) record(run_pass(1), 1, round > 0 ? &t1 : nullptr);
    record(run_pass(cfg.nproc), cfg.nproc, round > 0 ? &tn : nullptr);
    if (round > 0) rss.push_back(PeakRssMb());
    if (round >= kMinRounds && SecondsSince(start) >= cfg.seconds) break;
  }
  if (ref.empty()) return;

  // The staged replay: traced when tracing, and always checked against
  // RunRpDbscan's labels and audited.
  std::unique_ptr<Staged> staged;
  double stage_sum = 0;
  tr.Time("cluster pass", "bench", [&] {
    std::optional<Dataset> ds;
    const double read_s = tr.Time("ReadBinary", "io", [&] {
      auto d = rpdbscan::ReadBinary(in_path);
      if (d.ok()) ds.emplace(std::move(*d));
    });
    if (!ds) return;
    staged = RunStaged(*ds, eps, cfg.nproc, tr, cfg.trace ? out : nullptr);
    if (!staged) return;
    Status w;
    const double write_s = tr.Time("WriteCsv", "io", [&] {
      w = rpdbscan::WriteCsv(csv_path, *ds, &staged->labels);
    });
    out->Check(w.ok(), "WriteCsv: " + w.ToString());
    stage_sum = read_s + staged->stage_seconds + write_s;
    if (cfg.trace) {
      out->Set("io.read_s", read_s, "s");
      out->Set("io.write_s", write_s, "s");
      out->Set("io.write_bytes", static_cast<double>(FileBytes(csv_path)),
               "bytes");
    }
  });
  CheckStaged(input, staged.get(), ref, "cluster", out);

  // The written CSV's label column must read back equal.
  auto back = rpdbscan::ReadCsv(csv_path);
  bool csv_ok = back.ok() && back->size() == ref.size() &&
                back->dim() == input.dim() + 1;
  for (size_t i = 0; csv_ok && i < ref.size(); ++i) {
    csv_ok = static_cast<int64_t>(back->point(i)[input.dim()]) == ref[i];
  }
  out->Check(csv_ok, "label CSV does not read back equal");

  HostSpeed::SetScaled("setup_s", setup, host.Scale1(), out);
  HostSpeed::SetScaled("run_nt_s", tn, host.ScaleN(), out);
  host.Report(out);
  out->Set("peak_rss_mb", Median(rss), "MB", rss.size());
  if (cfg.trace) {
    out->Set("trace.overhead_frac", Frac(stage_sum, Median(tn)) - 1.0, "frac");
  } else {
    HostSpeed::SetScaled("run_1t_s", t1, host.Scale1(), out);
  }
}

// ---------------------------------------------------------------------------
// serve-session: a closed-loop client session against ServeRequestLoop.

namespace {

struct Session {
  Status status;
  double seconds = 0;
  std::vector<double> rtt_us;  // per answered request, in plan order
  std::vector<std::vector<ServeResult>> responses;
};

/// One client connection: connect, send every batch in order (each waits
/// for its reply), shut the loop down. Times connect to last reply. The
/// pool runs on the split's worker CPUs; the client and the request loop's
/// threads share its client CPU, as they take turns.
Session RunSession(const LabelServer& server, size_t pool_threads,
                   const std::vector<Dataset>& plan, const CpuSplit& cpus) {
  Session s;
  std::optional<ThreadPool> pool_storage;
  {
    ScopedAffinity on_workers(cpus.workers);
    pool_storage.emplace(pool_threads);
  }
  ThreadPool& pool = *pool_storage;
  ScopedAffinity on_client(cpus.client);
  const Clock::time_point t0 = Clock::now();
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    s.status = Status::IOError("socketpair failed");
    return s;
  }
  Status loop_status;
  std::thread loop([&] {
    loop_status = rpdbscan::ServeRequestLoop(fds[0], fds[0], server, pool);
    // A loop that ends early must not leave the client blocked on a read.
    shutdown(fds[0], SHUT_RDWR);
  });
  s.responses.reserve(plan.size());
  for (const Dataset& batch : plan) {
    const Clock::time_point r0 = Clock::now();
    const Status sent = rpdbscan::SendClassifyRequest(fds[1], batch);
    if (!sent.ok()) {
      s.status = sent;
      break;
    }
    auto reply = rpdbscan::ReadClassifyResponse(fds[1]);
    if (!reply.ok()) {
      s.status = reply.status();
      break;
    }
    s.rtt_us.push_back(SecondsSince(r0) * 1e6);
    s.responses.push_back(std::move(*reply));
  }
  s.seconds = SecondsSince(t0);
  if (!rpdbscan::SendShutdown(fds[1]).ok()) shutdown(fds[1], SHUT_RDWR);
  loop.join();
  close(fds[0]);
  close(fds[1]);
  if (s.status.ok()) s.status = loop_status;
  return s;
}

}  // namespace

void RunServeWorkload(const Config& cfg, Tracer& tr, Outcome* out) {
  const size_t n = cfg.tiny ? 20000 : 400000;
  const Dataset data = GeoLifeInput(n, cfg.seed);
  const size_t pool_threads = std::max<size_t>(1, cfg.nproc - 1);
  const CpuSplit cpus = CpuSplit::FromAffinity();
  out->sizes["input_bytes"] = data.PayloadBytes();

  // Set-up: cluster with capture_model, freeze, construct the server.
  std::shared_ptr<const LabelServer> server;
  Labels train_labels;
  std::vector<double> setup;
  for (size_t i = 0; i < kSetupReps; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    RpDbscanOptions opts = ClusterOptions(kGeoEps, cfg.nproc);
    opts.capture_model = true;
    auto run = rpdbscan::RunRpDbscan(data, opts);
    if (!run.ok()) {
      out->Check(false, "RunRpDbscan: " + run.status().ToString());
      return;
    }
    auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
    if (!snap.ok()) {
      out->Check(false, "FromModel: " + snap.status().ToString());
      return;
    }
    server = std::make_shared<const LabelServer>(
        std::make_shared<const ClusterModelSnapshot>(std::move(*snap)));
    setup.push_back(SecondsSince(t0));
    out->Check(true, "");
    out->sizes["dictionary_bytes"] = run->stats.dictionary_bytes;
    out->sizes["broadcast_bytes"] = run->stats.broadcast_bytes;
    train_labels = std::move(run->labels);
  }

  if (cfg.trace) {
    // Traced set-up: the staged pipeline, capture and freeze, each spanned.
    server.reset();
    tr.Time("serve setup", "bench", [&] {
      std::unique_ptr<Staged> st = RunStaged(data, kGeoEps, cfg.nproc, tr, out);
      CheckStaged(data, st.get(), train_labels, "serve", out);
      if (!st) return;
      CapturedModel model;
      tr.Time("BuildCapturedModel", "core/rp_dbscan", [&] {
        model = rpdbscan::BuildCapturedModel(
            data, *st->cells, std::move(st->merged),
            std::move(st->point_is_core), std::move(st->dict), kMinPts);
      });
      std::optional<ClusterModelSnapshot> snap;
      const double freeze_s =
          tr.Time("ClusterModelSnapshot::FromModel", "serve", [&] {
            auto s = ClusterModelSnapshot::FromModel(std::move(model));
            if (s.ok()) snap.emplace(std::move(*s));
          });
      out->Set("serve.freeze_s", freeze_s, "s");
      if (!snap) return;
      tr.Time("LabelServer", "serve", [&] {
        server = std::make_shared<const LabelServer>(
            std::make_shared<const ClusterModelSnapshot>(std::move(*snap)));
      });
    });
    if (!server) {
      out->Check(false, "traced serve set-up failed");
      return;
    }
  }

  // The session plan: a seeded interleaving of batch sizes 1, 64 and 4096.
  QueryMaker maker(data, data.size(), cfg.seed ^ 0x5e55101ull);
  std::vector<size_t> sizes;
  sizes.insert(sizes.end(), cfg.tiny ? 40 : 300, 1);
  sizes.insert(sizes.end(), cfg.tiny ? 10 : 60, 64);
  sizes.insert(sizes.end(), cfg.tiny ? 2 : 6, 4096);
  std::shuffle(sizes.begin(), sizes.end(), maker.rng());
  std::vector<Dataset> plan;
  for (const size_t s : sizes) plan.push_back(maker.Batch(s));

  // Expected answers: an in-process ClassifyBatch of each batch.
  std::vector<std::vector<ServeResult>> expected(plan.size());
  {
    ThreadPool pool(pool_threads);
    for (size_t i = 0; i < plan.size(); ++i) {
      const Status st = server->ClassifyBatch(plan[i], pool, &expected[i]);
      if (!st.ok()) {
        out->Check(false, "ClassifyBatch: " + st.ToString());
        return;
      }
    }
  }

  bool corrupted = false;
  auto check_session = [&](Session& s) {
    if (cfg.corrupt == "response" && !corrupted && !s.responses.empty() &&
        !s.responses[0].empty()) {
      s.responses[0][0].cluster += 1;
      corrupted = true;
    }
    for (size_t i = 0; i < plan.size(); ++i) {
      bool ok = i < s.responses.size() &&
                s.responses[i].size() == expected[i].size();
      for (size_t j = 0; ok && j < expected[i].size(); ++j) {
        ok = SameResult(s.responses[i][j], expected[i][j]);
      }
      out->Check(ok, i < s.responses.size()
                         ? "served response differs from ClassifyBatch"
                         : "request not answered: " + s.status.ToString());
    }
    out->Check(s.status.ok(), "session: " + s.status.ToString());
  };

  std::vector<double> session_1t, session_nt;
  std::vector<double> rtt[3];  // batch sizes 1, 64, 4096; nproc sessions
  std::vector<double> rss;
  HostSpeed host(cfg.nproc);
  Clock::time_point start = Clock::now();
  for (size_t round = 0;; ++round) {
    if (round == 1) start = Clock::now();
    host.Sample();
    ResetPeakRss();
    if (!cfg.trace) {
      Session s = RunSession(*server, 1, plan, cpus);
      if (round > 0) session_1t.push_back(s.seconds);
      check_session(s);
    }
    Session s = RunSession(*server, pool_threads, plan, cpus);
    if (round > 0) {
      rss.push_back(PeakRssMb());
      session_nt.push_back(s.seconds);
      for (size_t i = 0; i < s.rtt_us.size(); ++i) {
        const size_t b = plan[i].size();
        rtt[b == 1 ? 0 : b == 64 ? 1 : 2].push_back(s.rtt_us[i]);
      }
    }
    check_session(s);
    if (round >= kMinRounds && SecondsSince(start) >= cfg.seconds) break;
  }

  HostSpeed::SetScaled("setup_s", setup, host.ScaleN(), out);
  out->Set("session_s", Median(session_nt), "s", session_nt.size());
  HostSpeed::SetScaled("run_nt_s", session_nt, host.ScaleN(), out);
  host.Report(out);
  out->Set("peak_rss_mb", Median(rss), "MB", rss.size());
  if (!cfg.trace) {
    HostSpeed::SetScaled("run_1t_s", session_1t, host.Scale1(), out);
    out->Set("rtt_b1_p50_us", Percentile(rtt[0], 50), "us", rtt[0].size());
    out->Set("rtt_b1_p99_us", Percentile(rtt[0], 99), "us", rtt[0].size());
    out->Set("rtt_b64_p50_us", Percentile(rtt[1], 50), "us", rtt[1].size());
    out->Set("rtt_b64_p99_us", Percentile(rtt[1], 99), "us", rtt[1].size());
    out->Set("rtt_b4096_p50_us", Percentile(rtt[2], 50), "us",
             rtt[2].size());
    return;
  }

  // Traced: one session, then the same batches replayed in-process through
  // ClassifyBatch and through all four codec calls. Transport is what the
  // session spent beyond those two. The session itself opens no library
  // spans, so it belongs to the bench layer.
  double session_s = 0;
  tr.Time("serve session", "bench", [&] {
    Session s = RunSession(*server, pool_threads, plan, cpus);
    session_s = s.seconds;
    check_session(s);
  });
  ThreadPool pool(pool_threads);
  struct Replay {
    double classify_s = 0;
    double codec_s = 0;
    ServeStats stats;
  };
  auto replay = [&](Tracer& t) {
    Replay r;
    for (const Dataset& batch : plan) {
      std::vector<ServeResult> results;
      Status st;
      r.classify_s += t.Time("LabelServer::ClassifyBatch", "serve", [&] {
        st = server->ClassifyBatch(batch, pool, &results, &r.stats);
      });
      out->Check(st.ok(), "replayed ClassifyBatch: " + st.ToString());
      std::vector<uint8_t> req, resp;
      bool decoded = true;
      r.codec_s += t.Time("EncodeClassifyRequest", "serve", [&] {
        req = rpdbscan::EncodeClassifyRequest(batch);
      });
      r.codec_s += t.Time("DecodeClassifyRequest", "serve", [&] {
        decoded = rpdbscan::DecodeClassifyRequest(req).ok() && decoded;
      });
      r.codec_s += t.Time("EncodeClassifyResponse", "serve", [&] {
        resp = rpdbscan::EncodeClassifyResponse(results);
      });
      r.codec_s += t.Time("DecodeClassifyResponse", "serve", [&] {
        decoded = rpdbscan::DecodeClassifyResponse(resp).ok() && decoded;
      });
      out->Check(decoded, "codec round trip failed");
    }
    return r;
  };
  // The overhead baseline: the same replay with no spans recorded.
  Tracer off(false);
  std::vector<double> untraced;
  for (size_t i = 0; i < kReplayReps; ++i) {
    const Replay r = replay(off);
    untraced.push_back(r.classify_s + r.codec_s);
  }
  const Replay traced = replay(tr);
  const double classify_s = traced.classify_s, codec_s = traced.codec_s;
  const ServeStats& stats = traced.stats;
  const double queries = static_cast<double>(stats.queries);
  out->Set("serve.classify_s", classify_s, "s", plan.size());
  out->Set("serve.codec_s", codec_s, "s", plan.size());
  out->Set("serve.transport_s", session_s - classify_s - codec_s, "s");
  out->Set("serve.cell_hit_frac",
           Frac(static_cast<double>(stats.cell_hits), queries), "frac");
  out->Set("serve.exact_frac", Frac(static_cast<double>(stats.exact), queries),
           "frac");
  out->Set("serve.neighbors_walked", static_cast<double>(stats.stencil_probes),
           "count");
  out->Set("trace.overhead_frac",
           Frac(classify_s + codec_s, Median(untraced)) - 1.0, "frac",
           untraced.size());
}

// ---------------------------------------------------------------------------
// stream-churn: small ingest batches, one epoch and one registry publish per
// batch, while a closed-loop reader classifies against the current epoch.

void RunStreamWorkload(const Config& cfg, Tracer& tr, Outcome* out) {
  // Sized so the mean epoch's dirty set stays under 10% of the cells.
  const size_t n = cfg.tiny ? 4000 : 10000;
  const size_t seed_points = n * 9 / 10;
  const size_t batch_points = 8;
  const Dataset data = GeoLifeInput(n, cfg.seed);
  out->sizes["input_bytes"] = data.PayloadBytes();

  // The reader's 64-query batches, over the seeded part of the stream.
  QueryMaker maker(data, seed_points, cfg.seed ^ 0x57e4a11ull);
  std::vector<Dataset> reads;
  for (size_t i = 0; i < 64; ++i) reads.push_back(maker.Batch(64));

  // The reference every final epoch must equal: a from-scratch run.
  Labels scratch;
  {
    auto run = rpdbscan::RunRpDbscan(data, ClusterOptions(kGeoEps, cfg.nproc));
    if (!run.ok()) {
      out->Check(false, "RunRpDbscan: " + run.status().ToString());
      return;
    }
    scratch = std::move(run->labels);
    out->sizes["dictionary_bytes"] = run->stats.dictionary_bytes;
  }

  struct Pass {
    double churn_s = 0;
    std::vector<double> epoch_ms;
    uint64_t read_queries = 0;
    double dirty_frac = 0, reclustered_frac = 0;  // means over the churn
    double ingest_s = 0, publish_s = 0, swap_s = 0;
    double classify_s = 0;  // the reader's
  };
  // Set-up: Create on the seed points, epoch 0, and its registry publish.
  const Dataset seed_data = Slice(data, 0, seed_points);
  auto set_up = [&](size_t writers, Tracer& t,
                    std::optional<StreamClusterer>* sc,
                    EpochRegistry* registry) {
    bool ok = false;
    t.Time("StreamClusterer::Create", "stream", [&] {
      auto c = StreamClusterer::Create(seed_data,
                                       ClusterOptions(kGeoEps, writers));
      if (c.ok()) sc->emplace(std::move(*c));
    });
    if (*sc) {
      std::optional<rpdbscan::EpochResult> e0;
      t.Time("StreamClusterer::PublishEpoch", "stream", [&] {
        auto e = (*sc)->PublishEpoch();
        if (e.ok()) e0.emplace(std::move(*e));
      });
      if (e0) {
        t.Time("EpochRegistry::Publish", "stream", [&] {
          ok = registry->Publish(std::move(e0->snapshot)).ok();
        });
      }
    }
    out->Check(ok, "stream set-up (Create + epoch 0) failed");
    return ok;
  };
  // The writer pool and the thread feeding it run on the split's worker
  // CPUs, and the reader alone on its client CPU.
  const CpuSplit cpus = CpuSplit::FromAffinity();
  auto run_pass = [&](size_t writers, bool traced) {
    Pass p;
    Tracer off(false);
    Tracer& t = traced ? tr : off;
    ScopedAffinity on_workers(cpus.workers);
    std::optional<StreamClusterer> sc;
    EpochRegistry registry;
    if (!set_up(writers, t, &sc, &registry)) return p;

    std::atomic<bool> stop{false};
    uint64_t read_failures = 0;
    std::thread reader([&] {
      ScopedAffinity on_client(cpus.client);
      ThreadPool pool(1);
      std::vector<ServeResult> results;
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const auto epoch = registry.Current();
        const Dataset& batch = reads[i % reads.size()];
        Status st;
        p.classify_s += t.Time("LabelServer::ClassifyBatch", "serve", [&] {
          st = epoch->server->ClassifyBatch(batch, pool, &results);
        });
        if (!st.ok()) ++read_failures;
        p.read_queries += batch.size();
      }
    });

    Labels last;
    const Clock::time_point c0 = Clock::now();
    for (size_t pos = seed_points; pos < n; pos += batch_points) {
      const Dataset batch = Slice(data, pos, std::min(n, pos + batch_points));
      const Clock::time_point e0 = Clock::now();
      Status st;
      p.ingest_s += t.Time("StreamClusterer::Ingest", "stream",
                           [&] { st = sc->Ingest(batch); });
      std::optional<rpdbscan::EpochResult> epoch;
      if (st.ok()) {
        p.publish_s += t.Time("StreamClusterer::PublishEpoch", "stream", [&] {
          auto e = sc->PublishEpoch();
          if (e.ok()) {
            epoch.emplace(std::move(*e));
          } else {
            st = e.status();
          }
        });
      }
      if (epoch) {
        const rpdbscan::EpochStats& es = epoch->stats;
        p.dirty_frac += Frac(static_cast<double>(es.dirty_cells),
                             static_cast<double>(es.total_cells));
        p.reclustered_frac += Frac(static_cast<double>(es.reclustered_points),
                                   static_cast<double>(es.total_points));
        last = std::move(epoch->labels);
        p.swap_s += t.Time("EpochRegistry::Publish", "stream", [&] {
          auto published = registry.Publish(std::move(epoch->snapshot));
          if (!published.ok()) st = published.status();
        });
      }
      p.epoch_ms.push_back(SecondsSince(e0) * 1e3);
      out->Check(st.ok(), "epoch: " + st.ToString());
    }
    p.churn_s = SecondsSince(c0);
    stop.store(true);
    reader.join();
    out->attempted += p.read_queries / 64;
    out->failed += read_failures;
    const double epochs = static_cast<double>(p.epoch_ms.size());
    p.dirty_frac = Frac(p.dirty_frac, epochs);
    p.reclustered_frac = Frac(p.reclustered_frac, epochs);
    if (cfg.corrupt == "label" && !last.empty()) Corrupt(&last);
    out->Check(last == scratch,
               "final epoch labels differ from a from-scratch run");
    return p;
  };

  const size_t writers = std::max<size_t>(1, cfg.nproc - 1);
  // setup_s: the nproc-writer set-up alone, repeated for a steady median.
  std::vector<double> setup;
  {
    Tracer off(false);
    ScopedAffinity on_workers(cpus.workers);
    for (size_t i = 0; i < kStreamSetupReps; ++i) {
      std::optional<StreamClusterer> sc;
      EpochRegistry registry;
      const Clock::time_point t0 = Clock::now();
      const bool ok = set_up(writers, off, &sc, &registry);
      if (ok) setup.push_back(SecondsSince(t0));
    }
  }

  std::vector<double> churn_1t, churn_nt, epoch_ms, qps, rss;
  HostSpeed host(cfg.nproc);
  Clock::time_point start = Clock::now();
  for (size_t round = 0;; ++round) {
    if (round == 1) start = Clock::now();
    host.Sample();
    ResetPeakRss();
    if (!cfg.trace) {
      const Pass p = run_pass(1, false);
      if (round > 0) churn_1t.push_back(p.churn_s);
    }
    const Pass p = run_pass(writers, false);
    if (round == 0) continue;
    rss.push_back(PeakRssMb());
    churn_nt.push_back(p.churn_s);
    epoch_ms.insert(epoch_ms.end(), p.epoch_ms.begin(), p.epoch_ms.end());
    qps.push_back(Frac(static_cast<double>(p.read_queries), p.churn_s));
    if (round >= kMinRounds && SecondsSince(start) >= cfg.seconds) break;
  }
  HostSpeed::SetScaled("setup_s", setup, host.ScaleN(), out);
  HostSpeed::SetScaled("run_nt_s", churn_nt, host.ScaleN(), out);
  host.Report(out);
  out->Set("peak_rss_mb", Median(rss), "MB", rss.size());
  if (!cfg.trace) {
    HostSpeed::SetScaled("run_1t_s", churn_1t, host.Scale1(), out);
    out->Set("epoch_p50_ms", Percentile(epoch_ms, 50), "ms", epoch_ms.size());
    out->Set("epoch_p90_ms", Percentile(epoch_ms, 90), "ms", epoch_ms.size());
    out->Set("read_qps", Median(qps), "1/s", qps.size());
    return;
  }

  Pass traced;
  tr.Time("stream pass", "bench", [&] { traced = run_pass(writers, true); });
  const size_t epochs = traced.epoch_ms.size();
  out->Set("stream.ingest_s", traced.ingest_s, "s", epochs);
  out->Set("stream.publish_s", traced.publish_s, "s", epochs);
  out->Set("stream.swap_s", traced.swap_s, "s", epochs);
  out->Set("serve.classify_s", traced.classify_s, "s");
  out->Set("stream.dirty_frac", traced.dirty_frac, "frac", epochs);
  out->Set("stream.reclustered_frac", traced.reclustered_frac, "frac", epochs);
  out->Set("trace.overhead_frac",
           Frac(traced.churn_s, Median(churn_nt)) - 1.0, "frac");
}

}  // namespace rpbench
