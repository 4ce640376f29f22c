// rpdbscan_cli: cluster a point set from the command line with any
// algorithm in this repository.
//
// Input: --input=points.csv (headerless floats) or --input=points.rpds
// (binary, see io/binary.h), or a synthetic set via
// --generate=<moons|blobs|chameleon|geolife|cosmo|osm|tera> --n=<points>.
//
// Algorithm: --algo=<rp|exact|esp|rbp|cbp|spark|ng|naive> (default rp).
//
// Examples:
//   rpdbscan_cli --generate=blobs --n=50000 --eps=1.0 --minpts=20 --stats
//   rpdbscan_cli --input=data.csv --eps=0.5 --minpts=10 --output=labels.csv
//   rpdbscan_cli --input=data.csv --convert=data.rpds
//
// Exit status: 0 on success, 1 on any error (message on stderr).

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "baselines/exact_dbscan.h"
#include "baselines/naive_random_split.h"
#include "baselines/ng_dbscan.h"
#include "baselines/region_split.h"
#include "core/rp_dbscan.h"
#include "hierarchy/eps_ladder.h"
#include "io/binary.h"
#include "io/csv.h"
#include "io/mmap_dataset.h"
#include "io/point_source.h"
#include "io/section_file.h"
#include "io/transforms.h"
#include "metrics/cluster_stats.h"
#include "metrics/hausdorff.h"
#include "metrics/nmi.h"
#include "metrics/rand_index.h"
#include "parallel/thread_pool.h"
#include "serve/label_server.h"
#include "serve/model_registry.h"
#include "serve/request_loop.h"
#include "serve/snapshot.h"
#include "serve/snapshot_audit.h"
#include "spatial/kdtree.h"
#include "stream/epoch_registry.h"
#include "stream/incremental.h"
#include "synth/generators.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

constexpr char kUsage[] = R"(usage: rpdbscan_cli [flags]
  input (pick one):
    --input=PATH          .csv (headerless floats) or .rpds (binary)
    --generate=KIND       moons|blobs|chameleon|geolife|cosmo|osm|tera
    --n=N                 points to generate (default 50000)
    --seed=S              generator seed (default 42)
  clustering:
    --algo=A              rp|exact|esp|rbp|cbp|spark|ng|naive (default rp)
    --eps=E               DBSCAN radius (required unless --convert)
    --minpts=M            density threshold (default 20)
    --rho=R               approximation rate (default 0.01)
    --partitions=K        partitions / splits (default 16)
    --threads=T           worker threads (default 4)
    --sequential-merge    rp only: tournament merge (Fig. 17 series)
                          instead of the edge-parallel union-find
    --mmap                rp only: memory-map an .rpds --input read-only
                          and build Phase I-1 out-of-core (external sort
                          spilling under --memory-budget); labels are
                          bit-identical to the in-RAM path
    --memory-budget=B     rp only: working-set budget for --mmap runs;
                          bytes with optional k/m/g suffix (default 64m)
    --audit[=LEVEL]       rp only: audit pipeline invariants between
                          phases; LEVEL is off|cheap|full (bare --audit
                          means full). Violations fail the run.
  preprocessing:
    --normalize=MODE      minmax (onto [0,100]^d) or zscore
  diagnostics:
    --kdist=K             print K-th nearest-neighbor distance quantiles
                          (the classic eps-selection aid) and exit
  output:
    --output=PATH         write points + label column as CSV
    --stats               print timing / structure statistics
    --stats-json=PATH     write the run statistics as one JSON object
                          (rp only; the serve subcommand reuses it for
                          query-throughput stats)
    --save-snapshot=PATH  rp only: freeze the clustering into a versioned
                          .rpsnap model for the serve subcommand
    --convert=PATH        just convert the input to .rpds binary and exit

hierarchy (multi-eps cluster hierarchy over one shared dictionary):
  rpdbscan_cli hierarchy --generate=blobs --n=20000
      --eps-levels=0.8,1.2,1.8 --minpts=12 [--sampled-cores=0.5 --score]
    --eps-levels=E1,E2,..  strictly ascending query radii; E1 also sets
                          the shared grid geometry (required)
    --min-pts=M1,M2,..    per-level density thresholds (one per level, or
                          a single value broadcast; default --minpts)
    --sampled-cores=F     DBSCAN++-style approximation: only a seeded
                          F-fraction of cells may become core (default 1)
    --sample-seed=S       cell-sampling seed (fixed default: a sampled
                          ladder matches sampled independent runs)
    --no-seeding          re-count every level from scratch instead of
                          seeding core marking from the level below
    --score               also build the exact ladder and score each
                          level's labels against it (NMI, Rand index,
                          cluster Hausdorff)
    --save-snapshot=PATH  freeze the finest level with the whole ladder
                          attached as the snapshot's hierarchy section
    --output=PATH         write points + finest-level labels as CSV
    --stats-json=PATH     per-level and shared-stage statistics as JSON
  the rp engine flags (--rho --partitions --threads --sequential-merge)
  apply to every level.

serving (classify out-of-sample points against a frozen model):
  rpdbscan_cli serve --snapshot=f.rpsnap --queries=q.csv [--threads=N]
  rpdbscan_cli serve --snapshot=f.rpsnap --listen=/tmp/rp.sock
  rpdbscan_cli serve --models=1=a.rpsnap,2=b.rpsnap --listen=/tmp/rp.sock
  rpdbscan_cli serve --connect=/tmp/rp.sock --queries=q.csv [--model-id=2]
  (each form refuses a flag it does not read)
    --snapshot=PATH       .rpsnap written by --save-snapshot (required
                          unless --connect or --models)
    --models=ID=PATH,..   multi-model registry: keep every listed
                          snapshot resident and route each framed
                          request by its model id (requires --listen;
                          unrouted v1 frames hit the default model)
    --default-model=ID    model answering unrouted requests (default:
                          the first listed)
    --model-id=ID         client mode: tag requests with this model id
                          (routed v2 frames)
    --queries=PATH        .csv or .rpds query points (required unless
                          --listen)
    --threads=T           serving threads (default 4)
    --verify              audit the snapshot (container + structure)
                          before serving; violations fail the command
    --approx-border       skip the exact border replay (answer non-core
                          cells by nearest labeled cell, kApprox)
    --listen=WHERE        serve framed classify requests instead of a
                          one-shot batch: `stdio` reads frames on stdin
                          and answers on stdout; any other value is a
                          unix socket path (one connection, served until
                          a shutdown frame or hangup)
    --connect=PATH        client mode: send --queries to a --listen=PATH
                          server over its unix socket and print/collect
                          the served labels (sends shutdown after)
    --output=PATH         write query points + served labels as CSV
    --stats-json=PATH     write serving throughput stats as JSON with
                          percentiles: completion_* (a --queries batch:
                          each query's completion offset from batch
                          admission) or latency_* (--listen: each
                          request's sojourn; per-model breakdown under
                          --models)

streaming (replay the input as ingested batches, incrementally
re-clustering and hot-swapping epoch snapshots into a label server):
  rpdbscan_cli stream --generate=geolife --n=20000 --eps=2.0 --minpts=20
      --seed-points=15000 --batch-size=1000 --epoch-every=2
    --seed-points=S       points clustered up front as epoch 0 (default
                          half the input)
    --batch-size=B        points per ingested batch (default: the
                          remaining points split into 8 batches)
    --epoch-every=N       publish an epoch every N batches (default 1;
                          a final epoch covers any leftover batches)
    --epoch-dir=DIR       persist each epoch as DIR/epoch-<seq>.rpsnap
                          (DIR must exist)
    --audit[=LEVEL]       audit each epoch's pipeline stages at LEVEL
                          and additionally check every published
                          snapshot against a from-scratch run
                          (snapshot_audit pass 3); violations fail
    --output=PATH         write points + final-epoch labels as CSV
    --stats-json=PATH     write per-epoch stream statistics as one JSON
                          object (dirty_cells: the touched cells plus
                          the cells their gathers reach; extended_cells:
                          the reached all-core cells whose rows were
                          only tested against the touched cells;
                          reclustered_points: the points of the cells
                          that re-ran Phase II; epoch_publish_seconds
                          and its stage split dictionary_/phase2_/
                          merge_/package_seconds, ...)
  the rp clustering flags (--eps --minpts --rho --partitions --threads
  --sequential-merge) apply unchanged; every epoch's labels are
  bit-identical to a from-scratch run with those flags.
)";

/// True when `text` starts with a digit: strtoull would otherwise skip
/// blanks and negate a leading '-', so "-1" would parse as 2^64 - 1.
bool StartsWithDigit(const std::string& text) {
  return !text.empty() && std::isdigit(static_cast<unsigned char>(text[0]));
}

/// "262144", "256k", "64m", "1g" -> bytes ("64mb" style also accepted).
StatusOr<size_t> ParseByteSize(const std::string& text,
                               const std::string& flag) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (!StartsWithDigit(text) || errno == ERANGE) {
    return Status::InvalidArgument("bad " + flag + " byte size: " + text);
  }
  uint64_t shift = 0;
  if (*end != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
      default:
        return Status::InvalidArgument("bad " + flag +
                                       " byte-size suffix: " + text);
    }
    ++end;
    if (std::tolower(static_cast<unsigned char>(*end)) == 'b') ++end;
    if (*end != '\0') {
      return Status::InvalidArgument("bad " + flag +
                                     " byte-size suffix: " + text);
    }
  }
  if (value > (std::numeric_limits<uint64_t>::max() >> shift)) {
    return Status::InvalidArgument(flag + " byte size overflows: " + text);
  }
  return static_cast<size_t>(value << shift);
}

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// "0.8,1.2,1.8" -> {0.8, 1.2, 1.8}; empty entries and trailing junk fail.
StatusOr<std::vector<double>> ParseDoubleCsv(const std::string& text,
                                             const std::string& flag) {
  std::vector<double> values;
  for (const std::string& part : SplitCsv(text)) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(part.c_str(), &end);
    if (part.empty() || end != part.c_str() + part.size() ||
        errno == ERANGE) {
      return Status::InvalidArgument("bad " + flag + " entry: '" + part +
                                     "'");
    }
    values.push_back(v);
  }
  return values;
}

StatusOr<std::vector<size_t>> ParseSizeCsv(const std::string& text,
                                           const std::string& flag) {
  std::vector<size_t> values;
  for (const std::string& part : SplitCsv(text)) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(part.c_str(), &end, 10);
    if (!StartsWithDigit(part) || end != part.c_str() + part.size() ||
        errno == ERANGE) {
      return Status::InvalidArgument("bad " + flag + " entry: '" + part +
                                     "'");
    }
    values.push_back(static_cast<size_t>(v));
  }
  return values;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << text << '\n';
  if (!out.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

/// A count flag (--n, --minpts, --threads, --batch-size, --kdist, ...) as
/// a size_t: a negative value fails, naming the flag, instead of wrapping
/// or falling back to a default.
StatusOr<size_t> GetCountFlag(const FlagSet& flags, const std::string& key,
                              size_t fallback) {
  auto value_or = flags.GetInt(key, static_cast<int64_t>(fallback));
  if (!value_or.ok()) return value_or.status();
  if (*value_or < 0) {
    return Status::InvalidArgument("flag --" + key + " must be >= 0, got " +
                                   std::to_string(*value_or));
  }
  return static_cast<size_t>(*value_or);
}

/// A model id flag (--model-id, --default-model; 0 when absent): a count
/// that also fits the wire format's u32 id, failing with a Status naming
/// the flag.
StatusOr<uint32_t> GetModelIdFlag(const FlagSet& flags,
                                  const std::string& key) {
  auto id_or = GetCountFlag(flags, key, 0);
  if (!id_or.ok()) return id_or.status();
  if (*id_or > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("flag --" + key + " must be <= " +
                                   std::to_string(
                                       std::numeric_limits<uint32_t>::max()) +
                                   ", got " + std::to_string(*id_or));
  }
  return static_cast<uint32_t>(*id_or);
}

StatusOr<Dataset> LoadInput(const FlagSet& flags) {
  const std::string input = flags.GetString("input");
  const std::string generate = flags.GetString("generate");
  if (!input.empty() && !generate.empty()) {
    return Status::InvalidArgument("--input and --generate are exclusive");
  }
  if (!input.empty()) {
    if (input.size() >= 5 && input.substr(input.size() - 5) == ".rpds") {
      return ReadBinary(input);
    }
    return ReadCsv(input);
  }
  if (generate.empty()) {
    return Status::InvalidArgument("need --input or --generate");
  }
  auto n_or = GetCountFlag(flags, "n", 50000);
  auto seed_or = flags.GetInt("seed", 42);
  if (!n_or.ok()) return n_or.status();
  if (!seed_or.ok()) return seed_or.status();
  const size_t n = *n_or;
  const uint64_t seed = static_cast<uint64_t>(*seed_or);
  if (generate == "moons") return synth::Moons(n, 0.05, seed);
  if (generate == "blobs") return synth::Blobs(n, 10, 1.0, seed);
  if (generate == "chameleon") return synth::ChameleonLike(n, seed);
  if (generate == "geolife") return synth::GeoLifeLike(n, seed);
  if (generate == "cosmo") return synth::CosmoLike(n, seed);
  if (generate == "osm") return synth::OsmLike(n, seed);
  if (generate == "tera") return synth::TeraLike(n, seed);
  return Status::InvalidArgument("unknown generator: " + generate);
}

// The flags each entry point reads, in groups: a flag outside an entry
// point's groups fails the command before any input is loaded, so a
// mistyped or retired flag can never silently run the defaults.
const std::vector<std::string> kInputFlags = {"help", "input", "generate",
                                              "n", "seed"};
// The flags RpOptionsFromFlags reads.
const std::vector<std::string> kRpFlags = {
    "eps", "minpts", "rho", "partitions", "threads", "sequential-merge",
    "memory-budget", "audit"};

/// Prints "unknown flag --X" plus the usage and returns false when
/// `flags` holds a flag outside every group of `known`.
bool FlagsKnown(const FlagSet& flags,
                std::initializer_list<std::vector<std::string>> known) {
  const Status s = flags.CheckKnown(known);
  if (s.ok()) return true;
  std::fprintf(stderr, "%s\n%s", s.ToString().c_str(), kUsage);
  return false;
}

/// FlagsKnown for one `serve` mode: a flag that `mode` never reads,
/// whether another mode reads it or none does, fails like an unknown
/// flag, naming the mode.
bool ServeModeReads(const FlagSet& flags, const char* mode,
                    std::vector<std::string> reads) {
  reads.push_back("help");
  const Status s = flags.CheckKnown({reads});
  if (s.ok()) return true;
  std::fprintf(stderr, "%s (not read by %s)\n%s", s.ToString().c_str(),
               mode, kUsage);
  return false;
}

StatusOr<AuditLevel> ParseAuditFlag(const FlagSet& flags,
                                    AuditLevel fallback) {
  if (!flags.Has("audit")) return fallback;
  const std::string level = flags.GetString("audit");
  if (level.empty() || level == "full") return AuditLevel::kFull;
  if (level == "cheap") return AuditLevel::kCheap;
  if (level == "off") return AuditLevel::kOff;
  return Status::InvalidArgument("--audit must be off|cheap|full");
}

/// The flag -> RpDbscanOptions mapping, shared by every entry point that
/// clusters (the main command for every --algo, hierarchy and stream), so
/// `stream` epochs are comparable to plain `--algo=rp` runs.
StatusOr<RpDbscanOptions> RpOptionsFromFlags(const FlagSet& flags) {
  auto eps_or = flags.GetDouble("eps", 0.0);
  auto minpts_or = GetCountFlag(flags, "minpts", 20);
  auto rho_or = flags.GetDouble("rho", 0.01);
  auto parts_or = GetCountFlag(flags, "partitions", 16);
  auto threads_or = GetCountFlag(flags, "threads", 4);
  if (!eps_or.ok()) return eps_or.status();
  if (!minpts_or.ok()) return minpts_or.status();
  if (!rho_or.ok()) return rho_or.status();
  if (!parts_or.ok()) return parts_or.status();
  if (!threads_or.ok()) return threads_or.status();
  RpDbscanOptions o;
  o.eps = *eps_or;
  o.min_pts = *minpts_or;
  o.rho = *rho_or;
  o.num_partitions = *parts_or;
  o.num_threads = *threads_or;
  o.sequential_merge = flags.GetBool("sequential-merge");
  const std::string budget = flags.GetString("memory-budget");
  if (!budget.empty()) {
    auto budget_or = ParseByteSize(budget, "--memory-budget");
    if (!budget_or.ok()) return budget_or.status();
    if (*budget_or == 0) {
      return Status::InvalidArgument("--memory-budget must be > 0");
    }
    o.memory_budget_bytes = *budget_or;
  }
  auto audit_or = ParseAuditFlag(flags, o.audit_level);
  if (!audit_or.ok()) return audit_or.status();
  o.audit_level = *audit_or;
  return o;
}

/// `source` is non-null only for --mmap runs: the memory-mapped backing
/// store of `data` (which is then a borrowed view of it), routed into
/// RpDbscanOptions::point_source so Phase I-1 runs out-of-core.
StatusOr<Labels> Cluster(const FlagSet& flags, const Dataset& data,
                         bool print_stats,
                         const PointSource* source = nullptr) {
  auto rp_or = RpOptionsFromFlags(flags);
  if (!rp_or.ok()) return rp_or.status();
  const RpDbscanOptions& rp = *rp_or;
  const DbscanParams params{rp.eps, rp.min_pts};
  const std::string algo = flags.GetString("algo", "rp");

  if (source != nullptr && algo != "rp") {
    return Status::InvalidArgument("--mmap requires --algo=rp");
  }
  if (algo == "rp") {
    RpDbscanOptions o = rp;
    o.point_source = source;
    const std::string save_snapshot = flags.GetString("save-snapshot");
    o.capture_model = !save_snapshot.empty();
    auto r = RunRpDbscan(data, o);
    if (!r.ok()) return r.status();
    if (print_stats) std::fputs(r->stats.ToString().c_str(), stdout);
    const std::string stats_json = flags.GetString("stats-json");
    if (!stats_json.empty()) {
      RPDBSCAN_RETURN_IF_ERROR(WriteTextFile(stats_json, r->stats.ToJson()));
      std::fprintf(stderr, "wrote %s\n", stats_json.c_str());
    }
    if (!save_snapshot.empty()) {
      auto snap_or = ClusterModelSnapshot::FromModel(std::move(*r->model));
      if (!snap_or.ok()) return snap_or.status();
      RPDBSCAN_RETURN_IF_ERROR(snap_or->WriteFile(save_snapshot));
      std::fprintf(stderr, "wrote snapshot %s (%zu cells, %zu clusters)\n",
                   save_snapshot.c_str(), snap_or->meta().num_cells,
                   snap_or->meta().num_clusters);
    }
    return std::move(r->labels);
  }
  if (flags.Has("save-snapshot") || flags.Has("stats-json")) {
    return Status::InvalidArgument(
        "--save-snapshot / --stats-json require --algo=rp");
  }
  if (algo == "exact") {
    auto r = RunExactDbscan(data, params);
    if (!r.ok()) return r.status();
    return std::move(r->labels);
  }
  if (algo == "esp" || algo == "rbp" || algo == "cbp" || algo == "spark") {
    RegionSplitOptions o;
    o.params = params;
    o.num_splits = rp.num_partitions;
    o.num_threads = rp.num_threads;
    o.rho = rp.rho;
    o.rho_approximate = algo != "spark";
    o.strategy = algo == "esp"
                     ? RegionPartitionStrategy::kEvenSplit
                     : (algo == "rbp"
                            ? RegionPartitionStrategy::kReducedBoundary
                            : RegionPartitionStrategy::kCostBased);
    auto r = RunRegionSplitDbscan(data, o);
    if (!r.ok()) return r.status();
    if (print_stats) {
      std::printf("split %.3fs local %.3fs merge %.3fs; %zu pts processed\n",
                  r->split_seconds, r->local_seconds, r->merge_seconds,
                  r->points_processed);
    }
    return std::move(r->labels);
  }
  if (algo == "ng") {
    NgDbscanOptions o;
    o.params = params;
    auto r = RunNgDbscan(data, o);
    if (!r.ok()) return r.status();
    if (print_stats) {
      std::printf("graph %.3fs (%zu iterations), clustering %.3fs\n",
                  r->graph_seconds, r->iterations_run, r->cluster_seconds);
    }
    return std::move(r->labels);
  }
  if (algo == "naive") {
    NaiveRandomSplitOptions o;
    o.params = params;
    o.num_splits = rp.num_partitions;
    o.num_threads = rp.num_threads;
    auto r = RunNaiveRandomSplitDbscan(data, o);
    if (!r.ok()) return r.status();
    return std::move(r->labels);
  }
  return Status::InvalidArgument("unknown --algo: " + algo);
}

StatusOr<Dataset> LoadQueries(const std::string& path) {
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".rpds") {
    return ReadBinary(path);
  }
  return ReadCsv(path);
}

/// Binds a unix stream socket at `path` (replacing any stale socket file)
/// and returns the listening fd, or -1 with a message on stderr.
int ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "socket: %s\n", std::strerror(errno));
    return -1;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 1) < 0) {
    std::fprintf(stderr, "bind/listen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "socket: %s\n", std::strerror(errno));
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    std::fprintf(stderr, "connect %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Runs `loop(in_fd, out_fd)` on stdio when `listen` is "stdio" (after
/// printing `stdio_banner`), and otherwise on the first connection
/// accepted on a unix socket bound at `listen`, removing the socket file
/// afterwards. Returns false when no connection could be set up (the
/// reason is on stderr); otherwise `*loop_status` holds the loop's result.
template <typename Loop>
bool RunListenLoop(const std::string& listen, const char* stdio_banner,
                   Loop&& loop, Status* loop_status) {
  if (listen == "stdio") {
    std::fprintf(stderr, "%s\n", stdio_banner);
    *loop_status = loop(/*in_fd=*/0, /*out_fd=*/1);
    return true;
  }
  const int lfd = ListenUnix(listen);
  if (lfd < 0) return false;
  std::fprintf(stderr, "listening on %s\n", listen.c_str());
  const int cfd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (cfd < 0) {
    std::fprintf(stderr, "accept: %s\n", std::strerror(errno));
    ::unlink(listen.c_str());
    return false;
  }
  *loop_status = loop(cfd, cfd);
  ::close(cfd);
  ::unlink(listen.c_str());
  return true;
}

int WriteServeOutput(const FlagSet& flags, const Dataset& queries,
                     const std::vector<ServeResult>& results) {
  const std::string output = flags.GetString("output");
  if (output.empty()) return 0;
  Labels labels(results.size(), kNoise);
  for (size_t i = 0; i < results.size(); ++i) {
    labels[i] = results[i].cluster;
  }
  const Status w = WriteCsv(output, queries, &labels);
  if (!w.ok()) {
    std::fprintf(stderr, "output failed: %s\n", w.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", output.c_str());
  return 0;
}

/// `serve --connect`: ship the query set to a --listen server over its
/// unix socket, collect the served labels, send shutdown.
int ServeClientMain(const FlagSet& flags, const std::string& socket_path) {
  const std::string queries_path = flags.GetString("queries");
  if (queries_path.empty()) {
    std::fprintf(stderr, "serve --connect needs --queries=PATH\n%s", kUsage);
    return 1;
  }
  // Checked before the query file is read.
  const bool routed = flags.Has("model-id");
  const StatusOr<uint32_t> model_or = GetModelIdFlag(flags, "model-id");
  if (!model_or.ok()) {
    std::fprintf(stderr, "%s\n%s", model_or.status().ToString().c_str(),
                 kUsage);
    return 1;
  }
  auto queries_or = LoadQueries(queries_path);
  if (!queries_or.ok()) {
    std::fprintf(stderr, "query load failed: %s\n",
                 queries_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& queries = *queries_or;

  const int fd = ConnectUnix(socket_path);
  if (fd < 0) return 1;
  const Stopwatch watch;
  // A --model-id tags the request with a routed (v2) frame so a --models
  // server answers from that snapshot; without it the classic v1 frame
  // reaches the server's default model.
  Status s = routed ? SendRoutedClassifyRequest(fd, *model_or, queries)
                    : SendClassifyRequest(fd, queries);
  StatusOr<std::vector<ServeResult>> results_or =
      s.ok() ? ReadClassifyResponse(fd) : StatusOr<std::vector<ServeResult>>(s);
  if (results_or.ok()) SendShutdown(fd);  // best-effort: we are done
  const double seconds = watch.ElapsedSeconds();
  ::close(fd);
  if (!results_or.ok()) {
    std::fprintf(stderr, "serve round-trip failed: %s\n",
                 results_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<ServeResult>& results = *results_or;
  size_t core = 0, border = 0, noise = 0;
  for (const ServeResult& r : results) {
    if (r.kind == PointKind::kCore) ++core;
    if (r.kind == PointKind::kBorder) ++border;
    if (r.kind == PointKind::kNoise) ++noise;
  }
  std::printf(
      "served %zu queries over %s in %.3fs (%.0f queries/s round-trip): "
      "%zu core, %zu border, %zu noise\n",
      results.size(), socket_path.c_str(), seconds,
      seconds > 0 ? static_cast<double>(results.size()) / seconds : 0.0,
      core, border, noise);
  return WriteServeOutput(flags, queries, results);
}

/// `serve --models`: keep every listed snapshot resident in a
/// ModelRegistry and serve one framed request loop that routes each
/// request by its model id (routed v2 frames; unrouted v1 frames resolve
/// to the default model, so old clients keep working).
int ServeRegistryMain(const FlagSet& flags, const std::string& models_flag) {
  const std::string listen = flags.GetString("listen");
  auto threads_or = GetCountFlag(flags, "threads", 4);
  if (!threads_or.ok()) {
    std::fprintf(stderr, "%s\n%s", threads_or.status().ToString().c_str(),
                 kUsage);
    return 1;
  }
  if (listen.empty()) {
    std::fprintf(stderr,
                 "serve --models needs --listen (stdio or a socket "
                 "path)\n%s",
                 kUsage);
    return 1;
  }
  // Checked before any snapshot is read or socket bound.
  const StatusOr<uint32_t> default_or = GetModelIdFlag(flags, "default-model");
  if (!default_or.ok()) {
    std::fprintf(stderr, "%s\n%s", default_or.status().ToString().c_str(),
                 kUsage);
    return 1;
  }
  const size_t threads = std::max<size_t>(*threads_or, 1);
  ThreadPool pool(threads);

  LabelServerOptions sopts;
  sopts.exact_border = !flags.GetBool("approx-border");

  ModelRegistry registry;
  for (const std::string& entry : SplitCsv(models_flag)) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      std::fprintf(stderr, "bad --models entry '%s' (want ID=PATH)\n%s",
                   entry.c_str(), kUsage);
      return 1;
    }
    auto id_or = ParseSizeCsv(entry.substr(0, eq), "--models id");
    if (!id_or.ok() ||
        id_or->front() > std::numeric_limits<uint32_t>::max()) {
      std::fprintf(stderr, "bad --models id in '%s'\n%s", entry.c_str(),
                   kUsage);
      return 1;
    }
    const uint32_t id = static_cast<uint32_t>(id_or->front());
    const std::string path = entry.substr(eq + 1);
    const Status s =
        registry.AddFile(id, path, SnapshotOptions(), sopts, &pool);
    if (!s.ok()) {
      std::fprintf(stderr, "model load failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const ClusterModelSnapshot::Meta& meta =
        registry.Find(id)->snapshot().meta();
    std::fprintf(stderr,
                 "model %u: %s (dim %zu, eps %g, query eps %g, %zu cells, "
                 "%zu clusters)\n",
                 id, path.c_str(), meta.dim, meta.eps, meta.query_eps,
                 meta.num_cells, meta.num_clusters);
  }
  if (flags.Has("default-model")) {
    const Status s = registry.SetDefault(*default_or);
    if (!s.ok()) {
      std::fprintf(stderr, "--default-model: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "registry: %zu resident models, default %u\n",
               registry.size(), registry.default_id());

  RequestLoopStats rstats;
  Status s;
  const Stopwatch watch;
  if (!RunListenLoop(
          listen, "serving routed classify requests on stdio",
          [&](int in_fd, int out_fd) {
            return ServeRequestLoop(in_fd, out_fd, registry, pool,
                                    RequestLoopOptions(), &rstats);
          },
          &s)) {
    return 1;
  }
  const double seconds = watch.ElapsedSeconds();
  if (!s.ok()) {
    std::fprintf(stderr, "request loop failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const LatencySummary lat = rstats.latency.Summarize();
  std::printf(
      "served %llu requests (%llu ok, %llu errors), %llu queries across "
      "%zu models in %.3fs on %zu threads; sojourn p50 %.1fus p99 %.1fus "
      "p999 %.1fus\n",
      static_cast<unsigned long long>(rstats.requests),
      static_cast<unsigned long long>(rstats.responses),
      static_cast<unsigned long long>(rstats.errors),
      static_cast<unsigned long long>(rstats.serve.queries),
      registry.size(), seconds, threads, lat.p50_us, lat.p99_us,
      lat.p999_us);
  for (const auto& [id, ms] : rstats.per_model) {
    const LatencySummary mlat = ms.latency.Summarize();
    std::printf(
        "  model %u: %llu requests (%llu ok, %llu errors), %llu queries; "
        "sojourn p50 %.1fus p99 %.1fus\n",
        id, static_cast<unsigned long long>(ms.requests),
        static_cast<unsigned long long>(ms.responses),
        static_cast<unsigned long long>(ms.errors),
        static_cast<unsigned long long>(ms.serve.queries), mlat.p50_us,
        mlat.p99_us);
  }

  const std::string stats_json = flags.GetString("stats-json");
  if (!stats_json.empty()) {
    std::string json = "{\n";
    json += "  \"command\": \"serve-registry\",\n";
    json += "  \"models_resident\": " + std::to_string(registry.size()) +
            ",\n";
    json += "  \"default_model\": " +
            std::to_string(registry.default_id()) + ",\n";
    json += "  \"requests\": " + std::to_string(rstats.requests) + ",\n";
    json += "  \"responses\": " + std::to_string(rstats.responses) + ",\n";
    json += "  \"errors\": " + std::to_string(rstats.errors) + ",\n";
    json += "  \"stream\": " +
            ServeStatsToJson(rstats.serve, seconds, rstats.busy_seconds,
                             threads, &lat) +
            ",\n";
    json += "  \"per_model\": {\n";
    size_t emitted = 0;
    for (const auto& [id, ms] : rstats.per_model) {
      const LatencySummary mlat = ms.latency.Summarize();
      json += "    \"" + std::to_string(id) + "\": {\"requests\": " +
              std::to_string(ms.requests) + ", \"responses\": " +
              std::to_string(ms.responses) + ", \"errors\": " +
              std::to_string(ms.errors) + ", \"stats\": " +
              ServeStatsToJson(ms.serve, seconds, ms.busy_seconds, threads,
                               &mlat) +
              "}";
      json += ++emitted < rstats.per_model.size() ? ",\n" : "\n";
    }
    json += "  }\n}";
    const Status w = WriteTextFile(stats_json, json);
    if (!w.ok()) {
      std::fprintf(stderr, "stats-json failed: %s\n", w.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", stats_json.c_str());
  }
  return 0;
}

/// The `serve` subcommand: load a frozen .rpsnap model, then either
/// classify a query set as one batch, or serve framed classify requests
/// over stdio / a unix socket (--listen).
int ServeMain(const FlagSet& flags) {
  // Each mode refuses every flag it never reads, before any query file,
  // snapshot or socket is touched.
  const std::string connect = flags.GetString("connect");
  if (!connect.empty()) {
    if (!ServeModeReads(flags, "serve --connect",
                        {"connect", "queries", "model-id", "output"})) {
      return 1;
    }
    return ServeClientMain(flags, connect);
  }
  const std::string models = flags.GetString("models");
  if (!models.empty()) {
    if (!ServeModeReads(flags, "serve --models",
                        {"models", "listen", "threads", "approx-border",
                         "stats-json", "default-model"})) {
      return 1;
    }
    return ServeRegistryMain(flags, models);
  }
  const std::string listen = flags.GetString("listen");
  const bool reads_known =
      listen.empty()
          ? ServeModeReads(flags, "a serve --queries batch",
                           {"snapshot", "queries", "threads", "verify",
                            "approx-border", "stats-json", "output"})
          : ServeModeReads(flags, "serve --listen",
                           {"snapshot", "listen", "threads", "verify",
                            "approx-border", "stats-json"});
  if (!reads_known) return 1;

  const std::string snap_path = flags.GetString("snapshot");
  const std::string queries_path = flags.GetString("queries");
  auto threads_or = GetCountFlag(flags, "threads", 4);
  if (!threads_or.ok()) {
    std::fprintf(stderr, "%s\n%s", threads_or.status().ToString().c_str(),
                 kUsage);
    return 1;
  }
  if (snap_path.empty() || (queries_path.empty() && listen.empty())) {
    std::fprintf(stderr,
                 "serve needs --snapshot=PATH and --queries=PATH (or "
                 "--listen)\n%s",
                 kUsage);
    return 1;
  }
  const size_t threads = std::max<size_t>(*threads_or, 1);
  ThreadPool pool(threads);

  auto snap_or = ClusterModelSnapshot::ReadFile(snap_path, SnapshotOptions(),
                                                &pool);
  if (!snap_or.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snap_or.status().ToString().c_str());
    return 1;
  }
  auto snapshot = std::make_shared<const ClusterModelSnapshot>(
      std::move(*snap_or));
  const ClusterModelSnapshot::Meta& meta = snapshot->meta();
  std::fprintf(stderr,
               "loaded %s: dim %zu, eps %g, %zu cells, %zu clusters, "
               "trained on %zu points%s\n",
               snap_path.c_str(), meta.dim, meta.eps, meta.num_cells,
               meta.num_clusters, meta.num_points,
               meta.has_border_refs ? "" : " (no border refs)");

  if (flags.GetBool("verify")) {
    AuditReport report;
    auto bytes_or = ReadFileBytes(snap_path);
    if (!bytes_or.ok()) {
      std::fprintf(stderr, "verify failed: %s\n",
                   bytes_or.status().ToString().c_str());
      return 1;
    }
    report.Merge(AuditSnapshotBytes(*bytes_or));
    report.Merge(AuditSnapshotStructure(*snapshot));
    std::fprintf(stderr, "snapshot audit: %s\n", report.ToString().c_str());
    if (!report.ok()) return 1;
  }

  LabelServerOptions sopts;
  sopts.exact_border = !flags.GetBool("approx-border");
  const LabelServer server(snapshot, sopts);
  const std::string stats_json = flags.GetString("stats-json");

  if (!listen.empty()) {
    RequestLoopStats rstats;
    Status s;
    const Stopwatch watch;
    if (!RunListenLoop(
            listen, "serving framed classify requests on stdio",
            [&](int in_fd, int out_fd) {
              return ServeRequestLoop(in_fd, out_fd, server, pool,
                                      RequestLoopOptions(), &rstats);
            },
            &s)) {
      return 1;
    }
    // Wall time spans the whole loop, idle waits included; throughput is
    // measured over the busy time, and the sojourn percentiles below are
    // the per-request latency story.
    const double seconds = watch.ElapsedSeconds();
    if (!s.ok()) {
      std::fprintf(stderr, "request loop failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const LatencySummary lat = rstats.latency.Summarize();
    std::printf(
        "served %llu requests (%llu ok, %llu errors), %llu queries in "
        "%.3fs on %zu threads; sojourn p50 %.1fus p99 %.1fus p999 %.1fus\n",
        static_cast<unsigned long long>(rstats.requests),
        static_cast<unsigned long long>(rstats.responses),
        static_cast<unsigned long long>(rstats.errors),
        static_cast<unsigned long long>(rstats.serve.queries), seconds,
        threads, lat.p50_us, lat.p99_us, lat.p999_us);
    if (!stats_json.empty()) {
      const Status w = WriteTextFile(
          stats_json, ServeStatsToJson(rstats.serve, seconds,
                                       rstats.busy_seconds, threads, &lat));
      if (!w.ok()) {
        std::fprintf(stderr, "stats-json failed: %s\n", w.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", stats_json.c_str());
    }
    return 0;
  }

  auto queries_or = LoadQueries(queries_path);
  if (!queries_or.ok()) {
    std::fprintf(stderr, "query load failed: %s\n",
                 queries_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& queries = *queries_or;

  std::vector<ServeResult> results;
  ServeStats stats;
  LatencyReservoir latency;
  const Stopwatch watch;
  const Status s =
      server.ClassifyBatch(queries, pool, &results, &stats, &latency);
  const double seconds = watch.ElapsedSeconds();
  if (!s.ok()) {
    std::fprintf(stderr, "serving failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // The batch's samples are completion offsets from batch admission,
  // not per-query latencies, and are named so.
  const LatencySummary lat = latency.Summarize();
  std::printf(
      "served %zu queries in %.3fs on %zu threads (%.0f queries/s): "
      "%llu core, %llu border, %llu noise; %llu exact, %llu cell hits; "
      "completion p50 %.1fus p99 %.1fus p999 %.1fus\n",
      queries.size(), seconds, threads,
      seconds > 0 ? static_cast<double>(queries.size()) / seconds : 0.0,
      static_cast<unsigned long long>(stats.core),
      static_cast<unsigned long long>(stats.border),
      static_cast<unsigned long long>(stats.noise),
      static_cast<unsigned long long>(stats.exact),
      static_cast<unsigned long long>(stats.cell_hits), lat.p50_us,
      lat.p99_us, lat.p999_us);

  if (!stats_json.empty()) {
    const Status w = WriteTextFile(
        stats_json, ServeStatsToJson(stats, seconds, seconds, threads, &lat,
                                     LatencyKind::kCompletion));
    if (!w.ok()) {
      std::fprintf(stderr, "stats-json failed: %s\n", w.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", stats_json.c_str());
  }
  return WriteServeOutput(flags, queries, results);
}

/// JSON-safe double: the Hausdorff conventions yield +infinity when one
/// labeling has clusters and the other none, which JSON cannot carry.
std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// The `hierarchy` subcommand: run the multi-eps ladder (one shared
/// Phase I and cell dictionary, Phase II/III per rung with query_eps
/// decoupling and core-set seeding), optionally scoring a sampled-core
/// approximation against the exact ladder and freezing the finest rung as
/// a snapshot carrying the whole ladder in its hierarchy section.
int HierarchyMain(const FlagSet& flags) {
  if (!FlagsKnown(flags, {kInputFlags,
                          {"eps-levels", "minpts", "min-pts", "rho",
                           "partitions", "threads", "sequential-merge",
                           "sampled-cores", "sample-seed", "no-seeding",
                           "score", "save-snapshot", "stats-json",
                           "output"}})) {
    return 1;
  }
  auto data_or = LoadInput(flags);
  if (!data_or.ok()) {
    std::fprintf(stderr, "input error: %s\n%s",
                 data_or.status().ToString().c_str(), kUsage);
    return 1;
  }
  const Dataset& data = *data_or;
  std::fprintf(stderr, "loaded %zu points, %zu dimensions\n", data.size(),
               data.dim());

  const std::string levels_flag = flags.GetString("eps-levels");
  if (levels_flag.empty()) {
    std::fprintf(stderr, "hierarchy needs --eps-levels=E1,E2,...\n%s",
                 kUsage);
    return 1;
  }
  auto eps_or = ParseDoubleCsv(levels_flag, "--eps-levels");
  auto rp_or = RpOptionsFromFlags(flags);
  auto frac_or = flags.GetDouble("sampled-cores", 1.0);
  auto sample_seed_or = flags.GetInt("sample-seed", 0);
  for (const Status& s : {eps_or.status(), rp_or.status(), frac_or.status(),
                          sample_seed_or.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n%s", s.ToString().c_str(), kUsage);
      return 1;
    }
  }

  HierarchyOptions ho;
  ho.eps_levels = *eps_or;
  if (flags.Has("min-pts")) {
    auto mp_or = ParseSizeCsv(flags.GetString("min-pts"), "--min-pts");
    if (!mp_or.ok()) {
      std::fprintf(stderr, "%s\n%s", mp_or.status().ToString().c_str(),
                   kUsage);
      return 1;
    }
    ho.min_pts_levels = *mp_or;
  } else {
    ho.min_pts_levels = {rp_or->min_pts};
  }
  ho.rho = rp_or->rho;
  ho.num_partitions = rp_or->num_partitions;
  ho.num_threads = rp_or->num_threads;
  ho.sequential_merge = rp_or->sequential_merge;
  ho.seed_from_previous = !flags.GetBool("no-seeding");
  ho.sampled_core_fraction = *frac_or;
  if (flags.Has("sample-seed")) {
    ho.core_sample_seed = static_cast<uint64_t>(*sample_seed_or);
  }
  const std::string save_snapshot = flags.GetString("save-snapshot");
  ho.capture_models = !save_snapshot.empty();

  auto h_or = BuildClusterHierarchy(data, ho);
  if (!h_or.ok()) {
    std::fprintf(stderr, "hierarchy failed: %s\n%s",
                 h_or.status().ToString().c_str(), kUsage);
    return 1;
  }
  ClusterHierarchy& h = *h_or;
  std::string forest_err;
  if (!h.ValidateForest(&forest_err)) {
    std::fprintf(stderr, "hierarchy forest invalid: %s\n",
                 forest_err.c_str());
    return 1;
  }
  std::printf(
      "ladder: %zu levels over %zu cells in %.3fs (shared phase1 %.3fs, "
      "dictionary %.3fs / %.1f MiB)\n",
      h.levels.size(), h.num_cells, h.total_seconds, h.phase1_seconds,
      h.dictionary_seconds,
      static_cast<double>(h.dictionary_bytes) / (1024.0 * 1024.0));

  // --score: each level's labels against the exact ladder at the same
  // schedule. The exact reference is only rebuilt when this run actually
  // approximated (a fraction-1 run *is* the exact ladder).
  struct LevelScore {
    double nmi = 1.0;
    double rand_index = 1.0;
    ClusterHausdorffResult hausdorff;
  };
  std::vector<LevelScore> scores;
  if (flags.GetBool("score")) {
    const ClusterHierarchy* exact = &h;
    std::optional<ClusterHierarchy> exact_store;
    if (ho.sampled_core_fraction < 1.0) {
      HierarchyOptions eo = ho;
      eo.sampled_core_fraction = 1.0;
      eo.capture_models = false;
      auto exact_or = BuildClusterHierarchy(data, eo);
      if (!exact_or.ok()) {
        std::fprintf(stderr, "exact reference ladder failed: %s\n",
                     exact_or.status().ToString().c_str());
        return 1;
      }
      exact_store = std::move(*exact_or);
      exact = &*exact_store;
    }
    for (size_t i = 0; i < h.levels.size(); ++i) {
      const Labels& got = h.levels[i].labels;
      const Labels& want = exact->levels[i].labels;
      auto nmi = NormalizedMutualInformation(got, want);
      auto ri = RandIndex(got, want);
      auto haus = ClusterHausdorff(data, got, want);
      if (!nmi.ok() || !ri.ok() || !haus.ok()) {
        const Status& s =
            !nmi.ok() ? nmi.status()
                      : (!ri.ok() ? ri.status() : haus.status());
        std::fprintf(stderr, "scoring level %zu failed: %s\n", i,
                     s.ToString().c_str());
        return 1;
      }
      scores.push_back({*nmi, *ri, *haus});
    }
  }

  for (size_t i = 0; i < h.levels.size(); ++i) {
    const HierarchyLevel& lv = h.levels[i];
    std::printf(
        "level %zu: eps %g minpts %zu -> %zu clusters, %zu noise, "
        "%zu core cells%s; phase2 %.3fs merge %.3fs label %.3fs",
        i, lv.eps, lv.min_pts, lv.num_clusters, lv.num_noise_points,
        lv.num_core_cells, lv.seeded ? " (seeded)" : "",
        lv.phase2_seconds, lv.merge_seconds, lv.label_seconds);
    if (!scores.empty()) {
      std::printf(" | vs exact: NMI %.4f RI %.4f hausdorff max %g",
                  scores[i].nmi, scores[i].rand_index,
                  scores[i].hausdorff.max_distance);
    }
    std::printf("\n");
  }

  if (!save_snapshot.empty()) {
    // Freeze every rung, attach the ladder to the finest one and persist
    // it — the multi-level .rpsnap the serve subcommand loads.
    std::vector<ClusterModelSnapshot::HierarchyLevelInfo> lineage;
    std::optional<ClusterModelSnapshot> finest;
    for (size_t i = 0; i < h.levels.size(); ++i) {
      auto snap =
          ClusterModelSnapshot::FromModel(std::move(*h.levels[i].model));
      if (!snap.ok()) {
        std::fprintf(stderr, "freezing level %zu failed: %s\n", i,
                     snap.status().ToString().c_str());
        return 1;
      }
      ClusterModelSnapshot::HierarchyLevelInfo info;
      info.eps = h.levels[i].eps;
      info.min_pts = h.levels[i].min_pts;
      info.cell_cluster = snap->cell_cluster();
      info.parent = h.levels[i].parent;
      lineage.push_back(std::move(info));
      if (i == 0) finest = std::move(*snap);
    }
    finest->set_hierarchy(std::move(lineage));
    const Status w = finest->WriteFile(save_snapshot);
    if (!w.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   w.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "wrote snapshot %s (finest level + %zu-level ladder)\n",
                 save_snapshot.c_str(), h.levels.size());
  }

  const std::string stats_json = flags.GetString("stats-json");
  if (!stats_json.empty()) {
    std::string json = "{\n";
    json += "  \"command\": \"hierarchy\",\n";
    json += "  \"num_points\": " + std::to_string(data.size()) + ",\n";
    json += "  \"dim\": " + std::to_string(data.dim()) + ",\n";
    json += "  \"num_levels\": " + std::to_string(h.levels.size()) + ",\n";
    json += "  \"sampled_core_fraction\": " +
            JsonDouble(ho.sampled_core_fraction) + ",\n";
    json += std::string("  \"seed_from_previous\": ") +
            (ho.seed_from_previous ? "true" : "false") + ",\n";
    json += "  \"phase1_seconds\": " + JsonDouble(h.phase1_seconds) + ",\n";
    json += "  \"dictionary_seconds\": " + JsonDouble(h.dictionary_seconds) +
            ",\n";
    json += "  \"total_seconds\": " + JsonDouble(h.total_seconds) + ",\n";
    json += "  \"num_cells\": " + std::to_string(h.num_cells) + ",\n";
    json += "  \"dictionary_bytes\": " + std::to_string(h.dictionary_bytes) +
            ",\n";
    json += "  \"levels\": [\n";
    for (size_t i = 0; i < h.levels.size(); ++i) {
      const HierarchyLevel& lv = h.levels[i];
      json += "    {\"eps\": " + JsonDouble(lv.eps) +
              ", \"min_pts\": " + std::to_string(lv.min_pts) +
              ", \"num_clusters\": " + std::to_string(lv.num_clusters) +
              ", \"num_noise_points\": " +
              std::to_string(lv.num_noise_points) +
              ", \"num_core_cells\": " + std::to_string(lv.num_core_cells) +
              ", \"containment_violations\": " +
              std::to_string(lv.containment_violations) +
              std::string(", \"seeded\": ") + (lv.seeded ? "true" : "false") +
              ", \"phase2_seconds\": " + JsonDouble(lv.phase2_seconds) +
              ", \"merge_seconds\": " + JsonDouble(lv.merge_seconds) +
              ", \"label_seconds\": " + JsonDouble(lv.label_seconds);
      if (!scores.empty()) {
        json += ", \"nmi_vs_exact\": " + JsonDouble(scores[i].nmi) +
                ", \"rand_index_vs_exact\": " +
                JsonDouble(scores[i].rand_index) +
                ", \"hausdorff_max_vs_exact\": " +
                JsonDouble(scores[i].hausdorff.max_distance) +
                ", \"hausdorff_mean_vs_exact\": " +
                JsonDouble(scores[i].hausdorff.mean_distance);
      }
      json += "}";
      json += i + 1 < h.levels.size() ? ",\n" : "\n";
    }
    json += "  ]\n}";
    const Status w = WriteTextFile(stats_json, json);
    if (!w.ok()) {
      std::fprintf(stderr, "stats-json failed: %s\n", w.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", stats_json.c_str());
  }

  const std::string output = flags.GetString("output");
  if (!output.empty()) {
    const Status s = WriteCsv(output, data, &h.levels[0].labels);
    if (!s.ok()) {
      std::fprintf(stderr, "output failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (finest-level labels)\n", output.c_str());
  }
  return 0;
}

/// The `stream` subcommand: replay the input as a seed set plus ingested
/// batches through the incremental re-clusterer, publishing each epoch as
/// a versioned snapshot into the EpochRegistry hot-swap slot (and
/// optionally onto disk). With --audit, every published snapshot is also
/// checked against a from-scratch RunRpDbscan on the accumulated points —
/// the strongest per-epoch correctness gate the repo has.
int StreamMain(const FlagSet& flags) {
  if (!FlagsKnown(flags, {kInputFlags, kRpFlags,
                          {"seed-points", "batch-size", "epoch-every",
                           "epoch-dir", "approx-border", "stats-json",
                           "output"}})) {
    return 1;
  }
  auto opts_or = RpOptionsFromFlags(flags);
  auto seedpts_or = GetCountFlag(flags, "seed-points", 0);
  auto batch_or = GetCountFlag(flags, "batch-size", 0);
  auto every_or = GetCountFlag(flags, "epoch-every", 1);
  if (!opts_or.ok() || !seedpts_or.ok() || !batch_or.ok() ||
      !every_or.ok()) {
    const Status& s = !opts_or.ok()
                          ? opts_or.status()
                          : (!seedpts_or.ok()
                                 ? seedpts_or.status()
                                 : (!batch_or.ok() ? batch_or.status()
                                                   : every_or.status()));
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(), kUsage);
    return 1;
  }
  auto data_or = LoadInput(flags);
  if (!data_or.ok()) {
    std::fprintf(stderr, "input error: %s\n%s",
                 data_or.status().ToString().c_str(), kUsage);
    return 1;
  }
  const Dataset& data = *data_or;
  std::fprintf(stderr, "loaded %zu points, %zu dimensions\n", data.size(),
               data.dim());

  size_t seed_points = *seedpts_or > 0 ? std::min(*seedpts_or, data.size())
                                       : data.size() / 2;
  if (seed_points == 0) seed_points = data.size();
  const size_t remaining = data.size() - seed_points;
  const size_t batch_size =
      *batch_or > 0 ? *batch_or : std::max<size_t>(1, (remaining + 7) / 8);
  const size_t epoch_every = std::max<size_t>(*every_or, 1);
  const bool audit_epochs = opts_or->audit_level != AuditLevel::kOff;

  Dataset seed(data.dim());
  seed.Reserve(seed_points);
  for (size_t i = 0; i < seed_points; ++i) seed.Append(data.point(i));
  auto clusterer_or = StreamClusterer::Create(std::move(seed), *opts_or);
  if (!clusterer_or.ok()) {
    std::fprintf(stderr, "stream setup failed: %s\n",
                 clusterer_or.status().ToString().c_str());
    return 1;
  }
  StreamClusterer clusterer = std::move(*clusterer_or);

  LabelServerOptions sopts;
  sopts.exact_border = !flags.GetBool("approx-border");
  EpochRegistry registry(sopts, flags.GetString("epoch-dir"));

  Labels last_labels;
  std::string epochs_json;
  // Publishes one epoch: recompute + splice, hot-swap into the registry,
  // optional against-run audit, one stdout line, one JSON record.
  auto publish = [&]() -> int {
    auto epoch_or = clusterer.PublishEpoch();
    if (!epoch_or.ok()) {
      std::fprintf(stderr, "epoch publish failed: %s\n",
                   epoch_or.status().ToString().c_str());
      return 1;
    }
    const EpochStats st = epoch_or->stats;
    last_labels = std::move(epoch_or->labels);
    auto published_or = registry.Publish(std::move(epoch_or->snapshot));
    if (!published_or.ok()) {
      std::fprintf(stderr, "epoch swap failed: %s\n",
                   published_or.status().ToString().c_str());
      return 1;
    }
    const PublishedEpoch& published = **published_or;
    const char* audit_note = "skipped";
    if (audit_epochs) {
      const AuditReport report = AuditSnapshotAgainstRun(
          *published.snapshot, clusterer.data(), clusterer.options());
      if (!report.ok()) {
        std::fprintf(stderr, "epoch %llu against-run audit FAILED: %s\n",
                     static_cast<unsigned long long>(st.sequence),
                     report.ToString().c_str());
        return 1;
      }
      audit_note = "pass";
    }
    std::printf(
        "epoch %llu: %zu points in %zu cells, %zu batches; %zu touched -> "
        "%zu dirty cells (%zu extended), %zu points reclustered, %zu "
        "rekeys; %zu clusters, %zu noise; published in %.3fs (dictionary "
        "%.3fs, phase2 %.3fs, merge %.3fs, package %.3fs)%s%s [audit %s]\n",
        static_cast<unsigned long long>(st.sequence), st.total_points,
        st.total_cells, st.batches_ingested, st.touched_cells,
        st.dirty_cells, st.extended_cells,
        st.reclustered_points, st.rekeys, st.num_clusters,
        st.num_noise_points, st.epoch_publish_seconds, st.dictionary_seconds,
        st.phase2_seconds, st.merge_seconds, st.package_seconds,
        published.path.empty() ? "" : " -> ",
        published.path.c_str(), audit_note);
    JsonWriter record;
    record.BeginObject()
        .Key("sequence").Value(st.sequence)
        .Key("total_points").Value(st.total_points)
        .Key("total_cells").Value(st.total_cells)
        .Key("batches_ingested").Value(st.batches_ingested)
        .Key("touched_cells").Value(st.touched_cells)
        .Key("dirty_cells").Value(st.dirty_cells)
        .Key("extended_cells").Value(st.extended_cells)
        .Key("reclustered_points").Value(st.reclustered_points)
        .Key("rekeys").Value(st.rekeys)
        .Key("num_clusters").Value(st.num_clusters)
        .Key("num_noise_points").Value(st.num_noise_points)
        .Key("epoch_publish_seconds").Value(st.epoch_publish_seconds)
        .Key("dictionary_seconds").Value(st.dictionary_seconds)
        .Key("phase2_seconds").Value(st.phase2_seconds)
        .Key("merge_seconds").Value(st.merge_seconds)
        .Key("package_seconds").Value(st.package_seconds)
        .Key("audit").Value(audit_note)
        .EndObject();
    if (!epochs_json.empty()) epochs_json += ",\n";
    epochs_json += "    " + record.TakeString();
    return 0;
  };

  // Epoch 0 is the seed set (every cell touched), then the batch replay.
  if (publish() != 0) return 1;
  size_t pos = seed_points;
  size_t batches_since_epoch = 0;
  while (pos < data.size()) {
    const size_t take = std::min(batch_size, data.size() - pos);
    Dataset batch(data.dim());
    batch.Reserve(take);
    for (size_t i = 0; i < take; ++i) batch.Append(data.point(pos + i));
    pos += take;
    const Status s = clusterer.Ingest(batch);
    if (!s.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (++batches_since_epoch >= epoch_every) {
      batches_since_epoch = 0;
      if (publish() != 0) return 1;
    }
  }
  if (batches_since_epoch > 0 && publish() != 0) return 1;

  std::printf("stream done: %llu epochs, current sequence %lld\n",
              static_cast<unsigned long long>(clusterer.next_sequence()),
              static_cast<long long>(registry.CurrentSequence()));

  const std::string stats_json = flags.GetString("stats-json");
  if (!stats_json.empty()) {
    std::string json = "{\n";
    json += "  \"command\": \"stream\",\n";
    json += "  \"total_points\": " + std::to_string(data.size()) + ",\n";
    json += "  \"seed_points\": " + std::to_string(seed_points) + ",\n";
    json += "  \"batch_size\": " + std::to_string(batch_size) + ",\n";
    json += "  \"epoch_every\": " + std::to_string(epoch_every) + ",\n";
    json += "  \"epochs_published\": " +
            std::to_string(clusterer.next_sequence()) + ",\n";
    json += "  \"epochs\": [\n" + epochs_json + "\n  ]\n}";
    const Status w = WriteTextFile(stats_json, json);
    if (!w.ok()) {
      std::fprintf(stderr, "stats-json failed: %s\n", w.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", stats_json.c_str());
  }

  const std::string output = flags.GetString("output");
  if (!output.empty()) {
    const Status s = WriteCsv(output, clusterer.data(), &last_labels);
    if (!s.ok()) {
      std::fprintf(stderr, "output failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", output.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  auto flags_or = FlagSet::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().ToString().c_str(),
                 kUsage);
    return 1;
  }
  const FlagSet& flags = *flags_or;
  if (flags.GetBool("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!flags.positional().empty()) {
    if (flags.positional().front() == "serve") return ServeMain(flags);
    if (flags.positional().front() == "stream") return StreamMain(flags);
    if (flags.positional().front() == "hierarchy") {
      return HierarchyMain(flags);
    }
    std::fprintf(stderr, "unknown subcommand: %s\n%s",
                 flags.positional().front().c_str(), kUsage);
    return 1;
  }
  if (!FlagsKnown(flags, {kInputFlags, kRpFlags,
                          {"algo", "mmap", "normalize", "kdist", "convert",
                           "output", "stats", "stats-json",
                           "save-snapshot"}})) {
    return 1;
  }
  auto kdist_or = GetCountFlag(flags, "kdist", 0);
  if (!kdist_or.ok()) {
    std::fprintf(stderr, "%s\n%s", kdist_or.status().ToString().c_str(),
                 kUsage);
    return 1;
  }
  // --mmap maps the .rpds payload read-only and hands the pipeline a
  // borrowed (zero-copy) view plus the PointSource for the out-of-core
  // Phase I-1; everything downstream of LoadInput is unchanged.  The
  // mapping is read-only, so flags that mutate the dataset in place are
  // rejected up front instead of faulting later.
  std::optional<MmapDataset> mmap_source;
  auto data_or = [&]() -> StatusOr<Dataset> {
    if (!flags.GetBool("mmap")) return LoadInput(flags);
    const std::string input = flags.GetString("input");
    if (input.size() < 5 || input.substr(input.size() - 5) != ".rpds") {
      return Status::InvalidArgument("--mmap requires an .rpds --input");
    }
    if (!flags.GetString("generate").empty()) {
      return Status::InvalidArgument("--input and --generate are exclusive");
    }
    if (!flags.GetString("normalize").empty()) {
      return Status::InvalidArgument(
          "--normalize mutates points in place; it cannot be combined "
          "with the read-only --mmap input");
    }
    auto source_or = MmapDataset::Open(input);
    if (!source_or.ok()) return source_or.status();
    mmap_source.emplace(std::move(*source_or));
    return mmap_source->BorrowedView();
  }();
  if (!data_or.ok()) {
    std::fprintf(stderr, "input error: %s\n%s",
                 data_or.status().ToString().c_str(), kUsage);
    return 1;
  }
  Dataset& data = *data_or;
  std::fprintf(stderr, "loaded %zu points, %zu dimensions%s\n", data.size(),
               data.dim(), mmap_source ? " (mmap)" : "");

  const std::string normalize = flags.GetString("normalize");
  if (!normalize.empty()) {
    StatusOr<AffineTransform> t =
        normalize == "minmax"
            ? FitMinMax(data, 0.0, 100.0)
            : (normalize == "zscore"
                   ? FitStandardize(data)
                   : Status::InvalidArgument("unknown --normalize mode: " +
                                             normalize));
    if (!t.ok() || !ApplyTransform(*t, &data).ok()) {
      std::fprintf(stderr, "normalize failed: %s\n",
                   t.ok() ? "apply error" : t.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "normalized (%s)\n", normalize.c_str());
  }

  // k-distance diagnostic: the knee of the sorted k-NN distance curve is
  // the classic eps choice (the paper picks eps empirically; this tool
  // shows the candidate range).
  if (*kdist_or > 0) {
    const size_t k = *kdist_or;
    KdTree tree;
    tree.Build(data.raw(), data.size(), data.dim());
    Rng rng(1);
    const size_t sample =
        data.size() < 20000 ? data.size() : static_cast<size_t>(20000);
    std::vector<double> kdist;
    kdist.reserve(sample);
    for (size_t s = 0; s < sample; ++s) {
      const size_t i = sample == data.size()
                           ? s
                           : static_cast<size_t>(rng.Uniform(data.size()));
      const auto knn = tree.KNearest(data.point(i), k + 1);  // incl. self
      if (knn.size() > k) kdist.push_back(std::sqrt(knn[k].first));
    }
    std::sort(kdist.begin(), kdist.end());
    std::printf("%zu-NN distance quantiles over %zu sampled points:\n", k,
                kdist.size());
    for (const double q : {0.50, 0.75, 0.90, 0.95, 0.99}) {
      const size_t idx = static_cast<size_t>(q * (kdist.size() - 1));
      std::printf("  p%-4.0f %.6g\n", q * 100, kdist[idx]);
    }
    std::printf(
        "pick eps near the knee (p90-p95) with minPts ~ %zu\n", k + 1);
    return 0;
  }

  const std::string convert = flags.GetString("convert");
  if (!convert.empty()) {
    const Status s = WriteBinary(convert, data);
    if (!s.ok()) {
      std::fprintf(stderr, "convert failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", convert.c_str());
    return 0;
  }

  auto labels_or =
      Cluster(flags, data, flags.GetBool("stats"),
              mmap_source ? &*mmap_source : nullptr);
  if (!labels_or.ok()) {
    std::fprintf(stderr, "clustering failed: %s\n%s",
                 labels_or.status().ToString().c_str(), kUsage);
    return 1;
  }
  const Labels& labels = *labels_or;
  std::printf("%s\n", Summarize(labels).ToString().c_str());

  const std::string output = flags.GetString("output");
  if (!output.empty()) {
    const Status s = WriteCsv(output, data, &labels);
    if (!s.ok()) {
      std::fprintf(stderr, "output failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", output.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace rpdbscan

int main(int argc, char** argv) { return rpdbscan::Main(argc, argv); }
