#ifndef RPDBSCAN_SERVE_MODEL_REGISTRY_H_
#define RPDBSCAN_SERVE_MODEL_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "serve/label_server.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace rpdbscan {

/// A set of frozen models resident in one serving process, routed by a
/// caller-chosen u32 model id — the target of routed (v2) frames
/// (io/framing.h). Each entry owns a LabelServer over its snapshot; the
/// snapshots stay alive for as long as any server (or outside caller)
/// holds them.
///
/// Build-then-serve discipline: Add/AddFile mutate and are NOT thread-
/// safe; once population is done the registry is immutable, and Find /
/// Default / ids are safe to call from any number of serving threads
/// concurrently (they touch only const state, and each resolved
/// LabelServer's read path takes no locks).
///
/// The *default* model answers unrouted (v1) frames: the first entry
/// added, unless SetDefault picks another. A single-model registry is
/// therefore wire-compatible with the pre-registry serving loop.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(ModelRegistry&&) = default;
  ModelRegistry& operator=(ModelRegistry&&) = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `snapshot` under `model_id`. InvalidArgument on a null
  /// snapshot or a duplicate id. The first successful Add becomes the
  /// default model.
  Status Add(uint32_t model_id,
             std::shared_ptr<const ClusterModelSnapshot> snapshot,
             const LabelServerOptions& opts = LabelServerOptions());

  /// Loads a .rpsnap file and registers it — Add over
  /// ClusterModelSnapshot::ReadFile, with the file path woven into any
  /// load failure.
  Status AddFile(uint32_t model_id, const std::string& path,
                 const SnapshotOptions& snap_opts = SnapshotOptions(),
                 const LabelServerOptions& serve_opts = LabelServerOptions(),
                 ThreadPool* pool = nullptr);

  /// Picks the model unrouted frames resolve to. NotFound when no entry
  /// carries `model_id`.
  Status SetDefault(uint32_t model_id);

  /// The server registered under `model_id`, or nullptr. Safe concurrent
  /// with other readers once population is done.
  const LabelServer* Find(uint32_t model_id) const;

  /// The default server (nullptr only while empty), and its id.
  const LabelServer* Default() const { return Find(default_id_); }
  uint32_t default_id() const { return default_id_; }

  size_t size() const { return servers_.size(); }
  bool empty() const { return servers_.empty(); }

  /// Registered ids, ascending.
  std::vector<uint32_t> ids() const;

 private:
  std::map<uint32_t, std::unique_ptr<LabelServer>> servers_;
  uint32_t default_id_ = 0;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SERVE_MODEL_REGISTRY_H_
