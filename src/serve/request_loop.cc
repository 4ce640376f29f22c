#include "serve/request_loop.h"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "io/section_file.h"
#include "util/stopwatch.h"

namespace rpdbscan {
namespace {

constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionBody = 2;

void StoreU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void StoreU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// One admitted frame, stamped at the instant it fully arrived.
struct Admitted {
  Frame frame;
  uint64_t admit_ns = 0;
  bool end = false;   // reader finished (clean EOF, shutdown, or error)
  Status error;       // non-OK only when `end` reports a transport failure
};

/// The bounded admission queue between the stream reader and the
/// classification loop: lets the next request's bytes arrive while the
/// current batch classifies, and makes the latency samples honest about
/// queueing delay. Single producer, single consumer.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  /// False once the consumer stopped — the producer should exit.
  bool Push(Admitted item) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock,
                   [&] { return items_.size() < capacity_ || stopped_; });
    if (stopped_) return false;  // consumer gone; drop on the floor
    items_.push_back(std::move(item));
    cv_item_.notify_one();
    return true;
  }

  Admitted Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_item_.wait(lock, [&] { return !items_.empty(); });
    Admitted item = std::move(items_.front());
    items_.pop_front();
    cv_space_.notify_one();
    return item;
  }

  /// Unblocks a producer stuck on a full queue after the consumer quit.
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_space_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_item_;
  std::condition_variable cv_space_;
  std::deque<Admitted> items_;
  bool stopped_ = false;
};

}  // namespace

std::vector<uint8_t> EncodeClassifyRequest(const Dataset& queries) {
  std::vector<uint8_t> meta;
  StoreU32(&meta, static_cast<uint32_t>(queries.dim()));
  StoreU32(&meta, static_cast<uint32_t>(queries.size()));
  std::vector<uint8_t> body(queries.size() * queries.dim() * sizeof(float));
  if (!body.empty()) {
    std::memcpy(body.data(), queries.raw(), body.size());
  }
  SectionFileWriter w(kRequestMagic, kServeWireVersion);
  w.AddSection(kSectionMeta, std::move(meta));
  w.AddSection(kSectionBody, std::move(body));
  return w.Finish();
}

StatusOr<Dataset> DecodeClassifyRequest(const std::vector<uint8_t>& payload) {
  auto reader = SectionFileReader::Parse(payload.data(), payload.size(),
                                         kRequestMagic, kServeWireVersion,
                                         "classify request");
  if (!reader.ok()) return reader.status();
  auto meta = reader->Section(kSectionMeta, "meta");
  if (!meta.ok()) return meta.status();
  if (meta->size != 8) {
    return Status::InvalidArgument(
        "classify request meta: expected 8 bytes, got " +
        std::to_string(meta->size));
  }
  const uint32_t dim = LoadU32(meta->data);
  const uint32_t count = LoadU32(meta->data + 4);
  if (dim == 0) {
    return Status::InvalidArgument("classify request meta: dim is 0");
  }
  auto body = reader->Section(kSectionBody, "coordinates");
  if (!body.ok()) return body.status();
  const uint64_t want =
      static_cast<uint64_t>(dim) * count * sizeof(float);
  if (body->size != want) {
    return Status::InvalidArgument(
        "classify request coordinates: expected " + std::to_string(want) +
        " bytes for " + std::to_string(count) + " x " + std::to_string(dim) +
        " f32, got " + std::to_string(body->size));
  }
  std::vector<float> flat(static_cast<size_t>(dim) * count);
  if (!flat.empty()) {
    std::memcpy(flat.data(), body->data, body->size);
  }
  auto ds = Dataset::FromFlat(dim, std::move(flat));
  if (!ds.ok()) return ds.status();
  return std::move(*ds);
}

std::vector<uint8_t> EncodeClassifyResponse(
    const std::vector<ServeResult>& results) {
  std::vector<uint8_t> meta;
  StoreU32(&meta, static_cast<uint32_t>(results.size()));
  StoreU32(&meta, 0);
  std::vector<uint8_t> body;
  body.reserve(results.size() * 24);
  for (const ServeResult& r : results) {
    StoreU64(&body, static_cast<uint64_t>(r.cluster));
    StoreU64(&body, r.density);
    body.push_back(static_cast<uint8_t>(r.kind));
    body.push_back(static_cast<uint8_t>(r.certainty));
    for (int i = 0; i < 6; ++i) body.push_back(0);
  }
  SectionFileWriter w(kResponseMagic, kServeWireVersion);
  w.AddSection(kSectionMeta, std::move(meta));
  w.AddSection(kSectionBody, std::move(body));
  return w.Finish();
}

StatusOr<std::vector<ServeResult>> DecodeClassifyResponse(
    const std::vector<uint8_t>& payload) {
  auto reader = SectionFileReader::Parse(payload.data(), payload.size(),
                                         kResponseMagic, kServeWireVersion,
                                         "classify response");
  if (!reader.ok()) return reader.status();
  auto meta = reader->Section(kSectionMeta, "meta");
  if (!meta.ok()) return meta.status();
  if (meta->size != 8) {
    return Status::InvalidArgument(
        "classify response meta: expected 8 bytes, got " +
        std::to_string(meta->size));
  }
  const uint32_t count = LoadU32(meta->data);
  auto body = reader->Section(kSectionBody, "results");
  if (!body.ok()) return body.status();
  if (body->size != static_cast<uint64_t>(count) * 24) {
    return Status::InvalidArgument(
        "classify response results: expected " +
        std::to_string(static_cast<uint64_t>(count) * 24) + " bytes for " +
        std::to_string(count) + " records, got " +
        std::to_string(body->size));
  }
  std::vector<ServeResult> results(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* rec = body->data + static_cast<size_t>(i) * 24;
    results[i].cluster = static_cast<int64_t>(LoadU64(rec));
    results[i].density = LoadU64(rec + 8);
    results[i].kind = static_cast<PointKind>(rec[16]);
    results[i].certainty = static_cast<Certainty>(rec[17]);
  }
  return results;
}

namespace {

/// Where a classify frame resolved: the serving model and its registry id
/// (id 0 / null per-model stats on the single-server loop), or — with
/// `server == nullptr` — an error to report on the wire.
struct Resolution {
  const LabelServer* server = nullptr;
  uint32_t model_id = 0;
  std::string error;
};

/// Writes a frame mirroring the request's header form: routed requests
/// get routed responses carrying the resolved model id.
Status WriteMirroredFrame(int out_fd, const Admitted& item, uint32_t model_id,
                          uint32_t type, const uint8_t* payload,
                          size_t size) {
  if (item.frame.routed) {
    return WriteRoutedFrame(out_fd, kServeFrameMagic, type, model_id, payload,
                            size);
  }
  return WriteFrame(out_fd, kServeFrameMagic, type, payload, size);
}

/// Adds the time from its construction to its destruction, read on the
/// loop's `watch`, to stats->busy_seconds and, once the request resolved
/// a model (*mstats set), to that model's. Reads no clock without stats.
class BusyCharge {
 public:
  BusyCharge(const Stopwatch& watch, RequestLoopStats* stats,
             ModelLoopStats* const* mstats)
      : watch_(watch),
        start_ns_(stats == nullptr ? 0 : watch.ElapsedNanos()),
        stats_(stats),
        mstats_(mstats) {}
  BusyCharge(const BusyCharge&) = delete;
  BusyCharge& operator=(const BusyCharge&) = delete;
  ~BusyCharge() {
    if (stats_ == nullptr) return;
    const double seconds =
        static_cast<double>(watch_.ElapsedNanos() - start_ns_) * 1e-9;
    stats_->busy_seconds += seconds;
    if (*mstats_ != nullptr) (*mstats_)->busy_seconds += seconds;
  }

 private:
  const Stopwatch& watch_;
  const int64_t start_ns_;
  RequestLoopStats* const stats_;
  ModelLoopStats* const* const mstats_;
};

/// The loop body shared by the single-server and registry overloads.
/// `resolve` maps an admitted classify frame to its serving model;
/// `track_per_model` turns on the per-model split in `stats`.
template <typename Resolver>
Status RunRequestLoop(int in_fd, int out_fd, ThreadPool& pool,
                      const RequestLoopOptions& opts, RequestLoopStats* stats,
                      bool track_per_model, const Resolver& resolve) {
  AdmissionQueue queue(/*capacity=*/8);
  const Stopwatch watch;  // the loop's monotonic epoch

  std::thread reader([&] {
    for (;;) {
      Admitted item;
      const Status s = ReadFrame(in_fd, kServeFrameMagic,
                                 opts.max_request_bytes, &item.frame,
                                 "serve stream");
      if (!s.ok()) {
        item.end = true;
        // A clean between-frames EOF is the loop's normal exit, not an
        // error; anything else propagates.
        if (s.code() != StatusCode::kNotFound) item.error = s;
        queue.Push(std::move(item));
        return;
      }
      item.admit_ns = static_cast<uint64_t>(watch.ElapsedNanos());
      const bool shutdown = item.frame.type == kFrameShutdown;
      if (!queue.Push(std::move(item)) || shutdown) return;
    }
  });

  Status result = Status::OK();
  for (;;) {
    Admitted item = queue.Pop();
    if (item.end) {
      result = item.error;
      break;
    }
    if (item.frame.type == kFrameShutdown) break;
    // Charged on every way out of this iteration: the request's time from
    // dequeue to response written.
    ModelLoopStats* mstats = nullptr;
    const BusyCharge busy(watch, stats, &mstats);
    if (item.frame.type != kFrameClassify) {
      const std::string msg = "serve stream: unexpected frame type " +
                              std::to_string(item.frame.type);
      if (stats != nullptr) ++stats->errors;
      result = WriteMirroredFrame(
          out_fd, item, item.frame.model_id, kFrameError,
          reinterpret_cast<const uint8_t*>(msg.data()), msg.size());
      if (!result.ok()) break;
      continue;
    }
    if (stats != nullptr) ++stats->requests;
    const Resolution target = resolve(item.frame);
    if (stats != nullptr && track_per_model && target.server != nullptr) {
      mstats = &stats->per_model[target.model_id];
      ++mstats->requests;
    }
    Status handled;
    if (target.server == nullptr) {
      // An unknown model id poisons neither the stream nor the registry:
      // report it on the wire and keep serving.
      if (stats != nullptr) ++stats->errors;
      handled = WriteMirroredFrame(
          out_fd, item, item.frame.model_id, kFrameError,
          reinterpret_cast<const uint8_t*>(target.error.data()),
          target.error.size());
      if (!handled.ok()) {
        result = handled;
        break;
      }
      continue;
    }
    auto queries = DecodeClassifyRequest(item.frame.payload);
    if (!queries.ok()) {
      // A malformed request poisons neither the stream nor the server:
      // report it on the wire and keep serving.
      const std::string msg = queries.status().ToString();
      if (stats != nullptr) ++stats->errors;
      if (mstats != nullptr) ++mstats->errors;
      handled = WriteMirroredFrame(
          out_fd, item, target.model_id, kFrameError,
          reinterpret_cast<const uint8_t*>(msg.data()), msg.size());
    } else {
      std::vector<ServeResult> results;
      ServeStats batch;
      const Status cs = target.server->ClassifyBatch(
          *queries, pool, &results, stats != nullptr ? &batch : nullptr);
      if (cs.ok() && stats != nullptr) {
        stats->serve.Merge(batch);
        if (mstats != nullptr) mstats->serve.Merge(batch);
      }
      if (!cs.ok()) {
        const std::string msg = cs.ToString();
        if (stats != nullptr) ++stats->errors;
        if (mstats != nullptr) ++mstats->errors;
        handled = WriteMirroredFrame(
            out_fd, item, target.model_id, kFrameError,
            reinterpret_cast<const uint8_t*>(msg.data()), msg.size());
      } else {
        const std::vector<uint8_t> payload = EncodeClassifyResponse(results);
        handled = WriteMirroredFrame(out_fd, item, target.model_id,
                                     kFrameResults, payload.data(),
                                     payload.size());
        if (handled.ok() && stats != nullptr) {
          ++stats->responses;
          if (mstats != nullptr) ++mstats->responses;
          // Sojourn latency: response on the wire minus request admitted,
          // one sample per query of the request.
          const uint64_t done_ns =
              static_cast<uint64_t>(watch.ElapsedNanos());
          const uint64_t sojourn = done_ns - item.admit_ns;
          for (size_t i = 0; i < results.size(); ++i) {
            stats->latency.Add(sojourn);
            if (mstats != nullptr) mstats->latency.Add(sojourn);
          }
        }
      }
    }
    if (!handled.ok()) {
      result = handled;
      break;
    }
  }

  // Unblock the reader if it is parked on a full queue, then collect it.
  // (On an early exit with a peer that keeps the stream open and silent,
  // join waits for the peer's next frame or hangup — acceptable for the
  // pipe/socket transports this loop targets.)
  queue.Stop();
  reader.join();
  return result;
}

}  // namespace

Status ServeRequestLoop(int in_fd, int out_fd, const LabelServer& server,
                        ThreadPool& pool, const RequestLoopOptions& opts,
                        RequestLoopStats* stats) {
  return RunRequestLoop(in_fd, out_fd, pool, opts, stats,
                        /*track_per_model=*/false, [&](const Frame&) {
                          Resolution r;
                          r.server = &server;
                          return r;
                        });
}

Status ServeRequestLoop(int in_fd, int out_fd, const ModelRegistry& registry,
                        ThreadPool& pool, const RequestLoopOptions& opts,
                        RequestLoopStats* stats) {
  if (registry.empty()) {
    return Status::FailedPrecondition(
        "serve stream: the model registry is empty");
  }
  return RunRequestLoop(
      in_fd, out_fd, pool, opts, stats,
      /*track_per_model=*/true, [&](const Frame& frame) {
        Resolution r;
        if (!frame.routed) {
          r.server = registry.Default();
          r.model_id = registry.default_id();
          return r;
        }
        r.model_id = frame.model_id;
        r.server = registry.Find(frame.model_id);
        if (r.server == nullptr) {
          r.error = "serve stream: no model with id " +
                    std::to_string(frame.model_id);
        }
        return r;
      });
}

Status SendClassifyRequest(int fd, const Dataset& queries) {
  const std::vector<uint8_t> payload = EncodeClassifyRequest(queries);
  return WriteFrame(fd, kServeFrameMagic, kFrameClassify, payload.data(),
                    payload.size());
}

Status SendRoutedClassifyRequest(int fd, uint32_t model_id,
                                 const Dataset& queries) {
  const std::vector<uint8_t> payload = EncodeClassifyRequest(queries);
  return WriteRoutedFrame(fd, kServeFrameMagic, kFrameClassify, model_id,
                          payload.data(), payload.size());
}

StatusOr<std::vector<ServeResult>> ReadClassifyResponse(
    int fd, size_t max_response_bytes) {
  Frame frame;
  const Status s = ReadFrame(fd, kServeFrameMagic, max_response_bytes,
                             &frame, "serve stream");
  if (!s.ok()) {
    if (s.code() == StatusCode::kNotFound) {
      return Status::IOError("serve stream: server closed the connection");
    }
    return s;
  }
  if (frame.type == kFrameError) {
    return Status::Internal(
        "server error: " +
        std::string(reinterpret_cast<const char*>(frame.payload.data()),
                    frame.payload.size()));
  }
  if (frame.type != kFrameResults) {
    return Status::IOError("serve stream: unexpected frame type " +
                           std::to_string(frame.type));
  }
  return DecodeClassifyResponse(frame.payload);
}

Status SendShutdown(int fd) {
  return WriteFrame(fd, kServeFrameMagic, kFrameShutdown, nullptr, 0);
}

}  // namespace rpdbscan
