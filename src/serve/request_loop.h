#ifndef RPDBSCAN_SERVE_REQUEST_LOOP_H_
#define RPDBSCAN_SERVE_REQUEST_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "io/dataset.h"
#include "io/framing.h"
#include "parallel/thread_pool.h"
#include "serve/label_server.h"
#include "serve/model_registry.h"
#include "util/status.h"

namespace rpdbscan {

/// A minimal request/response loop over the label server: length-prefixed
/// frames (io/framing.h) whose payloads are checksummed section_file
/// containers — the same wire discipline as the snapshot format, over a
/// pipe, socketpair, or unix socket (docs/WIRE_FORMATS.md §4).
///
/// Frame types on a serving stream (header magic kServeFrameMagic):
///   kFrameClassify  client -> server   a classify-request container
///   kFrameResults   server -> client   a result container, same order
///   kFrameError     server -> client   UTF-8 error text (bad request;
///                                      the loop keeps serving)
///   kFrameShutdown  client -> server   empty; the loop drains and exits
///
/// Requests arrive in either frame form (io/framing.h): an unrouted v1
/// frame resolves against the registry's default model, a routed v2
/// frame against the model registered under its model_id (an unknown id
/// earns an error frame; the loop keeps serving). Responses mirror the
/// request's form — a routed request gets a routed response carrying the
/// resolved model id.
///
/// Request container (magic kRequestMagic): section 1 = meta
/// (u32 dim, u32 count), section 2 = count*dim f32 coordinates.
/// Response container (magic kResponseMagic): section 1 = meta
/// (u32 count, u32 reserved), section 2 = count 24-byte records
/// { i64 cluster, u64 density, u8 kind, u8 certainty, u8 pad[6] }.

inline constexpr uint32_t kServeFrameMagic = 0x52505346;  // "RPSF"
inline constexpr uint32_t kRequestMagic = 0x52505351;     // "RPSQ"
inline constexpr uint32_t kResponseMagic = 0x52505352;    // "RPSR"
inline constexpr uint32_t kServeWireVersion = 1;

inline constexpr uint32_t kFrameClassify = 1;
inline constexpr uint32_t kFrameResults = 2;
inline constexpr uint32_t kFrameError = 3;
inline constexpr uint32_t kFrameShutdown = 4;

struct RequestLoopOptions {
  /// Refuse request frames declaring a larger payload (before allocating).
  size_t max_request_bytes = size_t{1} << 30;
};

/// Per-resolved-model counters of a registry-routed loop. `requests`
/// counts classify frames that resolved to this model; unknown-id frames
/// land on no model (only the stream-wide error counter sees them).
struct ModelLoopStats {
  uint64_t requests = 0;
  uint64_t responses = 0;
  uint64_t errors = 0;
  /// Summed per-request time from dequeue to response written.
  double busy_seconds = 0;
  ServeStats serve;
  LatencyReservoir latency;
};

/// Counters of one ServeRequestLoop run, merged onto the batch stats.
struct RequestLoopStats {
  uint64_t requests = 0;
  uint64_t responses = 0;
  uint64_t errors = 0;  // error frames sent (malformed requests)
  /// Summed per-request time from dequeue to response written, error
  /// frames included: the loop's wall time without its idle waits, the
  /// time throughput is measured over.
  double busy_seconds = 0;
  ServeStats serve;
  LatencyReservoir latency;  // response-written minus frame-admitted, ns
  /// Registry-routed loops only: the same counters split by the resolved
  /// model id (the stream-wide counters above stay the totals).
  std::map<uint32_t, ModelLoopStats> per_model;
};

/// Encodes `queries` as a classify-request container.
std::vector<uint8_t> EncodeClassifyRequest(const Dataset& queries);

/// Decodes a classify-request container. InvalidArgument on framing,
/// checksum, or geometry (count * dim vs payload size) violations.
StatusOr<Dataset> DecodeClassifyRequest(const std::vector<uint8_t>& payload);

/// Encodes classification results as a response container.
std::vector<uint8_t> EncodeClassifyResponse(
    const std::vector<ServeResult>& results);

/// Decodes a response container back into results.
StatusOr<std::vector<ServeResult>> DecodeClassifyResponse(
    const std::vector<uint8_t>& payload);

/// Serves classify frames from `in_fd`, writing responses to `out_fd`
/// (the same fd for sockets, distinct fds for pipe pairs), until a
/// shutdown frame or a clean end of stream. Malformed requests earn an
/// error frame and the loop continues; transport failures end the loop
/// with IOError. Each request is classified as one batch on `pool`
/// through `server.ClassifyBatch`, and its queries' sojourn latencies
/// (monotonic clock, admitted at frame arrival) land in `stats->latency`.
Status ServeRequestLoop(int in_fd, int out_fd, const LabelServer& server,
                        ThreadPool& pool,
                        const RequestLoopOptions& opts = RequestLoopOptions(),
                        RequestLoopStats* stats = nullptr);

/// The multi-model loop: classify frames dispatch against `registry` by
/// model id (see the routing rules above), per-model counters land in
/// `stats->per_model`. FailedPrecondition on an empty registry. With a
/// single-model registry and unrouted clients this behaves exactly like
/// the single-server overload.
Status ServeRequestLoop(int in_fd, int out_fd, const ModelRegistry& registry,
                        ThreadPool& pool,
                        const RequestLoopOptions& opts = RequestLoopOptions(),
                        RequestLoopStats* stats = nullptr);

/// Client helpers: one classify round-trip, and the shutdown signal.
Status SendClassifyRequest(int fd, const Dataset& queries);

/// Routed variant: the request frame carries `model_id` for registry
/// dispatch.
Status SendRoutedClassifyRequest(int fd, uint32_t model_id,
                                 const Dataset& queries);
StatusOr<std::vector<ServeResult>> ReadClassifyResponse(
    int fd, size_t max_response_bytes = size_t{1} << 30);
Status SendShutdown(int fd);

}  // namespace rpdbscan

#endif  // RPDBSCAN_SERVE_REQUEST_LOOP_H_
