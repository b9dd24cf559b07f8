// HTTP/1.1 serving front-end over serve::Router.
//
// The paper deploys BinaryCoP as an edge service at building entrances;
// this is the wire between a camera fleet and the 11.9k-FPS engine. The
// design goal is that *nothing a client does can park a server thread or
// touch the engine without admission*:
//
//   - A pool of poll()-based event workers (tasks on a parallel::ThreadPool,
//     repo rule R2) each own the connections they accept. There is no
//     shared connection state, so the workers need no locks at all.
//   - Per-connection read/write buffers are bounded; the stateless parser
//     (net/http_parser.hpp) enforces header/body limits before a single
//     byte reaches the engine.
//   - Classification is admitted through serve::Router::try_submit with a
//     configurable per-replica queue-depth watermark: the Router places
//     the request on the least-loaded serving replica, routes around
//     replicas that are draining or hot-swapping a model version, and
//     reports nullopt -- mapped to an immediate 503 (load shedding,
//     driving the existing bcop_serve_rejected_total counter) -- when the
//     fleet is over the watermark. The worker then *polls* the returned
//     future between socket events -- it never blocks on it -- so one
//     worker can keep hundreds of keep-alive connections in flight at
//     batch-friendly depths.
//   - Each connection carries an ordered pipeline of response slots
//     (immediate text or a pending engine future), so pipelined HTTP/1.1
//     clients keep the batching queue fed to useful depths while responses
//     still go out strictly in request order.
//   - Malformed input gets 400/413/431/501 without touching the engine;
//     idle and stuck-mid-request connections are reaped by per-connection
//     timeouts (slowloris defense). Those timeouts, the connection caps
//     and the pipelining depth are constants of http_server.cpp; a config
//     sets only the port, the worker count and the watermark.
//
// Endpoints (docs/networking.md has curl examples):
//   POST /v1/classify  raw image payload -> class + confidence JSON
//   GET  /metrics      obs::export_prometheus of the process registry
//   GET  /healthz      fleet queue depth / watermark / shedding state plus
//                      a per-replica [{id, state, queue_depth}] array
//
// The classify payload is the raw [S, S, 3] image, either S*S*3 bytes of
// interleaved RGB u8 (mapped onto the same 8-bit grid as
// facegen::MaskedFaceDataset::quantize_pixel) or S*S*3 float32
// little-endian values in [-1, 1] (a NaN, an infinity or any value outside
// is 400). Anything else is 400; larger than the float payload is 413.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/http_parser.hpp"
#include "net/socket.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/router.hpp"
#include "tensor/shape.hpp"

namespace bcop::net {

struct HttpServerConfig {
  /// Port to bind on 127.0.0.1 (0 = ephemeral; read back via port()).
  std::uint16_t port = 0;
  /// Event workers. Each owns its accepted connections outright.
  unsigned workers = 2;
  /// Per-replica admission watermark: POST /v1/classify answers 503 when
  /// the replica the Router picked already holds shed_watermark requests
  /// (0 sheds everything; < 0 disables the watermark and sheds only on a
  /// full queue). Fleet shedding capacity is replicas x this value.
  std::int64_t shed_watermark = 48;
};

class HttpServer {
 public:
  /// Binds and starts serving immediately. The Router (and the prototype
  /// predictor behind it) must outlive this object. Throws
  /// std::runtime_error when the port cannot be bound.
  HttpServer(serve::Router& router, HttpServerConfig config);
  /// Stops accepting, closes every connection, joins the workers.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the ephemeral one when config.port was 0).
  std::uint16_t port() const { return port_; }
  const HttpServerConfig& config() const { return config_; }

 private:
  struct Connection;
  struct Metrics;

  void worker_loop();
  /// Accept as many pending connections as the worker has room for.
  void accept_ready(std::vector<Connection>& conns);
  /// Drain readable bytes into the bounded input buffer. False = close.
  bool read_some(Connection& conn);
  /// Parse / admit / respond until blocked on input or an engine future.
  void step(Connection& conn);
  /// Route one parsed request (may leave a pending engine future).
  void handle_request(Connection& conn, const ParsedRequest& req);
  void handle_classify(Connection& conn, const ParsedRequest& req);
  /// Queue an already-rendered response slot and do the bookkeeping
  /// (status-class counters, keep-alive vs close).
  void respond(Connection& conn, int status, std::string_view content_type,
               std::string_view body, bool keep_alive,
               std::string_view extra_headers = {});
  /// Move completed response slots to the output buffer, in request order.
  void drain_ready(Connection& conn);
  /// Bump the responses_{2,4,5}xx counter for this status class.
  static void count_status(int status);
  /// Flush pending output. False = close.
  bool flush(Connection& conn);

  serve::Router& router_;
  const HttpServerConfig config_;
  ParserLimits limits_;
  tensor::Shape want_;           // [S, S, C] model input
  std::size_t u8_bytes_ = 0;     // accepted payload sizes
  std::size_t f32_bytes_ = 0;
  Fd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  // Declared last so the destructor's stop/join happens before members go
  // away (same pattern as serve::BatchingServer).
  parallel::ThreadPool pool_;
};

}  // namespace bcop::net
