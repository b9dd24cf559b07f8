#include "net/http_server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <stdexcept>
#include <utility>
#include <vector>

#include "facegen/attributes.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace bcop::net {

using Clock = std::chrono::steady_clock;

namespace {

constexpr int kBacklog = 128;
constexpr std::size_t kMaxConnectionsPerWorker = 256;
/// Close connections with no traffic for this long.
constexpr std::chrono::milliseconds kIdleTimeout{5000};
/// 408 + close connections stuck mid-request for this long (slowloris).
constexpr std::chrono::milliseconds kReadTimeout{2000};
/// Responses in flight per connection (HTTP/1.1 pipelining depth).
/// Beyond it the worker stops parsing and lets TCP push back. Depth
/// matters for load shedding: in-flight requests are what fills the
/// batching queue past the watermark, so a deep pipeline is how an
/// overloaded server sees 503-able backlog instead of socket buffers
/// silently queueing it.
constexpr std::size_t kMaxPipeline = 64;

}  // namespace

/// Front-end telemetry (naming scheme in docs/observability.md).
/// Registered once; recording afterwards is lock-free.
struct HttpServer::Metrics {
  obs::Counter& requests;        // parsed requests routed
  obs::Counter& responses_2xx;
  obs::Counter& responses_4xx;
  obs::Counter& responses_5xx;
  obs::Counter& shed;            // 503s from the admission watermark
  obs::Counter& timeouts;        // idle/read reaps
  obs::Counter& accepted;        // connections accepted
  obs::Gauge& connections;       // currently open
  obs::LatencyHistogram& request_ns;  // request first byte -> response built

  static Metrics& get() {
    auto& reg = obs::Registry::global();
    static Metrics m{reg.counter("bcop_net_requests_total"),
                     reg.counter("bcop_net_responses_2xx_total"),
                     reg.counter("bcop_net_responses_4xx_total"),
                     reg.counter("bcop_net_responses_5xx_total"),
                     reg.counter("bcop_net_shed_total"),
                     reg.counter("bcop_net_timeouts_total"),
                     reg.counter("bcop_net_accepted_total"),
                     reg.gauge("bcop_net_open_connections"),
                     reg.histogram("bcop_net_request_ns")};
    return m;
  }
};

/// One client connection, owned by exactly one event worker (no sharing,
/// no locks anywhere in this file).
///
/// HTTP/1.1 pipelining with an asynchronous engine means responses can
/// become available out of order; the wire demands request order. So every
/// handled request pushes one Slot onto `responses`: either already-
/// rendered text (health, metrics, rejects, sheds) or an engine future.
/// drain_ready() moves slots to the output buffer strictly front-first,
/// stalling at the first unresolved future -- ordering is preserved by
/// construction. The slot queue is capped (kMaxPipeline): beyond it the
/// worker simply stops parsing, the bounded input buffer fills, and TCP
/// backpressure does the rest.
struct HttpServer::Connection {
  Fd fd;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  bool close_after_write = false;  // stop parsing; close once drained
  bool sent_continue = false;

  struct Slot {
    bool ready = false;
    std::string text;  // rendered response when ready
    std::future<core::Predictor::Result> future;
    Clock::time_point start{};  // request first byte, for the latency metric
    bool keep_alive = true;
  };
  std::deque<Slot> responses;

  Clock::time_point request_start{};  // first byte of the request being read
  bool mid_request = false;
  Clock::time_point last_activity{};

  bool writable_backlog() const { return out_off < out.size(); }
  bool has_pending_future() const {
    return !responses.empty() && !responses.front().ready;
  }
};

namespace {

std::string_view status_reason(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void append_response(std::string& out, int status,
                     std::string_view content_type, std::string_view body,
                     bool keep_alive, std::string_view extra_headers) {
  const std::string_view reason = status_reason(status);
  char head[256];
  const int n = std::snprintf(
      head, sizeof(head),
      "HTTP/1.1 %d %.*s\r\n"
      "Content-Type: %.*s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: %s\r\n",
      status, static_cast<int>(reason.size()), reason.data(),
      static_cast<int>(content_type.size()), content_type.data(), body.size(),
      keep_alive ? "keep-alive" : "close");
  out.append(head, static_cast<std::size_t>(n));
  out.append(extra_headers);
  out.append("\r\n");
  out.append(body);
}

std::string error_body(std::string_view message) {
  std::string body = "{\"error\":\"";
  body.append(message);
  body.append("\"}");
  return body;
}

std::string classify_body(const core::Predictor::Result& result) {
  char buf[256];
  std::string body = "{\"class\":";
  body += std::to_string(static_cast<int>(result.label));
  body += ",\"label\":\"";
  body += facegen::class_short_name(result.label);
  float confidence = 0.f;
  for (const float s : result.scores) confidence = std::max(confidence, s);
  std::snprintf(buf, sizeof(buf), "\",\"confidence\":%.4f,\"admit\":%s",
                static_cast<double>(confidence),
                result.admit() ? "true" : "false");
  body += buf;
  body += ",\"scores\":[";
  for (std::size_t i = 0; i < result.scores.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i ? "," : "",
                  static_cast<double>(result.scores[i]));
    body += buf;
  }
  body += "]}";
  return body;
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

HttpServer::HttpServer(serve::Router& router, HttpServerConfig config)
    : router_(router),
      config_(config),
      want_(router.input_shape()),
      pool_(config.workers) {
  BCOP_CHECK(config_.workers >= 1, "HttpServer needs >= 1 worker, got %u",
             config_.workers);
  u8_bytes_ = static_cast<std::size_t>(want_.numel());
  f32_bytes_ = u8_bytes_ * sizeof(float);
  limits_.max_body = f32_bytes_;  // largest payload /v1/classify accepts

  listen_fd_ = listen_tcp(config_.port, kBacklog, port_);
  if (!listen_fd_.valid())
    throw std::runtime_error("HttpServer: cannot bind 127.0.0.1:" +
                             std::to_string(config_.port));
  Metrics::get();  // register before traffic so /metrics always lists them
  for (unsigned i = 0; i < config_.workers; ++i)
    pool_.submit([this] { worker_loop(); });
}

HttpServer::~HttpServer() {
  stopping_.store(true, std::memory_order_relaxed);
  pool_.wait_idle();
}

void HttpServer::accept_ready(std::vector<Connection>& conns) {
  while (conns.size() < kMaxConnectionsPerWorker) {
    Fd fd(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!fd.valid()) return;  // EAGAIN or raced by another worker
    set_nonblocking(fd.get(), true);
    set_nodelay(fd.get());
    Connection conn;
    conn.fd = std::move(fd);
    conn.last_activity = Clock::now();
    conns.push_back(std::move(conn));
    Metrics::get().accepted.add(1);
    Metrics::get().connections.add(1);
  }
}

bool HttpServer::read_some(Connection& conn) {
  // Bounded input: one header section + one body + a slack page for
  // pipelined follow-ups. When full, the socket simply stops being read
  // (TCP backpressure) until step() consumes a request.
  const std::size_t cap = limits_.max_header_bytes + limits_.max_body + 4096;
  char buf[16384];
  while (conn.in.size() < cap) {
    const std::size_t room = std::min(sizeof(buf), cap - conn.in.size());
    const ssize_t n = ::recv(conn.fd.get(), buf, room, 0);
    if (n > 0) {
      if (conn.in.empty() && !conn.mid_request) {
        conn.mid_request = true;
        conn.request_start = Clock::now();
      }
      conn.in.append(buf, static_cast<std::size_t>(n));
      conn.last_activity = Clock::now();
      if (static_cast<std::size_t>(n) < room) return true;  // drained
      continue;
    }
    if (n == 0) return false;  // peer closed
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
  return true;
}

void HttpServer::respond(Connection& conn, int status,
                         std::string_view content_type, std::string_view body,
                         bool keep_alive, std::string_view extra_headers) {
  Connection::Slot slot;
  slot.ready = true;
  slot.keep_alive = keep_alive;
  append_response(slot.text, status, content_type, body, keep_alive,
                  extra_headers);
  conn.responses.push_back(std::move(slot));
  if (!keep_alive) conn.close_after_write = true;
  count_status(status);
  Metrics::get().request_ns.record(
      ns_between(conn.request_start, Clock::now()));
}

void HttpServer::count_status(int status) {
  Metrics& metrics = Metrics::get();
  if (status < 400) metrics.responses_2xx.add(1);
  else if (status < 500) metrics.responses_4xx.add(1);
  else metrics.responses_5xx.add(1);
}

/// Move completed responses to the output buffer, strictly in request
/// order: stop at the first slot whose engine future is still pending.
void HttpServer::drain_ready(Connection& conn) {
  while (!conn.responses.empty()) {
    Connection::Slot& slot = conn.responses.front();
    if (!slot.ready) {
      if (slot.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready)
        return;
      int status = 200;
      std::string body;
      try {
        body = classify_body(slot.future.get());
      } catch (const std::exception&) {
        status = 500;
        body = error_body("inference failed");
        slot.keep_alive = false;
        conn.close_after_write = true;
      }
      append_response(slot.text, status, "application/json", body,
                      slot.keep_alive, {});
      count_status(status);
      Metrics::get().request_ns.record(ns_between(slot.start, Clock::now()));
      slot.ready = true;
    }
    conn.out.append(conn.responses.front().text);
    conn.responses.pop_front();
  }
}

void HttpServer::handle_classify(Connection& conn, const ParsedRequest& req) {
  const std::string_view body = req.body;
  tensor::Tensor image(want_);
  if (body.size() == u8_bytes_) {
    // Raw interleaved RGB bytes onto the deployed 8-bit grid:
    // (2*b - 255)/255, the same mapping MaskedFaceDataset::quantize_pixel
    // applies to [0,1] pixels, so a camera byte stream and the training
    // pipeline land on identical input codes.
    for (std::size_t i = 0; i < u8_bytes_; ++i) {
      const int b = static_cast<unsigned char>(body[i]);
      image[static_cast<std::int64_t>(i)] =
          static_cast<float>(2 * b - 255) / 255.f;
    }
  } else if (body.size() == f32_bytes_) {
    std::memcpy(image.data(), body.data(), f32_bytes_);
    // The contract is [-1, 1]: NaN and Inf would become undefined int32
    // pixel codes in the first conv, and any value past +-1 leaves the
    // accumulator range the thresholds were folded for. NaN fails both
    // compares.
    const float* px = image.data();
    if (!std::all_of(px, px + image.numel(),
                     [](float v) { return v >= -1.f && v <= 1.f; })) {
      respond(conn, 400, "application/json",
              error_body("f32 classify values must be finite and in [-1, 1]"),
              req.keep_alive);
      return;
    }
  } else {
    respond(conn, 400, "application/json",
            error_body("classify payload must be " +
                       std::to_string(u8_bytes_) + " u8 or " +
                       std::to_string(f32_bytes_) + " f32 bytes"),
            req.keep_alive);
    return;
  }

  // Router::try_submit is the single admission point: it places on the
  // least-loaded serving replica (routing around draining/swapping ones)
  // and returns nullopt -- having counted bcop_serve_rejected_total
  // exactly once -- at or above the per-replica watermark, which we map
  // to an immediate 503 (never a queued request).
  auto future = router_.try_submit(std::move(image), config_.shed_watermark);
  if (!future) {
    Metrics::get().shed.add(1);
    respond(conn, 503, "application/json", error_body("over capacity, retry"),
            req.keep_alive, "Retry-After: 1\r\n");
    return;
  }
  Connection::Slot slot;
  slot.future = std::move(*future);
  slot.start = conn.request_start;
  slot.keep_alive = req.keep_alive;
  if (!req.keep_alive) conn.close_after_write = true;
  conn.responses.push_back(std::move(slot));
}

void HttpServer::handle_request(Connection& conn, const ParsedRequest& req) {
  Metrics::get().requests.add(1);
  if (req.target == "/v1/classify") {
    if (!iequals(req.method, "POST")) {
      respond(conn, 405, "application/json", error_body("method not allowed"),
              req.keep_alive, "Allow: POST\r\n");
      return;
    }
    handle_classify(conn, req);
    return;
  }
  if (req.target == "/metrics") {
    if (!iequals(req.method, "GET")) {
      respond(conn, 405, "application/json", error_body("method not allowed"),
              req.keep_alive, "Allow: GET\r\n");
      return;
    }
    respond(conn, 200, "text/plain; version=0.0.4",
            obs::export_prometheus(obs::Registry::global().snapshot()),
            req.keep_alive);
    return;
  }
  if (req.target == "/healthz") {
    if (!iequals(req.method, "GET")) {
      respond(conn, 405, "application/json", error_body("method not allowed"),
              req.keep_alive, "Allow: GET\r\n");
      return;
    }
    std::string replicas = "[";
    for (int i = 0; i < router_.size(); ++i) {
      const serve::BatchingServer& r = router_.replica(i);
      if (i) replicas += ",";
      replicas += "{\"id\":" + std::to_string(i);
      replicas += ",\"state\":\"";
      replicas += serve::to_string(r.state());
      replicas += "\",\"queue_depth\":" + std::to_string(r.queue_depth());
      replicas += "}";
    }
    replicas += "]";
    // Only the Router knows which replicas admit clients.
    std::string body = "{\"status\":\"";
    body += router_.sheds(config_.shed_watermark) ? "shedding" : "ok";
    body += "\",\"queue_depth\":" + std::to_string(router_.queue_depth());
    body += ",\"queue_capacity\":" + std::to_string(router_.queue_capacity());
    body += ",\"shed_watermark\":" + std::to_string(config_.shed_watermark);
    body += ",\"replicas\":" + replicas;
    body += "}";
    respond(conn, 200, "application/json", body, req.keep_alive);
    return;
  }
  respond(conn, 404, "application/json", error_body("no such endpoint"),
          req.keep_alive);
}

void HttpServer::step(Connection& conn) {
  for (;;) {
    drain_ready(conn);
    if (conn.close_after_write || conn.in.empty()) return;
    if (conn.responses.size() >= kMaxPipeline)
      return;  // pipeline full: stop parsing, let TCP push back

    ParsedRequest req;
    const ParseStatus status =
        parse_request(conn.in.data(), conn.in.size(), limits_, req);
    switch (status) {
      case ParseStatus::kNeedMore:
        conn.mid_request = true;
        // Interim 100 so clients that wait for it (curl with a large
        // payload) start sending the body. Only safe to write directly
        // when no earlier response is still queued (order on the wire).
        if (req.header_end != 0 && req.expect_continue &&
            !conn.sent_continue && conn.responses.empty()) {
          conn.sent_continue = true;
          conn.out.append("HTTP/1.1 100 Continue\r\n\r\n");
        }
        return;
      case ParseStatus::kOk:
        conn.mid_request = false;
        conn.sent_continue = false;
        handle_request(conn, req);
        conn.in.erase(0, req.consumed);
        if (!req.keep_alive) conn.close_after_write = true;
        if (!conn.in.empty()) conn.request_start = Clock::now();
        continue;  // pipelining: handle everything already buffered
      case ParseStatus::kBadRequest:
        respond(conn, 400, "application/json",
                error_body("malformed request"), false);
        return;
      case ParseStatus::kHeadersTooLarge:
        respond(conn, 431, "application/json",
                error_body("header section too large"), false);
        return;
      case ParseStatus::kBodyTooLarge:
        respond(conn, 413, "application/json",
                error_body("payload too large"), false);
        return;
      case ParseStatus::kUnsupported:
        respond(conn, 501, "application/json",
                error_body("transfer-encoding not supported"), false);
        return;
    }
  }
}

bool HttpServer::flush(Connection& conn) {
  while (conn.writable_backlog()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      conn.last_activity = Clock::now();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return true;
    return false;  // peer went away mid-write
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

void HttpServer::worker_loop() {
  std::vector<Connection> conns;
  std::vector<pollfd> pfds;
  const std::size_t in_cap =
      limits_.max_header_bytes + limits_.max_body + 4096;

  while (!stopping_.load(std::memory_order_relaxed)) {
    pfds.clear();
    pollfd lp{};
    lp.fd = listen_fd_.get();
    lp.events = conns.size() < kMaxConnectionsPerWorker
                    ? POLLIN
                    : static_cast<short>(0);
    pfds.push_back(lp);
    bool any_pending = false;
    for (const Connection& conn : conns) {
      pollfd p{};
      p.fd = conn.fd.get();
      p.events = 0;
      if (conn.in.size() < in_cap && conn.responses.size() < kMaxPipeline)
        p.events |= POLLIN;
      if (conn.writable_backlog()) p.events |= POLLOUT;
      pfds.push_back(p);
      any_pending = any_pending || conn.has_pending_future();
    }
    // Engine futures are polled, not waited on: tighten the poll tick
    // while any are outstanding so responses go out within ~1ms of the
    // batch landing, and relax it when the worker is purely event-driven.
    const int timeout_ms = any_pending ? 1 : 20;
    ::poll(pfds.data(), pfds.size(), timeout_ms);

    // Only the connections that were present when pfds was built have a
    // matching revents slot; anything accept_ready adds below is first
    // polled on the next tick.
    const std::size_t polled = conns.size();
    if (pfds[0].revents & POLLIN) accept_ready(conns);

    const auto now = Clock::now();
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = conns[i];
      const short revents = pfds[i + 1].revents;
      bool alive = (revents & (POLLERR | POLLNVAL)) == 0;
      if (alive && (revents & (POLLIN | POLLHUP)))
        alive = read_some(conn);
      if (alive) {
        step(conn);
        alive = flush(conn);
      }
      if (alive && conn.close_after_write && !conn.writable_backlog() &&
          conn.responses.empty())
        alive = false;  // all responses delivered; close our half
      if (alive && conn.responses.empty() && !conn.writable_backlog()) {
        if (conn.mid_request &&
            now - conn.request_start > kReadTimeout) {
          // Stalled mid-request with nothing else owed: slowloris reap.
          Metrics::get().timeouts.add(1);
          respond(conn, 408, "application/json",
                  error_body("request timeout"), false);
          drain_ready(conn);
          flush(conn);
          alive = false;
        } else if (!conn.mid_request &&
                   now - conn.last_activity > kIdleTimeout) {
          Metrics::get().timeouts.add(1);
          alive = false;
        }
      }
      if (!alive) {
        conn.fd.reset();
        Metrics::get().connections.add(-1);
      }
    }
    std::erase_if(conns, [](const Connection& c) { return !c.fd.valid(); });
  }

  for (Connection& conn : conns) {
    conn.fd.reset();
    Metrics::get().connections.add(-1);
  }
}

}  // namespace bcop::net
