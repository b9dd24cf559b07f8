// Protocol battery for the HTTP/1.1 serving front-end (src/net): loopback
// round-trips against a live HttpServer, keep-alive reuse, pipelining,
// byte-dribbled requests, and the reject paths (400/404/405/413/431/503)
// -- each reject case also asserting the engine was never invoked, because
// admission control that forwards garbage is not admission control.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "net/http_server.hpp"
#include "net/socket.hpp"
#include "nn/batchnorm.hpp"
#include "nn/binary_conv2d.hpp"
#include "nn/binary_dense.hpp"
#include "nn/flatten.hpp"
#include "nn/sign_activation.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "serve/router.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kU8Bytes = 32 * 32 * 3;
constexpr std::size_t kF32Bytes = kU8Bytes * sizeof(float);

/// Predictor + replica fleet + HTTP front-end on an ephemeral loopback
/// port, plus the counters the engine-untouched assertions read.
struct LiveServer {
  core::Predictor predictor;
  serve::Router router;
  net::HttpServer http;

  explicit LiveServer(std::uint64_t seed, std::int64_t shed_watermark = 48,
                      int replicas = 1)
      : LiveServer(seed, shed_watermark, router_config(replicas), 1) {}

  /// Any fleet shape over a µ-CNV trained at `residual_levels`.
  LiveServer(std::uint64_t seed, std::int64_t shed_watermark,
             serve::RouterConfig fleet, std::int64_t residual_levels)
      : predictor(core::build_bnn(core::ArchitectureId::kMicroCnv, seed,
                                  residual_levels)),
        router(predictor, fleet),
        http(router, http_config(shed_watermark)) {}

  static serve::RouterConfig router_config(int replicas) {
    serve::RouterConfig cfg;
    cfg.replicas = replicas;
    cfg.batcher.workers = 1;
    cfg.batcher.max_latency = std::chrono::microseconds(500);
    return cfg;
  }
  /// One fast replica (level cap 1) in front of one full-depth replica.
  static serve::RouterConfig tiered_config(float margin_threshold) {
    serve::RouterConfig cfg = router_config(2);
    cfg.fast_replicas = 1;
    cfg.margin_threshold = margin_threshold;
    return cfg;
  }
  static net::HttpServerConfig http_config(std::int64_t watermark) {
    net::HttpServerConfig cfg;
    cfg.workers = 1;
    cfg.shed_watermark = watermark;
    return cfg;
  }

  net::BlockingClient client() {
    net::BlockingClient c;
    EXPECT_TRUE(c.connect("127.0.0.1", http.port()));
    return c;
  }

  /// Engine-side accepted work, for "the reject path never reached the
  /// engine" assertions.
  std::uint64_t engine_submissions() const {
    return obs::Registry::global()
        .counter("bcop_serve_submitted_total")
        .value();
  }
};

std::string u8_payload(std::uint64_t seed) {
  util::Rng rng(seed);
  std::string payload(kU8Bytes, '\0');
  for (auto& b : payload)
    b = static_cast<char>(rng.uniform_int(0, 255));
  return payload;
}

/// The tensor the server should build from a u8 payload (the
/// quantize_pixel 8-bit grid mapping documented in net/http_server.hpp).
Tensor u8_to_tensor(const std::string& payload) {
  Tensor t(Shape{32, 32, 3});
  for (std::size_t i = 0; i < payload.size(); ++i)
    t[static_cast<std::int64_t>(i)] =
        static_cast<float>(2 * static_cast<unsigned char>(payload[i]) - 255) /
        255.f;
  return t;
}

/// In-process answer for `payload` at a residual level cap (0 = full).
core::Predictor::Result classify_at(const core::Predictor& prototype,
                                    const std::string& payload,
                                    std::int64_t cap) {
  core::Predictor capped = prototype.replicate();
  capped.set_serve_levels(cap);
  return capped
      .classify_batch(u8_to_tensor(payload).reshaped(Shape{1, 32, 32, 3}))
      .front();
}

/// The class and scores fields as HttpServer renders them.
std::string answer_fields(const core::Predictor::Result& r) {
  std::string s = "{\"class\":" + std::to_string(static_cast<int>(r.label));
  s += " \"scores\":[";
  for (std::size_t i = 0; i < r.scores.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", i ? "," : "",
                  static_cast<double>(r.scores[i]));
    s += buf;
  }
  return s + "]}";
}

/// The same two fields cut out of a /v1/classify response body.
std::string answer_fields(const std::string& body) {
  const std::size_t comma = body.find(',');
  const std::size_t scores = body.find("\"scores\":[");
  if (comma == std::string::npos || scores == std::string::npos) return body;
  return body.substr(0, comma) + " " + body.substr(scores);
}

TEST(NetSocket, FdIsMoveOnlyRaii) {
  net::Fd empty;
  EXPECT_FALSE(empty.valid());
  std::uint16_t port = 0;
  net::Fd listener = net::listen_tcp(0, 4, port);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(port, 0) << "ephemeral bind must report the chosen port";
  const int raw = listener.get();
  net::Fd moved = std::move(listener);
  EXPECT_FALSE(listener.valid());
  EXPECT_EQ(moved.get(), raw);
  moved.reset();
  EXPECT_FALSE(moved.valid());
  moved.reset();  // idempotent
}

TEST(NetSocket, ConnectReachesListener) {
  std::uint16_t port = 0;
  net::Fd listener = net::listen_tcp(0, 4, port);
  ASSERT_TRUE(listener.valid());
  net::Fd client = net::connect_tcp("127.0.0.1", port);
  EXPECT_TRUE(client.valid());
  EXPECT_TRUE(net::set_nodelay(client.get()));
  EXPECT_TRUE(net::set_io_timeout(client.get(), 100));
  EXPECT_TRUE(net::set_nonblocking(client.get(), true));
  EXPECT_TRUE(net::set_nonblocking(client.get(), false));
}

TEST(NetHttp, ClassifyU8RoundTripMatchesDirectClassification) {
  LiveServer s(100);
  const std::string payload = u8_payload(101);
  const auto direct =
      s.predictor.classify_batch(u8_to_tensor(payload).reshaped(
          Shape{1, 32, 32, 3}));
  ASSERT_EQ(direct.size(), 1u);

  auto c = s.client();
  net::HttpResponse resp;
  ASSERT_TRUE(c.request("POST", "/v1/classify", payload, resp));
  EXPECT_EQ(resp.status, 200);
  const std::string expect_class =
      "\"class\":" + std::to_string(static_cast<int>(direct[0].label));
  EXPECT_NE(resp.body.find(expect_class), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("\"confidence\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"scores\":["), std::string::npos);
}

TEST(NetHttp, ClassifyF32PayloadAgreesWithU8) {
  LiveServer s(102);
  const std::string payload = u8_payload(103);
  const Tensor t = u8_to_tensor(payload);
  std::string f32(kF32Bytes, '\0');
  std::memcpy(f32.data(), t.data(), kF32Bytes);

  auto c = s.client();
  net::HttpResponse a, b;
  ASSERT_TRUE(c.request("POST", "/v1/classify", payload, a));
  ASSERT_TRUE(c.request("POST", "/v1/classify", f32, b));
  EXPECT_EQ(a.status, 200);
  EXPECT_EQ(b.status, 200);
  EXPECT_EQ(a.body, b.body) << "u8 and f32 encodings of the same image "
                               "must classify identically";
}

TEST(NetHttp, KeepAliveServesManyRequestsOnOneConnection) {
  LiveServer s(104);
  obs::Counter& accepted =
      obs::Registry::global().counter("bcop_net_accepted_total");
  const std::uint64_t before = accepted.value();
  auto c = s.client();
  const std::string payload = u8_payload(105);
  for (int i = 0; i < 4; ++i) {
    net::HttpResponse resp;
    ASSERT_TRUE(c.request("POST", "/v1/classify", payload, resp)) << i;
    EXPECT_EQ(resp.status, 200) << i;
    EXPECT_TRUE(resp.keep_alive) << i;
  }
  net::HttpResponse health;
  ASSERT_TRUE(c.request("GET", "/healthz", "", health));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(accepted.value() - before, 1u)
      << "five requests must reuse a single accepted connection";
}

TEST(NetHttp, PipelinedRequestsAnswerInOrder) {
  LiveServer s(106);
  auto c = s.client();
  std::string wire;
  wire += net::format_request("GET", "/healthz", "");
  wire += net::format_request("GET", "/metrics", "");
  wire += net::format_request("GET", "/healthz", "");
  ASSERT_TRUE(c.send_raw(wire));
  net::HttpResponse r1, r2, r3;
  ASSERT_TRUE(c.read_response(r1));
  ASSERT_TRUE(c.read_response(r2));
  ASSERT_TRUE(c.read_response(r3));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r2.status, 200);
  EXPECT_EQ(r3.status, 200);
  EXPECT_NE(r1.body.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(r2.body.find("bcop_serve_submitted_total"), std::string::npos)
      << "/metrics must be the middle response (ordering preserved)";
  EXPECT_NE(r3.body.find("\"queue_depth\":"), std::string::npos);
}

TEST(NetHttp, ByteDribbledRequestStillParses) {
  LiveServer s(107);
  auto c = s.client();
  const std::string wire = net::format_request("GET", "/healthz", "");
  for (const char ch : wire)
    ASSERT_TRUE(c.send_raw(std::string_view(&ch, 1)));
  net::HttpResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.status, 200);
}

TEST(NetHttp, OversizedBodyIs413WithoutTouchingTheEngine) {
  LiveServer s(108);
  const std::uint64_t before = s.engine_submissions();
  auto c = s.client();
  // Content-Length alone triggers the reject; no body bytes ever sent.
  std::string head = "POST /v1/classify HTTP/1.1\r\nHost: x\r\n";
  head += "Content-Length: " + std::to_string(kF32Bytes + 1) + "\r\n\r\n";
  ASSERT_TRUE(c.send_raw(head));
  net::HttpResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.status, 413);
  EXPECT_FALSE(resp.keep_alive);
  EXPECT_EQ(s.engine_submissions(), before);
}

TEST(NetHttp, WrongSizeBodyIs400WithoutTouchingTheEngine) {
  LiveServer s(109);
  const std::uint64_t before = s.engine_submissions();
  auto c = s.client();
  net::HttpResponse resp;
  ASSERT_TRUE(c.request("POST", "/v1/classify", "ten bytes.", resp));
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(s.engine_submissions(), before);
}

TEST(NetHttp, MalformedRequestLineIs400AndCloses) {
  LiveServer s(110);
  const std::uint64_t before = s.engine_submissions();
  auto c = s.client();
  ASSERT_TRUE(c.send_raw("THIS IS NOT HTTP AT ALL\r\n\r\n"));
  net::HttpResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.status, 400);
  EXPECT_FALSE(resp.keep_alive);
  EXPECT_FALSE(c.connected()) << "400 must close the connection";
  EXPECT_EQ(s.engine_submissions(), before);
}

TEST(NetHttp, MalformedHeaderIs400) {
  LiveServer s(111);
  const std::uint64_t before = s.engine_submissions();
  auto c = s.client();
  ASSERT_TRUE(
      c.send_raw("GET /healthz HTTP/1.1\r\nBad Header: has space\r\n\r\n"));
  net::HttpResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(s.engine_submissions(), before);
}

TEST(NetHttp, OversizedHeaderSectionIs431) {
  LiveServer s(112);
  auto c = s.client();
  std::string wire = "GET /healthz HTTP/1.1\r\nX-Filler: ";
  wire.append(9000, 'a');
  wire += "\r\n\r\n";
  ASSERT_TRUE(c.send_raw(wire));
  net::HttpResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.status, 431);
}

TEST(NetHttp, UnknownTargetIs404AndWrongMethodIs405) {
  LiveServer s(113);
  const std::uint64_t before = s.engine_submissions();
  auto c = s.client();
  net::HttpResponse resp;
  ASSERT_TRUE(c.request("GET", "/v1/nope", "", resp));
  EXPECT_EQ(resp.status, 404);
  ASSERT_TRUE(c.request("GET", "/v1/classify", "", resp));
  EXPECT_EQ(resp.status, 405);
  EXPECT_EQ(s.engine_submissions(), before);
}

TEST(NetHttp, TransferEncodingIs501) {
  LiveServer s(114);
  auto c = s.client();
  ASSERT_TRUE(c.send_raw(
      "POST /v1/classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
  net::HttpResponse resp;
  ASSERT_TRUE(c.read_response(resp));
  EXPECT_EQ(resp.status, 501);
}

TEST(NetHttp, ExpectContinueFlowCompletes) {
  LiveServer s(115);
  auto c = s.client();
  const std::string payload = u8_payload(116);
  // Headers first (as curl does for large bodies), body after: the server
  // must emit the interim 100 and then answer the classification.
  std::string head = "POST /v1/classify HTTP/1.1\r\nHost: x\r\n";
  head += "Expect: 100-continue\r\n";
  head += "Content-Length: " + std::to_string(payload.size()) + "\r\n\r\n";
  ASSERT_TRUE(c.send_raw(head));
  ASSERT_TRUE(c.send_raw(payload));
  net::HttpResponse resp;
  ASSERT_TRUE(c.read_response(resp));  // interim 100 is skipped internally
  EXPECT_EQ(resp.status, 200);
}

TEST(NetHttp, WatermarkZeroShedsWith503AndRetryAfter) {
  LiveServer s(117, /*shed_watermark=*/0);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t engine_before = s.engine_submissions();
  const std::uint64_t rejected_before = rejected.value();
  auto c = s.client();
  const std::string payload = u8_payload(118);
  for (int i = 0; i < 3; ++i) {
    net::HttpResponse resp;
    ASSERT_TRUE(c.request("POST", "/v1/classify", payload, resp)) << i;
    EXPECT_EQ(resp.status, 503) << i;
    EXPECT_TRUE(resp.keep_alive) << "shedding must not kill the connection";
  }
  EXPECT_EQ(s.engine_submissions(), engine_before);
  EXPECT_EQ(rejected.value() - rejected_before, 3u)
      << "every 503 must land in bcop_serve_rejected_total";

  net::HttpResponse health;
  ASSERT_TRUE(c.request("GET", "/healthz", "", health));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"shedding\""), std::string::npos)
      << health.body;
}

TEST(NetHttp, HealthzReportsPerReplicaStates) {
  LiveServer s(120, /*shed_watermark=*/48, /*replicas=*/2);
  auto c = s.client();
  net::HttpResponse health;
  ASSERT_TRUE(c.request("GET", "/healthz", "", health));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"replicas\":["), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"id\":0,\"state\":\"serving\""),
            std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"id\":1,\"state\":\"serving\""),
            std::string::npos)
      << health.body;

  // Drain one replica: /healthz must show it stopped while the fleet
  // stays "ok" and classification still works through the survivor.
  s.router.drain(1);
  ASSERT_TRUE(c.request("GET", "/healthz", "", health));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"id\":1,\"state\":\"stopped\""),
            std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos)
      << "one serving replica under the watermark must keep the fleet ok";
  net::HttpResponse resp;
  ASSERT_TRUE(c.request("POST", "/v1/classify", u8_payload(121), resp));
  EXPECT_EQ(resp.status, 200)
      << "a drained replica must not take requests down with it";

  // A tiered 1 + 1 fleet: clients reach the full-depth replica only while
  // the fast one is not serving, and only then does it count for health.
  LiveServer tiered(127, /*shed_watermark=*/48,
                    LiveServer::tiered_config(0.25f), /*residual_levels=*/3);
  auto t = tiered.client();
  tiered.router.drain(0);
  ASSERT_TRUE(t.request("GET", "/healthz", "", health));
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos)
      << health.body;
  ASSERT_TRUE(t.request("POST", "/v1/classify", u8_payload(128), resp));
  EXPECT_EQ(resp.status, 200) << "the full-depth replica is the fallback";
  tiered.router.drain(1);
  ASSERT_TRUE(t.request("GET", "/healthz", "", health));
  EXPECT_NE(health.body.find("\"status\":\"shedding\""), std::string::npos)
      << health.body;
  ASSERT_TRUE(t.request("POST", "/v1/classify", u8_payload(129), resp));
  EXPECT_EQ(resp.status, 503);

  // A fast replica at the watermark sheds clients although the idle
  // full-depth replica has room. A long coalescing window keeps one
  // request queued until teardown drains it.
  serve::RouterConfig held = LiveServer::tiered_config(0.25f);
  held.batcher.max_latency = std::chrono::seconds(5);
  LiveServer busy(160, /*shed_watermark=*/1, held, /*residual_levels=*/3);
  auto queued = busy.router.try_submit(u8_to_tensor(u8_payload(161)));
  ASSERT_TRUE(queued.has_value());
  auto b = busy.client();
  ASSERT_TRUE(b.request("GET", "/healthz", "", health));
  EXPECT_NE(health.body.find("\"status\":\"shedding\""), std::string::npos)
      << health.body;
  ASSERT_TRUE(b.request("POST", "/v1/classify", u8_payload(162), resp));
  EXPECT_EQ(resp.status, 503);
}

// Tiering over the wire, threshold 2 so every fast answer escalates:
// answers are the full-depth ones; with the full-depth replica drained
// they degrade to the cap-1 ones, still 200s, counted as degraded and
// never as rejected; and a watermark-0 burst keeps rejected_total ==
// 503s.
TEST(NetHttp, TieredFleetKeepsTheLedgerOverTheWire) {
  LiveServer s(130, /*shed_watermark=*/48, LiveServer::tiered_config(2.f),
               /*residual_levels=*/3);
  obs::Counter& degraded =
      obs::Registry::global().counter("bcop_serve_degraded_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  auto c = s.client();
  constexpr int kRequests = 4;
  bool depths_distinguished = false;
  for (int i = 0; i < kRequests; ++i) {
    const std::string payload = u8_payload(static_cast<std::uint64_t>(131 + i));
    const std::string deep =
        answer_fields(classify_at(s.predictor, payload, 0));
    if (deep != answer_fields(classify_at(s.predictor, payload, 1)))
      depths_distinguished = true;
    net::HttpResponse resp;
    ASSERT_TRUE(c.request("POST", "/v1/classify", payload, resp)) << i;
    EXPECT_EQ(resp.status, 200) << i;
    EXPECT_EQ(answer_fields(resp.body), deep) << i;
  }
  EXPECT_TRUE(depths_distinguished)
      << "cap-1 and full-depth answers never differed on the wire";

  s.router.drain(1);
  const std::uint64_t degraded0 = degraded.value();
  const std::uint64_t rejected0 = rejected.value();
  for (int i = 0; i < kRequests; ++i) {
    const std::string payload = u8_payload(static_cast<std::uint64_t>(141 + i));
    net::HttpResponse resp;
    ASSERT_TRUE(c.request("POST", "/v1/classify", payload, resp)) << i;
    EXPECT_EQ(resp.status, 200) << i;
    EXPECT_EQ(answer_fields(resp.body),
              answer_fields(classify_at(s.predictor, payload, 1)))
        << i;
  }
  EXPECT_EQ(degraded.value() - degraded0,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(rejected.value(), rejected0)
      << "a degraded answer is a 200, not a rejection";

  net::HttpServer zero(s.router, LiveServer::http_config(0));
  net::BlockingClient b;
  ASSERT_TRUE(b.connect("127.0.0.1", zero.port()));
  std::string burst;
  for (int i = 0; i < 8; ++i)
    burst += net::format_request("POST", "/v1/classify", u8_payload(151));
  ASSERT_TRUE(b.send_raw(burst));
  std::uint64_t status_503 = 0;
  for (int i = 0; i < 8; ++i) {
    net::HttpResponse resp;
    ASSERT_TRUE(b.read_response(resp)) << i;
    if (resp.status == 503) ++status_503;
  }
  EXPECT_GT(status_503, 0u);
  EXPECT_EQ(rejected.value() - rejected0, status_503)
      << "rejected_total must equal the 503 count";
}

TEST(NetHttp, HotSwapUnderTrafficNeverDropsService) {
  LiveServer s(122, /*shed_watermark=*/48, /*replicas=*/2);
  auto c = s.client();
  const std::string payload = u8_payload(123);
  net::HttpResponse resp;
  ASSERT_TRUE(c.request("POST", "/v1/classify", payload, resp));
  EXPECT_EQ(resp.status, 200);

  // Swap each replica in turn (rolling deploy); every request in between
  // must still be answered 200 by whichever replica is serving.
  for (int i = 0; i < s.router.size(); ++i) {
    s.router.swap_model(i, s.predictor);
    for (int j = 0; j < 2; ++j) {
      ASSERT_TRUE(c.request("POST", "/v1/classify", payload, resp));
      EXPECT_EQ(resp.status, 200) << "swap of replica " << i;
    }
  }
  EXPECT_GE(s.router.replica(0).generation(), 2);
  EXPECT_GE(s.router.replica(1).generation(), 2);
}

// A hot-swap onto a model with another input shape is refused before the
// drain, so the replica keeps serving its current generation and the
// front-end keeps answering -- the next well-formed request must not find a
// model it cannot feed.
TEST(NetHttp, SwapToDifferentInputShapeIsRefusedAndServingContinues) {
  LiveServer s(124);
  util::Rng rng(125);
  nn::Sequential tiny;
  tiny.emplace<nn::BinaryConv2d>(3, 3, 8, rng);
  tiny.emplace<nn::BatchNorm>(8);
  tiny.emplace<nn::SignActivation>();
  tiny.emplace<nn::Flatten>();
  tiny.emplace<nn::BinaryDense>(14 * 14 * 8, 4, rng);
  const core::Predictor small(std::move(tiny));
  ASSERT_EQ(small.network().expected_input_shape(), (Shape{16, 16, 3}));

  EXPECT_THROW(s.router.swap_model(0, small), std::invalid_argument);
  EXPECT_EQ(s.router.replica(0).generation(), 1);
  auto c = s.client();
  net::HttpResponse resp;
  ASSERT_TRUE(c.request("POST", "/v1/classify", u8_payload(126), resp));
  EXPECT_EQ(resp.status, 200);
}

TEST(NetHttp, MetricsEndpointExportsServeAndNetFamilies) {
  LiveServer s(119);
  auto c = s.client();
  net::HttpResponse resp;
  ASSERT_TRUE(c.request("GET", "/metrics", "", resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("bcop_serve_submitted_total"), std::string::npos);
  EXPECT_NE(resp.body.find("bcop_net_requests_total"), std::string::npos);
  EXPECT_NE(resp.body.find("bcop_net_open_connections"), std::string::npos);
}

}  // namespace
