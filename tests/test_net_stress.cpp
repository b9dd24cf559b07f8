// Concurrency hammering for the HTTP front-end, intended for the TSan
// configuration (ctest -L stress): many client tasks with keep-alive
// connections against a live server, asserting response-count conservation
// (every request sent is answered exactly once: 2xx + 4xx + 503 == sent)
// and that bcop_serve_rejected_total reconciles with the 503s observed on
// the wire. Client concurrency comes from parallel::ThreadPool (repo rule
// R2: no raw threads outside src/parallel/).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "net/http_server.hpp"
#include "net/loadgen.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop;

constexpr std::size_t kU8Bytes = 32 * 32 * 3;

struct ClientTally {
  std::uint64_t sent = 0, ok_2xx = 0, err_4xx = 0, shed_503 = 0,
                other = 0, lost = 0;
};

/// One keep-alive client: `requests` classify POSTs (with a deterministic
/// per-client payload), tallying every response by status class.
void run_client(std::uint16_t port, int requests, std::uint64_t seed,
                ClientTally& tally) {
  util::Rng rng(seed);
  std::string payload(kU8Bytes, '\0');
  for (auto& b : payload) b = static_cast<char>(rng.uniform_int(0, 255));

  net::BlockingClient client;
  for (int i = 0; i < requests; ++i) {
    if (!client.connected() &&
        !client.connect("127.0.0.1", port, /*timeout_ms=*/10000)) {
      ++tally.lost;
      continue;
    }
    ++tally.sent;
    net::HttpResponse resp;
    if (!client.request("POST", "/v1/classify", payload, resp)) {
      ++tally.lost;
      continue;
    }
    if (resp.status < 400) ++tally.ok_2xx;
    else if (resp.status == 503) ++tally.shed_503;
    else if (resp.status < 500) ++tally.err_4xx;
    else ++tally.other;
  }
}

struct StressResult {
  ClientTally total;
  std::uint64_t rejected_delta = 0;  // bcop_serve_rejected_total over the run
  std::uint64_t net_shed_delta = 0;  // bcop_net_shed_total over the run
};

StressResult hammer(std::int64_t shed_watermark, unsigned clients,
                    int requests_per_client, std::uint64_t seed,
                    int replicas = 1) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, seed));
  serve::RouterConfig rcfg;
  rcfg.replicas = replicas;
  rcfg.batcher.workers = 1;
  rcfg.batcher.max_batch = 8;
  rcfg.batcher.max_latency = std::chrono::microseconds(500);
  serve::Router router(predictor, rcfg);
  net::HttpServerConfig hcfg;
  hcfg.workers = 2;
  hcfg.shed_watermark = shed_watermark;
  net::HttpServer http(router, hcfg);

  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  obs::Counter& net_shed =
      obs::Registry::global().counter("bcop_net_shed_total");
  const std::uint64_t rejected_before = rejected.value();
  const std::uint64_t net_shed_before = net_shed.value();

  std::vector<ClientTally> tallies(clients);
  parallel::ThreadPool pool(clients);
  for (unsigned c = 0; c < clients; ++c) {
    ClientTally* slot = &tallies[c];
    const std::uint16_t port = http.port();
    const std::uint64_t client_seed = seed * 1000 + c;
    pool.submit([slot, port, requests_per_client, client_seed] {
      run_client(port, requests_per_client, client_seed, *slot);
    });
  }
  pool.wait_idle();

  StressResult result;
  for (const ClientTally& t : tallies) {
    result.total.sent += t.sent;
    result.total.ok_2xx += t.ok_2xx;
    result.total.err_4xx += t.err_4xx;
    result.total.shed_503 += t.shed_503;
    result.total.other += t.other;
    result.total.lost += t.lost;
  }
  result.rejected_delta = rejected.value() - rejected_before;
  result.net_shed_delta = net_shed.value() - net_shed_before;
  return result;
}

// Normal watermark: every request answered 200, nothing lost, nothing
// shed, and the books balance exactly.
TEST(NetStress, ConservationUnderConcurrentKeepAliveClients) {
  const StressResult r = hammer(/*shed_watermark=*/48, /*clients=*/4,
                                /*requests_per_client=*/20, /*seed=*/200);
  EXPECT_EQ(r.total.sent, 80u);
  EXPECT_EQ(r.total.lost, 0u);
  EXPECT_EQ(r.total.other, 0u);
  EXPECT_EQ(r.total.sent,
            r.total.ok_2xx + r.total.err_4xx + r.total.shed_503)
      << "every request must be answered exactly once";
  EXPECT_EQ(r.total.ok_2xx, 80u);
  EXPECT_EQ(r.net_shed_delta, 0u);
}

// Watermark zero: the engine is unreachable, every classify is shed, and
// the serve-side rejection counter reconciles 1:1 with observed 503s.
TEST(NetStress, RejectedCounterReconcilesWithObserved503s) {
  const StressResult r = hammer(/*shed_watermark=*/0, /*clients=*/4,
                                /*requests_per_client=*/15, /*seed=*/201);
  EXPECT_EQ(r.total.sent, 60u);
  EXPECT_EQ(r.total.lost, 0u);
  EXPECT_EQ(r.total.shed_503, 60u);
  EXPECT_EQ(r.total.ok_2xx, 0u);
  EXPECT_EQ(r.rejected_delta, r.total.shed_503)
      << "bcop_serve_rejected_total must count exactly the 503s";
  EXPECT_EQ(r.net_shed_delta, r.total.shed_503);
}

// Multi-replica fleet under the same hammer: the conservation identity
// and the 503 <-> rejected ledger must survive queue-aware routing (no
// double-counted rejections when the Router retries past a busy replica).
TEST(NetStress, FleetConservationAndLedgerWithTwoReplicas) {
  const StressResult r = hammer(/*shed_watermark=*/48, /*clients=*/4,
                                /*requests_per_client=*/20, /*seed=*/204,
                                /*replicas=*/2);
  EXPECT_EQ(r.total.sent, 80u);
  EXPECT_EQ(r.total.lost, 0u);
  EXPECT_EQ(r.total.other, 0u);
  EXPECT_EQ(r.total.sent,
            r.total.ok_2xx + r.total.err_4xx + r.total.shed_503);
  EXPECT_EQ(r.rejected_delta, r.total.shed_503)
      << "routing retries must never double-count a rejection";
}

// The open-loop generator against a live server: deterministic schedule,
// conservative accounting, and the conservation identity it promises.
TEST(NetStress, LoadgenAccountingConserves) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 202));
  serve::RouterConfig rcfg;
  rcfg.replicas = 2;
  rcfg.batcher.workers = 1;
  rcfg.batcher.max_latency = std::chrono::microseconds(500);
  serve::Router router(predictor, rcfg);
  net::HttpServerConfig hcfg;
  hcfg.workers = 2;
  net::HttpServer http(router, hcfg);

  net::LoadGenConfig cfg;
  cfg.port = http.port();
  cfg.rate = 100.0;
  cfg.duration = std::chrono::milliseconds(600);
  cfg.connections = 2;
  cfg.seed = 7;
  const net::LoadGenReport report = net::run_loadgen(cfg);
  EXPECT_GT(report.sent, 0u);
  EXPECT_TRUE(report.conserved())
      << report.to_json() << " -- sent must equal the sum of outcomes";
  EXPECT_EQ(report.err_4xx, 0u) << report.to_json();
  EXPECT_GT(report.ok_2xx + report.shed_503, 0u);
}

// Same seed, same schedule: the generator's offered load is a pure
// function of its config (the open-loop determinism contract). The count
// is pinned as well, so a sampler change that shifts every seed's
// schedule -- and with it the load perfbench replays -- fails here.
TEST(NetStress, LoadgenScheduleIsDeterministic) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 203));
  serve::RouterConfig rcfg;
  rcfg.replicas = 1;
  rcfg.batcher.workers = 1;
  serve::Router router(predictor, rcfg);
  net::HttpServerConfig hcfg;
  hcfg.workers = 1;
  net::HttpServer http(router, hcfg);

  net::LoadGenConfig cfg;
  cfg.port = http.port();
  cfg.rate = 80.0;
  cfg.duration = std::chrono::milliseconds(400);
  cfg.connections = 2;
  cfg.seed = 11;
  const net::LoadGenReport a = net::run_loadgen(cfg);
  const net::LoadGenReport b = net::run_loadgen(cfg);
  EXPECT_EQ(a.sent, 34u) << "the Poisson schedule of seed 11 changed";
  EXPECT_EQ(a.sent, b.sent) << "identical seeds must offer identical load";
  EXPECT_TRUE(a.conserved());
  EXPECT_TRUE(b.conserved());
}

}  // namespace
