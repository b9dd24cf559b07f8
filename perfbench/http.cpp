// HTTP phase of every run: open-loop load over HTTP, at the offered rate of
// the workload (`http_steady` or `http_overload`).
//
// The whole serving stack runs in this process on an ephemeral loopback
// port: net::HttpServer -> serve::Router (1 replica x 2 batcher workers,
// max_batch 16, 2 ms coalescing wait, per-replica watermark 48). The
// server has 1 event worker under steady load and 2 under overload: one
// worker parsing 16k req/s has so little headroom that a host stall
// leaves a backlog it never drains, and requests time out instead of
// being shed. net::run_loadgen drives it with a seeded Poisson schedule
// over 3 pipelined keep-alive connections -- about a fifth of capacity for
// http_steady, past capacity for http_overload, where admission sheds with
// 503s. The timed phase is back-to-back loadgen runs of about kSegmentS;
// latency and goodput are calm medians over them (Samples). A fourth
// connection is the oracle: during each segment it sends seeded, distinct
// f32 images and compares each 2xx answer's class and scores with
// in-process Predictor::classify_batch; between requests it samples
// Router::queue_depth().
//
// Ledgers checked on every run: loadgen conservation (sent == answered +
// lost + timed out) and bcop_serve_rejected_total == every 503 the clients
// saw.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "net/http_server.hpp"
#include "net/loadgen.hpp"
#include "obs/stage_profiler.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace bcop::perfbench {
namespace {

using namespace std::chrono_literals;
using tensor::Tensor;

constexpr int kSetupRuns = 3;     // builds before and after the timed phase
constexpr double kSegmentS = 1.0;  // one loadgen run of the timed phase
constexpr double kWarmupS = 1.0;  // fills the per-batch-size plan caches
constexpr double kSloMs = 50;     // goodput latency limit
constexpr int kOracleImages = 32;
constexpr auto kOraclePeriod = 10ms;
constexpr const char* kOctetStream =
    "Content-Type: application/octet-stream\r\n";

serve::RouterConfig router_config() {
  serve::RouterConfig c;
  c.replicas = 1;
  c.batcher.workers = 2;
  c.batcher.max_batch = 16;
  c.batcher.max_latency = 2000us;
  return c;
}

net::HttpServerConfig http_config(bool overload) {
  net::HttpServerConfig c;
  c.workers = overload ? 2 : 1;
  c.shed_watermark = 48;
  return c;
}

/// The serving stack, torn down in reverse order of construction.
struct Stack {
  core::Predictor proto;
  serve::Router router;
  net::HttpServer http;
  Stack(std::uint64_t seed, bool overload)
      : proto(core::build_bnn(core::ArchitectureId::kNCnv, seed)),
        router(proto, router_config()),
        http(router, http_config(overload)) {}
};

/// Build the stack and wait for its first answered request.
std::unique_ptr<Stack> set_up(std::uint64_t seed, bool overload) {
  auto stack = std::make_unique<Stack>(seed, overload);
  net::BlockingClient client;
  net::HttpResponse resp;
  if (!client.connect("127.0.0.1", stack->http.port()) ||
      !client.request("POST", "/v1/classify",
                      std::string(kSide * kSide * 3, '\x80'), resp,
                      kOctetStream) ||
      resp.status != 200)
    throw std::runtime_error("serving stack did not answer a first request");
  return stack;
}

/// "%.4f,%.4f,..." -- the way HttpServer renders scores.
std::string format_scores(const core::Predictor::Result& r) {
  std::string s;
  for (const float v : r.scores) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", s.empty() ? "" : ",",
                  static_cast<double>(v));
    s += buf;
  }
  return s;
}

/// The oracle connection plus the queue-depth sampler.
class Oracle {
 public:
  Oracle(const core::Predictor& proto, std::uint64_t seed) {
    util::Rng rng(seed ^ 0x51ed270b27d1c2e5ull);
    const Tensor batch = random_images(rng, kOracleImages);
    const auto results = proto.classify_batch(batch);
    const std::size_t bytes = kSide * kSide * 3 * sizeof(float);
    const char* raw = reinterpret_cast<const char*>(batch.data());
    for (std::size_t i = 0; i < results.size(); ++i) {
      bodies_.emplace_back(raw + i * bytes, bytes);
      want_class_.push_back(static_cast<int>(results[i].label));
      want_scores_.push_back(format_scores(results[i]));
    }
  }

  /// Thread body: runs until `stop`; a throw ends it as one error.
  void run(std::stop_token stop, const serve::Router& router,
           std::uint16_t port) noexcept {
    try {
      net::BlockingClient client;
      Clock::time_point next = Clock::now();
      std::size_t i = 0;
      while (!stop.stop_requested()) {
        depth_sum += static_cast<double>(router.queue_depth());
        ++depth_samples;
        if (Clock::now() >= next) {
          next = std::max(next + kOraclePeriod, Clock::now());
          verify(client, i++ % bodies_.size(), port);
        }
        std::this_thread::sleep_for(1ms);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "oracle: %s\n", e.what());
      ++errors;
    }
  }

  std::uint64_t sent = 0, matched = 0, mismatched = 0, shed = 0, errors = 0;
  double depth_sum = 0;
  std::uint64_t depth_samples = 0;

 private:
  void verify(net::BlockingClient& client, std::size_t i, std::uint16_t port) {
    ++sent;
    if (!client.connected() && !client.connect("127.0.0.1", port)) {
      ++errors;
      return;
    }
    net::HttpResponse r;
    if (!client.request("POST", "/v1/classify", bodies_[i], r, kOctetStream)) {
      ++errors;
      client.close();
      return;
    }
    if (r.status == 503) {
      ++shed;
      return;
    }
    if (r.status != 200) {
      ++errors;
      return;
    }
    const auto cls = r.body.find("\"class\":");
    const auto sc = r.body.find("\"scores\":[");
    const auto end = sc == std::string::npos ? sc : r.body.find(']', sc);
    const bool ok =
        cls != std::string::npos && end != std::string::npos &&
        std::atoi(r.body.c_str() + cls + 8) == want_class_[i] &&
        r.body.compare(sc + 10, end - sc - 10, want_scores_[i]) == 0;
    ++(ok ? matched : mismatched);
  }

  std::vector<std::string> bodies_;
  std::vector<int> want_class_;
  std::vector<std::string> want_scores_;
};

/// Share of a run's answers at or below `slo_ms`, read off run_loadgen's
/// percentile points by linear interpolation through (0, 0), (p50, .5),
/// (p90, .9), (p99, .99) and (max, 1).
double share_within(const net::LoadGenReport& r, double slo_ms) {
  const double x[] = {0, r.p50_ms, r.p90_ms, r.p99_ms, r.max_ms};
  const double y[] = {0, 0.5, 0.9, 0.99, 1};
  for (int i = 1; i < 5; ++i)
    if (slo_ms < x[i])
      return y[i - 1] +
             (y[i] - y[i - 1]) * (slo_ms - x[i - 1]) / (x[i] - x[i - 1]);
  return 1;
}

/// The timed phase, run as consecutive loadgen segments of about
/// kSegmentS each. Counts add up over segments; latency and goodput are
/// calm medians over segments, so a host stall moves a few segments that
/// are then left out instead of the whole result.
struct Load {
  net::LoadGenReport sum;  // counts and durations summed, max_ms the max
  Samples p50_ms, p90_ms, p99_ms;
  Samples goodput_rps;  // 2xx answered inside the SLO, per second
  bool slo_estimated = false;  // some answers missed it; see share_within
};

Load run_segments(net::LoadGenConfig cfg, double seconds, Oracle& oracle,
                  const serve::Router& router,
                  const std::function<void(double)>& between) {
  Load load;
  net::LoadGenReport& sum = load.sum;
  const std::uint64_t seed = cfg.seed;
  const int segments = std::max(3, static_cast<int>(seconds / kSegmentS));
  const double segment_s = seconds / segments;
  cfg.duration = std::chrono::milliseconds(static_cast<int>(segment_s * 1e3));
  for (int i = 0; i < segments; ++i) {
    cfg.seed = seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i);
    net::LoadGenReport r;
    const double stolen0 = steal_ticks();
    {
      std::jthread monitor([&](std::stop_token stop) {
        oracle.run(stop, router, cfg.port);
      });
      r = net::run_loadgen(cfg);
    }  // the oracle finishes its request in flight and joins here
    const double stolen = steal_ticks() - stolen0;
    if (between) between(1.0 / segments);
    std::printf("loadgen segment %d: %s\n", i, r.to_json().c_str());
    sum.sent += r.sent;
    sum.ok_2xx += r.ok_2xx;
    sum.err_4xx += r.err_4xx;
    sum.shed_503 += r.shed_503;
    sum.err_5xx += r.err_5xx;
    sum.lost += r.lost;
    sum.timed_out += r.timed_out;
    sum.duration_s += r.duration_s;
    sum.max_ms = std::max(sum.max_ms, r.max_ms);
    load.p50_ms.add(r.p50_ms, stolen);
    load.p90_ms.add(r.p90_ms, stolen);
    load.p99_ms.add(r.p99_ms, stolen);
    // Every 2xx is inside the SLO when the slowest answer is. Otherwise
    // run_loadgen gives no per-request latencies, so the answers that
    // missed it are estimated from its percentiles and charged to 2xx.
    double missed = 0;
    if (r.max_ms > kSloMs) {
      missed = (1 - share_within(r, kSloMs)) *
               static_cast<double>(r.sent - r.lost - r.timed_out);
      load.slo_estimated = true;
    }
    load.goodput_rps.add(
        std::max(0.0, static_cast<double>(r.ok_2xx) - missed) / segment_s,
        stolen);
  }
  sum.offered_rate = static_cast<double>(sum.sent) / seconds;
  return load;
}

double us(double ns) { return ns / 1e3; }

}  // namespace

double run_http(const Options& opt, double rate, double seconds,
                Report& report, const std::function<void(double)>& between) {
  const bool overload = opt.workload == "http_overload";
  obs::StageProfiler::global().set_enabled(false);

  // setup_s is the median of builds timed before and after the timed
  // phase, so it spans the host's state over the whole run.
  std::vector<double> setups;
  auto timed_set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Stack> built = set_up(opt.seed, overload);
    setups.push_back(seconds_since(t0));
    return built;
  };
  for (int i = 1; i < kSetupRuns; ++i) timed_set_up();
  const std::unique_ptr<Stack> stack = timed_set_up();
  const std::uint16_t port = stack->http.port();
  // Load connections plus the oracle's stay within the core count.
  const unsigned cores = std::thread::hardware_concurrency();
  const unsigned connections = cores > 1 ? std::min(3u, cores - 1) : 1u;
  std::printf("fleet: 1 replica x 2 batcher workers (max_batch 16, "
              "max_latency 2 ms), %u HTTP workers, watermark 48, loadgen %u "
              "connections + 1 oracle connection\n",
              stack->http.config().workers, connections);
  net::LoadGenConfig cfg;
  cfg.port = port;
  cfg.rate = rate;
  cfg.connections = connections;
  // A host stall can leave requests unanswered for seconds; waiting them
  // out books them as SLO misses rather than as timed-out failures.
  cfg.drain_timeout = 10s;
  cfg.seed = opt.seed ^ 0x7f4a7c159e3779b9ull;
  cfg.duration = std::chrono::milliseconds(static_cast<int>(kWarmupS * 1e3));
  const net::LoadGenReport warm = net::run_loadgen(cfg);
  std::printf("warmup (untimed): %s\n", warm.to_json().c_str());

  Oracle oracle(stack->proto, opt.seed);
  cfg.seed = opt.seed;
  obs::Registry::global().reset_values();
  obs::StageProfiler::global().set_enabled(opt.trace);
  const serve::ServerStats before = stack->router.stats();
  const Load load = run_segments(cfg, seconds, oracle, stack->router, between);
  const net::LoadGenReport& lg = load.sum;
  const double p50_ms = load.p50_ms.calm_median(),
               p90_ms = load.p90_ms.calm_median(),
               p99_ms = load.p99_ms.calm_median();
  obs::StageProfiler::global().set_enabled(false);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const serve::ServerStats after = stack->router.stats();
  for (int i = 0; i < kSetupRuns; ++i) timed_set_up();
  std::printf("serving setup: median %.4f s over %zu builds (build + fold "
              "n-CNV, router + server up, first request answered)\n",
              median(setups), setups.size());

  const double horizon = seconds;
  const std::uint64_t answered = lg.sent - lg.lost - lg.timed_out;
  std::printf("loadgen: configured %.0f req/s, offered %.1f req/s, run took "
              "%.3f s for a %.3f s schedule (overrun %+.3f s). Latency is "
              "timed from each request's scheduled send; run_loadgen does not "
              "expose per-send lateness, so generator lag is charged to "
              "latency. p50 %.3f / p90 %.3f / p99 %.3f ms are calm medians "
              "over %zu segments of %llu answers in all (over all segments "
              "%.3f / %.3f / %.3f ms).\n",
              rate, lg.offered_rate, lg.duration_s, horizon,
              lg.duration_s - horizon, p50_ms, p90_ms, p99_ms,
              load.p50_ms.value.size(),
              static_cast<unsigned long long>(answered),
              median(load.p50_ms.value), median(load.p90_ms.value),
              median(load.p99_ms.value));
  std::printf("oracle: %llu sent, %llu matched, %llu mismatched, %llu shed, "
              "%llu errors; queue depth sampled %llu times\n",
              static_cast<unsigned long long>(oracle.sent),
              static_cast<unsigned long long>(oracle.matched),
              static_cast<unsigned long long>(oracle.mismatched),
              static_cast<unsigned long long>(oracle.shed),
              static_cast<unsigned long long>(oracle.errors),
              static_cast<unsigned long long>(oracle.depth_samples));

  const std::uint64_t rejected =
      find_counter(snap, "bcop_serve_rejected_total");
  report.attempted += lg.sent + oracle.sent;
  report.failed += lg.lost + lg.timed_out + lg.err_4xx + lg.err_5xx +
                   oracle.mismatched + oracle.errors;
  report.check(lg.conserved(), "loadgen conservation broken");
  // A lost or timed-out request (already a failure) may still be shed
  // after its client gave up, so the 503 ledger only balances without.
  if (lg.lost + lg.timed_out == 0)
    report.check(rejected == lg.shed_503 + oracle.shed,
                 "bcop_serve_rejected_total != 503s seen by clients");
  report.check(oracle.matched > 0, "oracle verified no answer");
  if (lg.shed_503 > 0)
    std::printf("note: %llu 503s; percentiles are over every answer, the fast "
                "503s included\n",
                static_cast<unsigned long long>(lg.shed_503));

  if (!opt.trace) {
    if (load.slo_estimated)
      std::printf("note: max latency %.1f ms exceeds the %.0f ms SLO; the "
                  "misses in goodput are estimated from percentiles\n",
                  lg.max_ms, kSloMs);
    report.metric("goodput_rps", load.goodput_rps.calm_median(), "req/s");
    // Over the whole phase: a median over segments would read exactly 1
    // on every steady run.
    report.metric("ok_frac",
                  static_cast<double>(lg.ok_2xx) / static_cast<double>(lg.sent),
                  "ratio");
    report.metric("p50_ms", p50_ms, "ms");
    // p90, not p99: a 1 s segment at 2000 req/s has 20 answers past its
    // p99, so one hypervisor stall of 10 ms sets it, and on a shared host
    // p99 measures the neighbours. p90 has 200 past it.
    report.metric("p90_ms", p90_ms, "ms");
    return median(setups);
  }

  const auto* req = find_histogram(snap, "bcop_net_request_ns");
  const auto* e2e = find_histogram(snap, "bcop_serve_e2e_latency_ns");
  const auto* wait = find_histogram(snap, "bcop_serve_coalesce_wait_ns");
  report.check(req && e2e && wait && req->count && e2e->count,
               "serving telemetry missing from the registry");
  if (!report.correct) return median(setups);
  report.metric("net.request_us.p50", us(req->p50), "us");
  report.metric("net.request_us.p99", us(req->p99), "us");
  // Parse + poll tick + render. Under overload the net mean also covers
  // the fast 503s that never reach serve, so there the difference is
  // smaller than a self time and may fall below 0.
  report.metric("net.self_us.mean", us(mean_of(req) - mean_of(e2e)), "us");
  report.metric("net.client_gap_us.p50", 1e3 * p50_ms - us(req->p50), "us");
  report.metric("serve.coalesce_wait_us.p50", us(wait->p50), "us");
  report.metric("serve.coalesce_wait_us.p99", us(wait->p99), "us");
  report.metric("serve.e2e_us.p50", us(e2e->p50), "us");
  report.metric("serve.e2e_us.p99", us(e2e->p99), "us");
  const double requests = static_cast<double>(after.requests - before.requests);
  report.metric("serve.batch_size.mean",
                requests / static_cast<double>(after.batches - before.batches),
                "count");
  const double coalesced =
      static_cast<double>(after.coalesced - before.coalesced);
  report.metric("serve.coalesced_frac", coalesced / requests, "ratio");
  report.metric("serve.queue_depth.mean",
                oracle.depth_sum / static_cast<double>(oracle.depth_samples),
                "count");
  report.metric("serve.rejected_total", static_cast<double>(rejected), "count");
  return median(setups);
}

}  // namespace bcop::perfbench
