// Open-loop HTTP load generator for the serving front-end.
//
// Closed-loop clients (send, wait, send) hide overload: when the server
// slows down, the client offers less load, and the measured latency looks
// fine right up to collapse. This generator is open-loop: request arrival
// times are *precomputed* from a seeded Poisson process, and senders inject
// each request at its scheduled instant over pipelined keep-alive
// connections to 127.0.0.1 whether or not earlier responses have arrived.
// Latency is measured from the scheduled arrival, so queueing delay the
// server causes is charged to the server (the coordinated-omission fix).
//
// Determinism: the arrival schedule is a pure function of (seed, rate,
// duration) via util::Rng -- two runs offer byte-identical load.
// Accounting is conservative by construction and checked by the caller:
//   sent == 2xx + 4xx + 5xx + lost + timed_out
// (`lost` = in flight when the server closed the connection, `timed_out` =
// unanswered after the post-run drain window).
//
// perfbench's http_* workloads, bench/bench_capacity.cpp and
// tests/test_net_stress.cpp drive it in-process.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace bcop::net {

struct LoadGenConfig {
  std::uint16_t port = 0;  // of the server on 127.0.0.1
  double rate = 1000.0;    // mean offered requests/second
  std::chrono::milliseconds duration{2000};
  /// Keep-alive connections; arrivals are dealt round-robin across them
  /// and each is driven by one pool task.
  unsigned connections = 4;
  std::uint64_t seed = 42;
  /// Post-run drain: how long to wait for straggler responses before
  /// counting them timed_out.
  std::chrono::milliseconds drain_timeout{2000};
};

struct LoadGenReport {
  double offered_rate = 0;   // sent / duration
  double achieved_rate = 0;  // 2xx / duration
  std::uint64_t sent = 0;
  std::uint64_t ok_2xx = 0;
  std::uint64_t err_4xx = 0;
  std::uint64_t shed_503 = 0;
  std::uint64_t err_5xx = 0;  // non-503 5xx
  std::uint64_t lost = 0;
  std::uint64_t timed_out = 0;
  double shed_fraction = 0;  // 503s / sent
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, max_ms = 0;
  double duration_s = 0;

  /// Response-count conservation (every sent request accounted for).
  bool conserved() const {
    return sent == ok_2xx + err_4xx + shed_503 + err_5xx + lost + timed_out;
  }
  /// The report as one flat JSON object.
  std::string to_json() const;
};

/// Run one open-loop experiment against a live server. Blocks until every
/// scheduled request is sent and answered, lost or timed out.
LoadGenReport run_loadgen(const LoadGenConfig& config);

}  // namespace bcop::net
