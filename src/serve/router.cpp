#include "serve/router.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/affinity.hpp"
#include "util/check.hpp"

namespace bcop::serve {

using core::Predictor;

/// Dispatcher telemetry (naming scheme in docs/observability.md).
/// `rejected` is the SAME bcop_serve_rejected_total series the servers
/// record (the registry find-or-creates by name), bumped here only for
/// the no-serving-replica case so the 503 ledger counts every shed
/// exactly once, wherever it happened.
struct Router::Metrics {
  obs::Counter& routed;      // placements that returned a future
  obs::Counter& retries;     // kUnavailable hops during placement scans
  obs::Counter& unrouted;    // requests no serving replica could take
  obs::Counter& rejected;    // shared bcop_serve_rejected_total series

  static Metrics& get() {
    auto& reg = obs::Registry::global();
    static Metrics m{reg.counter("bcop_serve_router_routed_total"),
                     reg.counter("bcop_serve_router_retries_total"),
                     reg.counter("bcop_serve_router_unrouted_total"),
                     reg.counter("bcop_serve_rejected_total")};
    return m;
  }
};

Router::Router(const Predictor& prototype, RouterConfig config)
    : prototype_(prototype), config_(config) {
  BCOP_CHECK(config_.replicas >= 1 && config_.replicas <= 64,
             "Router: replicas %d must be in 1..64", config_.replicas);
  Metrics::get();  // register before traffic so exports always list them
  const auto n = static_cast<unsigned>(config_.replicas);
  replicas_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    BatcherConfig bc = config_.batcher;
    bc.pin_cpus = config_.pin_workers
                      ? parallel::partition_cpus(i, n)
                      : std::vector<int>{};
    bc.replica_id = static_cast<int>(i);
    replicas_.push_back(std::make_unique<BatchingServer>(prototype_, bc));
  }
}

std::optional<std::future<Predictor::Result>> Router::try_submit(
    tensor::Tensor image, std::int64_t max_depth) {
  Metrics& metrics = Metrics::get();
  const std::size_t n = replicas_.size();
  // Rotating origin: the depth scan below keeps the FIRST replica it sees
  // at the minimum depth, so rotating where the scan starts turns every
  // tie into round-robin -- an idle fleet spreads instead of pile-driving
  // replica 0.
  const std::uint64_t origin =
      scan_origin_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t tried = 0;  // replicas answered kUnavailable this request
  for (;;) {
    std::size_t best = n;
    std::int64_t best_depth = std::numeric_limits<std::int64_t>::max();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (origin + k) % n;
      if (tried & (std::uint64_t{1} << i)) continue;
      if (replicas_[i]->state() != ServerState::kServing) continue;
      const std::int64_t depth = replicas_[i]->queue_depth();
      if (depth < best_depth) {
        best = i;
        best_depth = depth;
      }
    }
    if (best == n) break;  // every replica is mid-swap, draining or tried
    BatchingServer::Admitted result =
        replicas_[best]->try_submit(image, max_depth);
    switch (result.admission) {
      case BatchingServer::Admission::kAccepted:
        metrics.routed.add(1);
        return std::move(result.future);
      case BatchingServer::Admission::kShed:
        // Terminal by design (rule 3 in the header comment): the replica
        // already counted the rejection.
        return std::nullopt;
      case BatchingServer::Admission::kUnavailable:
        tried |= std::uint64_t{1} << best;
        metrics.retries.add(1);
        continue;
    }
  }
  // No serving replica could even be offered the request (fleet-wide
  // swap/drain). Nothing downstream counted it, so the Router keeps the
  // 503 <-> rejected ledger intact here.
  metrics.unrouted.add(1);
  metrics.rejected.add(1);
  return std::nullopt;
}

std::int64_t Router::queue_depth() const {
  std::int64_t total = 0;
  for (const auto& r : replicas_) total += r->queue_depth();
  return total;
}

std::int64_t Router::queue_capacity() const {
  return static_cast<std::int64_t>(replicas_.size()) *
         config_.batcher.queue_capacity;
}

ServerStats Router::stats() const {
  ServerStats total;
  for (const auto& r : replicas_) {
    const ServerStats s = r->stats();
    total.requests += s.requests;
    total.batches += s.batches;
    total.coalesced += s.coalesced;
    total.max_batch_seen = std::max(total.max_batch_seen, s.max_batch_seen);
  }
  return total;
}

}  // namespace bcop::serve
