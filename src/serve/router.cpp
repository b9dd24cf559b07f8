#include "serve/router.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/affinity.hpp"
#include "util/check.hpp"

namespace bcop::serve {

using core::Predictor;
using tensor::Tensor;

/// Dispatcher telemetry (naming scheme in docs/observability.md).
/// `rejected` is the SAME bcop_serve_rejected_total series the servers
/// record (the registry find-or-creates by name), bumped here only for
/// the no-serving-replica case so the 503 ledger counts every shed
/// exactly once, wherever it happened.
struct Router::Metrics {
  obs::Counter& routed;      // client placements that returned a future
  obs::Counter& retries;     // kUnavailable hops during placement scans
  obs::Counter& unrouted;    // requests no serving replica could take
  obs::Counter& rejected;    // shared bcop_serve_rejected_total series
  obs::Counter& escalated;   // hand-offs placed on a full-depth replica
  obs::Counter& degraded;    // hand-offs answered with the low result

  static Metrics& get() {
    auto& reg = obs::Registry::global();
    static Metrics m{reg.counter("bcop_serve_router_routed_total"),
                     reg.counter("bcop_serve_router_retries_total"),
                     reg.counter("bcop_serve_router_unrouted_total"),
                     reg.counter("bcop_serve_rejected_total"),
                     reg.counter("bcop_serve_escalated_total"),
                     reg.counter("bcop_serve_degraded_total")};
    return m;
  }
};

namespace {

Predictor capped_at_one_level(const Predictor& prototype) {
  Predictor fast = prototype.replicate();
  fast.set_serve_levels(1);
  return fast;
}

}  // namespace

Router::Router(const Predictor& prototype, RouterConfig config)
    : prototype_(prototype), config_(config) {
  BCOP_CHECK(config_.replicas >= 1 && config_.replicas <= 64,
             "Router: replicas %d must be in 1..64", config_.replicas);
  BCOP_CHECK(config_.fast_replicas >= 0 &&
                 config_.fast_replicas < config_.replicas,
             "Router: fast_replicas %d must be in 0..replicas-1 (%d)",
             config_.fast_replicas, config_.replicas - 1);
  Metrics::get();  // register before traffic so exports always list them
  std::optional<Predictor> fast;
  if (config_.fast_replicas > 0) fast = capped_at_one_level(prototype_);
  const auto n = static_cast<unsigned>(config_.replicas);
  replicas_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    BatcherConfig bc = config_.batcher;
    bc.pin_cpus = config_.pin_workers
                      ? parallel::partition_cpus(i, n)
                      : std::vector<int>{};
    bc.replica_id = static_cast<int>(i);
    const bool is_fast = static_cast<int>(i) < config_.fast_replicas;
    replicas_.push_back(std::make_unique<BatchingServer>(
        is_fast ? *fast : prototype_, bc, is_fast ? this : nullptr));
  }
}

Router::~Router() {
  // Index order is tier order: the fast replicas drain (handing their
  // low-margin answers on) while every full-depth replica still serves,
  // then the full-depth replicas answer what they were handed.
  for (auto& r : replicas_) r->drain();
}

void Router::swap_model(int i, const Predictor& prototype) {
  if (i < config_.fast_replicas)
    replica(i).swap_model(capped_at_one_level(prototype));
  else
    replica(i).swap_model(prototype);
}

BatchingServer::Admitted Router::place(
    std::size_t lo, std::size_t hi, std::uint64_t origin, Tensor& image,
    std::int64_t max_depth, std::promise<Predictor::Result>* handed) {
  const std::size_t n = hi - lo;
  std::uint64_t tried = 0;  // replicas answered kUnavailable this request
  for (;;) {
    // The scan keeps the FIRST replica it sees at the minimum depth, so
    // rotating where it starts turns every tie into round-robin -- an
    // idle fleet spreads instead of pile-driving one replica.
    std::size_t best = hi;
    std::int64_t best_depth = std::numeric_limits<std::int64_t>::max();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = lo + (origin + k) % n;
      if (tried & (std::uint64_t{1} << i)) continue;
      if (replicas_[i]->state() != ServerState::kServing) continue;
      const std::int64_t depth = replicas_[i]->queue_depth();
      if (depth < best_depth) {
        best = i;
        best_depth = depth;
      }
    }
    if (best == hi) return {};  // every replica is mid-swap, draining or tried
    BatchingServer::Admitted result =
        replicas_[best]->admit(image, max_depth, handed);
    // kShed is terminal by design (rule 3 in the header comment): the
    // replica already counted the rejection.
    if (result.admission != BatchingServer::Admission::kUnavailable)
      return result;
    tried |= std::uint64_t{1} << best;
    Metrics::get().retries.add(1);
  }
}

std::optional<std::future<Predictor::Result>> Router::try_submit(
    Tensor image, std::int64_t max_depth) {
  Metrics& metrics = Metrics::get();
  const std::size_t n = replicas_.size();
  const auto fast = static_cast<std::size_t>(config_.fast_replicas);
  const std::uint64_t origin =
      scan_origin_.fetch_add(1, std::memory_order_relaxed);
  BatchingServer::Admitted result =
      place(0, fast == 0 ? n : fast, origin, image, max_depth, nullptr);
  // Clients reach the full-depth replicas only while no fast one serves.
  if (fast > 0 && result.admission == BatchingServer::Admission::kUnavailable)
    result = place(fast, n, origin, image, max_depth, nullptr);
  switch (result.admission) {
    case BatchingServer::Admission::kAccepted:
      metrics.routed.add(1);
      return std::move(result.future);
    case BatchingServer::Admission::kShed:
      return std::nullopt;
    case BatchingServer::Admission::kUnavailable:
      break;
  }
  // No serving replica could even be offered the request (fleet-wide
  // swap/drain). Nothing downstream counted it, so the Router keeps the
  // 503 <-> rejected ledger intact here.
  metrics.unrouted.add(1);
  metrics.rejected.add(1);
  return std::nullopt;
}

void Router::escalate(BatchingServer::Request& request,
                      const Predictor::Result& low) {
  Metrics& metrics = Metrics::get();
  // load, not fetch_add: hand-offs must not skew the clients' round-robin.
  const BatchingServer::Admitted result = place(
      static_cast<std::size_t>(config_.fast_replicas), replicas_.size(),
      scan_origin_.load(std::memory_order_relaxed), request.image,
      request.max_depth, &request.promise);
  if (result.admission == BatchingServer::Admission::kAccepted) {
    metrics.escalated.add(1);
    return;
  }
  // Degrade, don't fail: the low answer is already in hand, so a shed or
  // missing full-depth replica costs accuracy, not availability.
  metrics.degraded.add(1);
  request.promise.set_value(low);
}

bool Router::sheds(std::int64_t max_depth) const {
  std::int64_t limit = config_.batcher.queue_capacity;
  if (max_depth >= 0) limit = std::min(limit, max_depth);
  const auto fast = static_cast<std::size_t>(config_.fast_replicas);
  bool serving = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == fast && serving) break;  // the fast replicas take the clients
    const BatchingServer& r = *replicas_[i];
    if (r.state() != ServerState::kServing) continue;
    serving = true;
    if (r.config().workers == 0 || r.queue_depth() < limit) return false;
  }
  return true;
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
