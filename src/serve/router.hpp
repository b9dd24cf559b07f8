// Queue-aware dispatcher over a fleet of serving replicas.
//
// The FINN line of work scales throughput by replicating compute engines
// and load-balancing streams across them; this is the CPU serving
// analogue. A Router owns N serve::BatchingServer replicas -- each
// serving its own clone of one prototype model with its own plan cache,
// bounded queue and worker pool -- and places each request on the
// *least-loaded serving* replica:
//
//   try_submit --> scan serving replicas (queue_depth) --> best.admit
//                      ^                                        |
//                      +---- kUnavailable: retry next best -----+
//
// Placement rules, in order:
//   1. Never place onto a replica that is not kServing (drain/hot-swap
//      safety: a mid-swap replica is simply routed around).
//   2. Among serving replicas, lowest queue_depth wins; ties break
//      round-robin (the scan origin rotates per request) so an idle
//      fleet spreads instead of hammering replica 0.
//   3. kShed is terminal: the chosen replica was over the watermark and
//      already counted bcop_serve_rejected_total -- the fleet sheds, it
//      does not hunt for a luckier queue (that would break the 503 <->
//      rejected ledger and hide overload).
//   4. kUnavailable (the replica began draining after the scan) costs
//      nothing -- nothing counted, the image is untouched -- and moves to
//      the next-best replica; only when no replica is serving does the
//      Router itself count one rejection (keeping the ledger intact) and
//      report nullopt.
//
// Confidence tiering (ReBNet: one trained M = 3 model serves any depth
// from the same weights) is a per-replica level cap. With fast_replicas
// = F > 0, replicas [0, F) serve the prototype capped at M = 1 and take
// client traffic; the rest serve it at full depth:
//
//   try_submit --> fast replicas (M = 1) --> margin >= threshold: answer
//                    |                         | below: hand-off
//                    | none serving            v
//                    +--------------> full-depth replicas --> answer
//                                       shed / none serving: low answer
//
// A fast replica hands a low-margin request's own image and promise back
// to the Router, which places it on the least-loaded serving full-depth
// replica under the request's watermark (bcop_serve_escalated_total). If
// that is shed, or no full-depth replica serves, the client gets the low
// answer (bcop_serve_degraded_total) -- never a rejection, so
// rejected_total == 503s holds for every fleet.
//
// The Router itself is lock-free: the replica vector is immutable after
// construction, placement state is one atomic round-robin counter, and
// all lifecycle mutation lives inside the replicas. drain()/swap_model()
// on one replica proceed while the others keep serving -- that is the
// zero-downtime hot-swap path net::HttpServer exposes.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/predictor.hpp"
#include "serve/batcher.hpp"
#include "tensor/tensor.hpp"

namespace bcop::serve {

struct RouterConfig {
  /// Replica count, 1..64 (the placement scan tracks visited replicas in
  /// a 64-bit mask). Replica i is a BatchingServer built from `batcher`
  /// that records into bcop_serve_replica<i>_* as well as bcop_serve_*.
  int replicas = 2;
  /// Per-replica server template: every field applies to EACH replica
  /// (fleet capacity is replicas x queue_capacity).
  BatcherConfig batcher;
  /// Replicas [0, fast_replicas) serve a replicate() of the prototype
  /// capped with set_serve_levels(1) (swap_model re-applies the cap); the
  /// rest serve it as given. 0 = an untiered fleet.
  int fast_replicas = 0;
  /// A fast replica's answer escalates when its softmax margin is below
  /// this (0 never escalates; anything > 1 always does).
  float margin_threshold = 0.25f;
};

class Router {
 public:
  /// Builds `config.replicas` replicas, each serving its own
  /// Predictor::replicate() clone of `prototype`. The prototype must
  /// outlive the Router (front-ends read its input shape; swaps may
  /// re-clone it).
  Router(const core::Predictor& prototype, RouterConfig config);
  /// Drains the fast replicas, then the full-depth ones, so every
  /// accepted future resolves exactly once.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// The one admission call, non-blocking: place an [S, S, C] image (the
  /// prototype's expected_input_shape(); the replica offered any other
  /// shape fails a BCOP_CHECK) on the least-loaded serving replica (a fast
  /// one while any serves), retrying past mid-swap replicas. A replica
  /// sheds when its queue already holds min(queue_capacity, max_depth)
  /// requests (max_depth < 0: queue_capacity alone; 0 sheds everything).
  /// nullopt = shed (503 path); exactly one bcop_serve_rejected_total
  /// increment has happened, either inside the shedding replica or --
  /// when no replica is serving -- in the Router itself.
  std::optional<std::future<core::Predictor::Result>> try_submit(
      tensor::Tensor image, std::int64_t max_depth = -1);

  int size() const { return static_cast<int>(replicas_.size()); }
  /// Read-only view of replica `i`: state, generation, depth, stats.
  const BatchingServer& replica(int i) const {
    return *replicas_[static_cast<std::size_t>(i)];
  }

  /// Drain replica `i` (blocks until its queue empties); traffic keeps
  /// flowing through the rest of the fleet.
  void drain(int i) { replicas_[static_cast<std::size_t>(i)]->drain(); }
  /// Hot-swap replica `i` onto (a fresh clone of) `prototype` with zero
  /// fleet downtime: drain, re-clone, resume serving. Throws
  /// std::invalid_argument, leaving the replica serving its current
  /// model, when `prototype` expects a different input shape.
  void swap_model(int i, const core::Predictor& prototype);

  /// True when a client request at watermark `max_depth` would be shed:
  /// no replica that admits clients is serving below it (the /healthz
  /// "shedding" state).
  bool sheds(std::int64_t max_depth) const;
  /// Sum of live replica queue depths (the /healthz fleet view).
  std::int64_t queue_depth() const;
  /// replicas x per-replica queue_capacity.
  std::int64_t queue_capacity() const;
  /// Fleet-aggregated stats() across replicas and their generations.
  ServerStats stats() const;

  const core::Predictor& prototype() const { return prototype_; }
  const RouterConfig& config() const { return config_; }

 private:
  friend class BatchingServer;
  struct Metrics;

  /// Placement rules 1-4 over replicas [lo, hi), ties broken from
  /// `origin`. kUnavailable = no replica in the range took the offer.
  BatchingServer::Admitted place(std::size_t lo, std::size_t hi,
                                 std::uint64_t origin, tensor::Tensor& image,
                                 std::int64_t max_depth,
                                 std::promise<core::Predictor::Result>* handed);
  /// A fast replica's low-margin hand-off: place it at full depth, or
  /// answer `low`.
  void escalate(BatchingServer::Request& request,
                const core::Predictor::Result& low);

  const core::Predictor& prototype_;
  const RouterConfig config_;
  /// Immutable after construction -- placement reads it lock-free.
  std::vector<std::unique_ptr<BatchingServer>> replicas_;
  /// Rotating scan origin: breaks queue-depth ties round-robin.
  std::atomic<std::uint64_t> scan_origin_{0};
};

}  // namespace bcop::serve
