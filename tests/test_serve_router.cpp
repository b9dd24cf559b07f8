// Dispatcher/replica behavior: least-loaded placement with round-robin
// tie-break, never placing onto a non-serving replica, graceful drain
// (accepted futures resolve, new work turned away), zero-downtime
// hot-swap, the exactly-once rejection ledger, and confidence tiering
// (fast replicas hand low-margin answers to full-depth ones). Concurrency
// hammering of the same surfaces lives in test_router_stress.cpp for the
// TSan configuration.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace bcop::serve {

/// Test-only access to a replica's admit(): no public call reaches a
/// non-serving replica deterministically, because the Router's placement
/// scan skips it.
struct ReplicaTestPeer {
  using Admission = BatchingServer::Admission;
  static BatchingServer::Admitted admit(const BatchingServer& replica,
                                        tensor::Tensor& image) {
    // The Router owns its replicas as non-const objects.
    return const_cast<BatchingServer&>(replica).admit(image, -1, nullptr);
  }
};

}  // namespace bcop::serve

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;

core::Predictor make_predictor(std::uint64_t seed) {
  return core::Predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, seed));
}

Tensor random_image(util::Rng& rng) {
  Tensor image(Shape{32, 32, 3});
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return image;
}

/// One worker per replica, and each test awaits every future before its
/// next submit, so placement is deterministic: a resolved future leaves
/// its queue empty again, every decision is the tie-break, and stats
/// update before try_submit returns.
serve::RouterConfig sync_config(int replicas) {
  serve::RouterConfig cfg;
  cfg.replicas = replicas;
  cfg.batcher.workers = 1;
  return cfg;
}

TEST(Router, ConstructsFleetWithAllReplicasServing) {
  const core::Predictor p = make_predictor(1);
  serve::Router router(p, sync_config(3));
  ASSERT_EQ(router.size(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(router.replica(i).state(), serve::ServerState::kServing);
    EXPECT_EQ(router.replica(i).generation(), 1);
  }
  EXPECT_EQ(router.queue_depth(), 0);
  EXPECT_EQ(router.queue_capacity(), 3 * router.config().batcher.queue_capacity);
}

TEST(Router, RejectsOutOfRangeReplicaCounts) {
  const core::Predictor p = make_predictor(2);
  serve::RouterConfig zero = sync_config(0);
  EXPECT_DEATH({ serve::Router router(p, zero); }, "replicas");
  serve::RouterConfig huge = sync_config(65);
  EXPECT_DEATH({ serve::Router router(p, huge); }, "replicas");
  serve::RouterConfig all_fast = sync_config(2);
  all_fast.fast_replicas = 2;  // no full-depth replica left to escalate to
  EXPECT_DEATH({ serve::Router router(p, all_fast); }, "fast_replicas");
}

// An idle fleet has every replica at depth zero, so placement is pure
// tie-break -- which must rotate, not hammer replica 0.
TEST(Router, TieBreakSpreadsIdleFleetRoundRobin) {
  const core::Predictor p = make_predictor(3);
  serve::Router router(p, sync_config(2));
  util::Rng rng(4);
  const Tensor image = random_image(rng);
  for (int i = 0; i < 6; ++i) {
    auto future = router.try_submit(image);
    ASSERT_TRUE(future.has_value()) << i;
    future->get();
  }
  EXPECT_EQ(router.replica(0).stats().requests, 3)
      << "ties must spread evenly";
  EXPECT_EQ(router.replica(1).stats().requests, 3);
}

TEST(Router, NeverPlacesOntoDrainedReplica) {
  const core::Predictor p = make_predictor(5);
  serve::Router router(p, sync_config(2));
  router.drain(0);
  EXPECT_EQ(router.replica(0).state(), serve::ServerState::kStopped);
  util::Rng rng(6);
  const Tensor image = random_image(rng);
  for (int i = 0; i < 4; ++i) {
    auto future = router.try_submit(image);
    ASSERT_TRUE(future.has_value()) << i;
    future->get();
  }
  EXPECT_EQ(router.replica(0).stats().requests, 0)
      << "a stopped replica must receive nothing";
  EXPECT_EQ(router.replica(1).stats().requests, 4);
}

// Futures accepted before drain() resolve during it (the queue empties,
// nothing is abandoned), and the drained replica then turns work away.
TEST(Router, DrainResolvesInFlightFuturesThenRefuses) {
  const core::Predictor p = make_predictor(7);
  serve::RouterConfig cfg;
  cfg.replicas = 1;
  cfg.batcher.workers = 1;
  cfg.batcher.max_batch = 2;
  serve::Router router(p, cfg);
  util::Rng rng(8);
  std::vector<std::future<core::Predictor::Result>> futures;
  for (int i = 0; i < 6; ++i) {
    auto f = router.try_submit(random_image(rng));
    ASSERT_TRUE(f.has_value()) << i;
    futures.push_back(std::move(*f));
  }
  router.drain(0);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "drain must not return before in-flight work resolves";
    EXPECT_NO_THROW(f.get());
  }
  // The whole fleet is stopped now: admission reports shed and the Router
  // itself keeps the rejection ledger (exactly one count per attempt).
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  obs::Counter& unrouted =
      obs::Registry::global().counter("bcop_serve_router_unrouted_total");
  const std::uint64_t rejected_before = rejected.value();
  const std::uint64_t unrouted_before = unrouted.value();
  EXPECT_FALSE(router.try_submit(random_image(rng)).has_value());
  EXPECT_EQ(rejected.value() - rejected_before, 1u);
  EXPECT_EQ(unrouted.value() - unrouted_before, 1u);
}

TEST(Router, SwapModelBumpsGenerationAndKeepsAnswering) {
  const core::Predictor p = make_predictor(9);
  const core::Predictor next = make_predictor(10);  // "new model version"
  serve::Router router(p, sync_config(2));
  util::Rng rng(11);
  const Tensor image = random_image(rng);
  auto first = router.try_submit(image);
  ASSERT_TRUE(first.has_value());
  first->get();

  router.swap_model(0, next);
  EXPECT_EQ(router.replica(0).state(), serve::ServerState::kServing);
  EXPECT_EQ(router.replica(0).generation(), 2);
  EXPECT_EQ(router.replica(1).generation(), 1);

  // The swapped replica serves the NEW model: route to it until it
  // answers, then compare with the new predictor's direct answer.
  const auto want =
      next.classify_batch(image.reshaped(Shape{1, 32, 32, 3})).front().label;
  const std::int64_t before = router.replica(0).stats().requests;
  while (router.replica(0).stats().requests == before) {
    auto future = router.try_submit(image);
    ASSERT_TRUE(future.has_value());
    if (router.replica(0).stats().requests > before)
      EXPECT_EQ(future->get().label, want);
    else
      future->get();
  }
}

// Stats survive the swap: generations accumulate instead of resetting.
TEST(Router, ReplicaStatsAccumulateAcrossGenerations) {
  const core::Predictor p = make_predictor(12);
  serve::RouterConfig cfg = sync_config(1);
  serve::Router router(p, cfg);
  util::Rng rng(13);
  const Tensor image = random_image(rng);
  for (int i = 0; i < 3; ++i) router.try_submit(image)->get();
  EXPECT_EQ(router.replica(0).stats().requests, 3);
  router.swap_model(0, p);
  for (int i = 0; i < 2; ++i) router.try_submit(image)->get();
  EXPECT_EQ(router.replica(0).stats().requests, 5)
      << "stats must accumulate across generations";
  EXPECT_EQ(router.stats().requests, 5);
}

// kShed is terminal and counted exactly once: a max_depth-0 watermark on
// a two-replica fleet must not retry (and double-count) on the second
// replica.
TEST(Router, ShedIsTerminalAndCountedOnce) {
  const core::Predictor p = make_predictor(14);
  serve::RouterConfig cfg;
  cfg.replicas = 2;
  cfg.batcher.workers = 1;
  serve::Router router(p, cfg);
  util::Rng rng(15);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t before = rejected.value();
  for (int i = 0; i < 5; ++i)
    EXPECT_FALSE(router.try_submit(random_image(rng), 0).has_value());
  EXPECT_EQ(rejected.value() - before, 5u)
      << "each shed attempt must count exactly one rejection fleet-wide";
}

// Replica-level admission is tri-state: a non-serving replica answers
// kUnavailable (not kShed), counts nothing and leaves the image intact for
// the Router to place elsewhere.
TEST(Router, ReplicaUnavailableLeavesImageIntact) {
  const core::Predictor p = make_predictor(16);
  serve::Router router(p, sync_config(1));
  router.drain(0);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t before = rejected.value();
  util::Rng rng(17);
  Tensor image = random_image(rng);
  const float first = image[0];
  const auto result = serve::ReplicaTestPeer::admit(router.replica(0), image);
  EXPECT_EQ(result.admission, serve::ReplicaTestPeer::Admission::kUnavailable);
  EXPECT_FALSE(result.future.valid());
  ASSERT_EQ(image.numel(), 32 * 32 * 3) << "image must not be moved-from";
  EXPECT_EQ(image[0], first);
  EXPECT_EQ(rejected.value(), before)
      << "an unavailable replica leaves the ledger to the Router";
}

// Per-replica metric families ride the same call sites as the global
// family: traffic through replica N lands in bcop_serve_replica<N>_*.
TEST(Router, PerReplicaMetricFamiliesRecord) {
  const core::Predictor p = make_predictor(18);
  serve::Router router(p, sync_config(2));
  obs::Counter& r0 = obs::Registry::global().counter(
      "bcop_serve_replica0_submitted_total");
  obs::Counter& r1 = obs::Registry::global().counter(
      "bcop_serve_replica1_submitted_total");
  obs::Counter& fleet =
      obs::Registry::global().counter("bcop_serve_submitted_total");
  const std::uint64_t r0_before = r0.value();
  const std::uint64_t r1_before = r1.value();
  const std::uint64_t fleet_before = fleet.value();
  util::Rng rng(19);
  const Tensor image = random_image(rng);
  for (int i = 0; i < 4; ++i) router.try_submit(image)->get();
  EXPECT_EQ((r0.value() - r0_before) + (r1.value() - r1_before), 4u)
      << "every submission must land in exactly one per-replica family";
  EXPECT_EQ(fleet.value() - fleet_before, 4u)
      << "and once in the fleet-wide family";
}

// --- Confidence tiering -----------------------------------------------------
// One fast replica (cap M = 1) and one full-depth replica over a µ-CNV
// trained at M = 3. Awaiting each future before the next submit, and
// draining the fast replica (which joins the workers that escalate)
// before reading the escalation counter, makes escalation and the
// exactly-once accounting plain assertions.

core::Predictor make_residual_predictor(std::uint64_t seed) {
  return core::Predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, seed,
                      /*residual_levels=*/3));
}

serve::RouterConfig sync_tiered(float margin_threshold) {
  serve::RouterConfig cfg = sync_config(2);
  cfg.fast_replicas = 1;
  cfg.margin_threshold = margin_threshold;
  return cfg;
}

/// Ground truth for one image at a residual level cap: a replicate()d
/// clone capped with set_serve_levels, classified directly.
core::Predictor::Result classify_at(const core::Predictor& prototype,
                                    const Tensor& image, std::int64_t cap) {
  core::Predictor capped = prototype.replicate();
  capped.set_serve_levels(cap);
  return capped.classify_batch(image.reshaped(Shape{1, 32, 32, 3})).front();
}

struct TieredCounters {
  obs::Counter& escalated = obs::Registry::global().counter(
      "bcop_serve_escalated_total");
  obs::Counter& degraded = obs::Registry::global().counter(
      "bcop_serve_degraded_total");
  obs::Counter& rejected = obs::Registry::global().counter(
      "bcop_serve_rejected_total");
  const std::uint64_t escalated0 = escalated.value();
  const std::uint64_t degraded0 = degraded.value();
  const std::uint64_t rejected0 = rejected.value();
};

// Wide-margin traffic must never touch the full-depth replica: a threshold
// of 0 accepts every margin, so each request costs exactly one M = 1 pass
// and the answer is bit-identical to serving the capped clone directly.
TEST(Tiered, WideMarginResolvesInLowTierOnly) {
  const core::Predictor p = make_residual_predictor(40);
  serve::Router router(p, sync_tiered(0.f));
  TieredCounters c;
  util::Rng rng(41);
  for (int i = 0; i < 4; ++i) {
    const Tensor image = random_image(rng);
    auto future = router.try_submit(image);
    ASSERT_TRUE(future.has_value()) << i;
    const auto got = future->get();
    const auto want = classify_at(p, image, 1);
    EXPECT_EQ(got.label, want.label) << i;
    for (std::size_t k = 0; k < got.scores.size(); ++k)
      EXPECT_EQ(got.scores[k], want.scores[k]) << i << " class " << k;
  }
  EXPECT_EQ(c.escalated.value() - c.escalated0, 0u);
  EXPECT_EQ(router.replica(1).stats().requests, 0)
      << "no request may reach the full-depth replica below the threshold";
  EXPECT_EQ(router.replica(0).stats().requests, 4);
}

// A low-margin input is provably RE-SERVED at full depth: it costs one
// request on EACH replica, the escalation counter moves exactly once per
// request, and the answer is bit-identical to the full-depth M = 3
// classification -- which differs from the M = 1 answer, proving the two
// passes really ran at different depths.
TEST(Tiered, LowMarginEscalatesToFullDepthExactlyOnce) {
  const core::Predictor p = make_residual_predictor(42);
  // margin <= 1 < 2: every request is "low margin" and must escalate.
  serve::Router router(p, sync_tiered(2.f));
  TieredCounters c;
  util::Rng rng(43);
  bool depths_distinguished = false;
  for (int i = 0; i < 6; ++i) {
    const Tensor image = random_image(rng);
    auto future = router.try_submit(image);
    ASSERT_TRUE(future.has_value()) << i;
    const auto got = future->get();
    const auto deep = classify_at(p, image, 3);
    const auto shallow = classify_at(p, image, 1);
    for (std::size_t k = 0; k < got.scores.size(); ++k) {
      EXPECT_EQ(got.scores[k], deep.scores[k])
          << i << " class " << k << ": answer must be the M = 3 result";
      if (deep.scores[k] != shallow.scores[k]) depths_distinguished = true;
    }
  }
  EXPECT_TRUE(depths_distinguished)
      << "M = 1 and M = 3 scores never differed, so the test cannot tell "
         "the tiers apart";
  router.drain(0);  // an escalation counts after the hand-off is placed
  EXPECT_EQ(c.escalated.value() - c.escalated0, 6u)
      << "each low-margin request escalates exactly once";
  EXPECT_EQ(c.degraded.value() - c.degraded0, 0u);
  EXPECT_EQ(router.replica(0).stats().requests, 6)
      << "escalation re-serves; it does not bypass the fast replica";
  EXPECT_EQ(router.replica(1).stats().requests, 6)
      << "each escalated request is served exactly once at depth";
}

// With the full-depth replica drained, every escalation degrades to the
// fast replica's answer instead of failing: the client future still
// resolves, with the M = 1 result, and nothing counts as a rejection.
TEST(Tiered, EscalationShedDegradesToLowTierAnswer) {
  const core::Predictor p = make_residual_predictor(44);
  serve::Router router(p, sync_tiered(2.f));  // always try to escalate
  router.drain(1);
  TieredCounters c;
  util::Rng rng(45);
  for (int i = 0; i < 3; ++i) {
    const Tensor image = random_image(rng);
    auto future = router.try_submit(image);
    ASSERT_TRUE(future.has_value())
        << i << ": a degraded escalation must not become a client-visible 503";
    const auto got = future->get();
    const auto want = classify_at(p, image, 1);
    for (std::size_t k = 0; k < got.scores.size(); ++k)
      EXPECT_EQ(got.scores[k], want.scores[k]) << i << " class " << k;
  }
  EXPECT_EQ(c.escalated.value() - c.escalated0, 0u);
  EXPECT_EQ(c.degraded.value() - c.degraded0, 3u);
  EXPECT_EQ(c.rejected.value() - c.rejected0, 0u)
      << "the client got a 200, so the ledger must not count a rejection";
  EXPECT_EQ(router.replica(1).stats().requests, 0);
}

// A fast-replica admission shed is the client-visible 503 path and keeps
// the exactly-once rejection ledger, same as an untiered Router.
TEST(Tiered, LowTierShedIsClientVisibleAndCountedOnce) {
  const core::Predictor p = make_residual_predictor(46);
  serve::Router router(p, sync_tiered(2.f));
  TieredCounters c;
  util::Rng rng(47);
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(router.try_submit(random_image(rng), 0).has_value()) << i;
  EXPECT_EQ(c.rejected.value() - c.rejected0, 3u)
      << "each fast-replica shed counts exactly one rejection";
  EXPECT_EQ(router.stats().requests, 0)
      << "a shed request was never admitted to any replica";
  EXPECT_EQ(c.escalated.value() - c.escalated0, 0u);
  EXPECT_EQ(c.degraded.value() - c.degraded0, 0u);
}

// ~Router drains the fast replicas first, while the full-depth replica
// still serves, so a request still queued at teardown is escalated, not
// degraded. A one-second coalescing window keeps the three requests
// queued until the destructor's drain ships them.
TEST(Tiered, TeardownEscalatesQueuedRequests) {
  const core::Predictor p = make_residual_predictor(48);
  serve::RouterConfig cfg = sync_tiered(2.f);
  cfg.batcher.max_latency = std::chrono::seconds(1);
  auto router = std::make_unique<serve::Router>(p, cfg);
  TieredCounters c;
  util::Rng rng(49);
  std::vector<Tensor> images;
  std::vector<std::future<core::Predictor::Result>> futures;
  for (int i = 0; i < 3; ++i) {
    images.push_back(random_image(rng));
    auto future = router->try_submit(images.back());
    ASSERT_TRUE(future.has_value()) << i;
    futures.push_back(std::move(*future));
  }
  router.reset();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << i << ": teardown must resolve every accepted future";
    const auto got = futures[i].get();
    const auto deep = classify_at(p, images[i], 3);
    for (std::size_t k = 0; k < got.scores.size(); ++k)
      EXPECT_EQ(got.scores[k], deep.scores[k]) << i << " class " << k;
  }
  EXPECT_EQ(c.escalated.value() - c.escalated0, 3u);
  EXPECT_EQ(c.degraded.value() - c.degraded0, 0u)
      << "the full-depth replica must outlive the fast replica's drain";
}

}  // namespace
