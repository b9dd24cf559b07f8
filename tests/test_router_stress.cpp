// Concurrency hammering for the dispatcher/replica split, written for the
// ThreadSanitizer configuration (ctest -L stress): client tasks race
// try_submit against an administrator that drains and hot-swaps replicas
// mid-flight. Invariants under fire:
//
//   - every accepted future resolves with a value (drain never abandons
//     accepted work, swap never crosses responses between generations),
//   - accounting conserves: attempts == accepted + shed, and the replica
//     stats sum to exactly the accepted count (the Router never placed a
//     request onto a replica that did not record it),
//   - the fleet keeps answering while any replica is serving (zero
//     downtime across a rolling swap), and contention alone never turns
//     into a "no serving replica" rejection,
//   - a tiered fleet's hand-offs resolve every accepted future exactly
//     once, with a cap-1 or full-depth answer, even across swaps and
//     Router teardown.
//
// Client concurrency comes from parallel::ThreadPool (repo rule R2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;

Tensor random_image(util::Rng& rng) {
  Tensor image(Shape{32, 32, 3});
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return image;
}

struct ClientTally {
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t resolved = 0;  // accepted futures that delivered a value
  std::uint64_t failed = 0;    // accepted futures that threw
};

// Rolling hot-swap under client fire: an admin task swaps each replica
// round-robin while clients hammer try_submit. Nothing may be lost and
// nothing may fail -- a drained replica resolves its queue, the Router
// routes around it, and at least one replica is serving at all times
// (swaps are sequential).
TEST(RouterStress, RollingHotSwapLosesNothing) {
  const core::Predictor p(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 50));
  const core::Predictor next(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 51));

  serve::RouterConfig cfg;
  cfg.replicas = 3;
  cfg.batcher.workers = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.queue_capacity = 16;
  cfg.batcher.max_latency = std::chrono::microseconds(500);
  serve::Router router(p, cfg);

  const int kClients = 3;
  const int kSwapRounds = 2;
  std::vector<ClientTally> tallies(static_cast<std::size_t>(kClients));
  std::atomic<bool> swapping{true};

  parallel::ThreadPool pool(kClients + 1);
  pool.submit([&] {
    // Rolling deploy: drain+restart each replica in turn, twice. The
    // Router must keep placing on the other two the whole time.
    for (int round = 0; round < kSwapRounds; ++round)
      for (int i = 0; i < router.size(); ++i)
        router.swap_model(i, round % 2 ? p : next);
    swapping.store(false, std::memory_order_release);
  });
  for (int c = 0; c < kClients; ++c) {
    ClientTally* tally = &tallies[static_cast<std::size_t>(c)];
    pool.submit([&, tally, c] {
      util::Rng rng(static_cast<std::uint64_t>(300 + c));
      const Tensor image = random_image(rng);
      // Keep firing until the admin finishes, then a fixed coda so every
      // client records post-swap traffic too.
      int coda = 50;
      while (swapping.load(std::memory_order_acquire) || coda-- > 0) {
        ++tally->attempts;
        auto future = router.try_submit(image);
        if (!future.has_value()) {
          ++tally->shed;
          continue;
        }
        ++tally->accepted;
        try {
          future->get();
          ++tally->resolved;
        } catch (...) {
          ++tally->failed;
        }
      }
    });
  }
  pool.wait_idle();

  std::uint64_t attempts = 0, accepted = 0, shed = 0, resolved = 0,
                failed = 0;
  for (const ClientTally& t : tallies) {
    attempts += t.attempts;
    accepted += t.accepted;
    shed += t.shed;
    resolved += t.resolved;
    failed += t.failed;
  }
  EXPECT_GT(accepted, 0u) << "the fleet must keep serving across swaps";
  EXPECT_EQ(attempts, accepted + shed) << "tri-state admission conserves";
  EXPECT_EQ(resolved, accepted)
      << "every accepted future must deliver a value";
  EXPECT_EQ(failed, 0u);
  // Placement honesty: what the clients saw accepted is exactly what the
  // replicas recorded (across all generations) -- the Router never placed
  // work on a replica that was not serving it.
  EXPECT_EQ(router.stats().requests,
            static_cast<std::int64_t>(accepted));
  for (int i = 0; i < router.size(); ++i)
    EXPECT_EQ(router.replica(i).state(), serve::ServerState::kServing)
        << "replica " << i << " must finish the rolling swap serving";
}

// Drain races admission: clients hammer one replica while it drains.
// Every future accepted before the drain resolves, everything after is
// shed by the Router (counted), and nothing deadlocks.
TEST(RouterStress, DrainUnderFireResolvesAcceptedWork) {
  const core::Predictor p(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 52));
  serve::RouterConfig cfg;
  cfg.replicas = 1;
  cfg.batcher.workers = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_latency = std::chrono::microseconds(500);
  serve::Router router(p, cfg);

  const int kClients = 3;
  std::vector<ClientTally> tallies(static_cast<std::size_t>(kClients));
  std::atomic<bool> go{false};

  parallel::ThreadPool pool(kClients + 1);
  for (int c = 0; c < kClients; ++c) {
    ClientTally* tally = &tallies[static_cast<std::size_t>(c)];
    pool.submit([&, tally, c] {
      util::Rng rng(static_cast<std::uint64_t>(400 + c));
      const Tensor image = random_image(rng);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 60; ++i) {
        ++tally->attempts;
        auto future = router.try_submit(image);
        if (!future.has_value()) {
          ++tally->shed;
          continue;
        }
        ++tally->accepted;
        try {
          future->get();
          ++tally->resolved;
        } catch (...) {
          ++tally->failed;
        }
      }
    });
  }
  pool.submit([&] {
    go.store(true, std::memory_order_release);
    router.drain(0);
  });
  pool.wait_idle();

  EXPECT_EQ(router.replica(0).state(), serve::ServerState::kStopped);
  std::uint64_t attempts = 0, accepted = 0, shed = 0, resolved = 0,
                failed = 0;
  for (const ClientTally& t : tallies) {
    attempts += t.attempts;
    accepted += t.accepted;
    shed += t.shed;
    resolved += t.resolved;
    failed += t.failed;
  }
  EXPECT_EQ(attempts, accepted + shed);
  EXPECT_EQ(resolved, accepted)
      << "drain must resolve every accepted future, never abandon one";
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(router.stats().requests, static_cast<std::int64_t>(accepted));
}

// Contention is not an outage: one serving replica with a queue roomier
// than the client count, three closed-loop clients and a task polling
// the fleet depth. Every lock the admission path takes is contended, yet
// every attempt must be accepted -- neither the "no serving replica"
// counter nor the rejection ledger may move.
TEST(RouterStress, ContentionIsNotAnOutage) {
  const core::Predictor p(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 53));
  serve::RouterConfig cfg;
  cfg.replicas = 1;
  cfg.batcher.workers = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.queue_capacity = 64;
  cfg.batcher.max_latency = std::chrono::microseconds(200);
  serve::Router router(p, cfg);

  obs::Counter& unrouted =
      obs::Registry::global().counter("bcop_serve_router_unrouted_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t unrouted0 = unrouted.value();
  const std::uint64_t rejected0 = rejected.value();

  const int kClients = 3;
  const int kPerClient = 150;
  std::vector<ClientTally> tallies(static_cast<std::size_t>(kClients));
  std::atomic<int> running{kClients};
  std::atomic<std::uint64_t> probes{0};

  parallel::ThreadPool pool(kClients + 1);
  pool.submit([&] {
    while (running.load(std::memory_order_acquire) > 0) {
      (void)router.queue_depth();
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int c = 0; c < kClients; ++c) {
    ClientTally* tally = &tallies[static_cast<std::size_t>(c)];
    pool.submit([&, tally, c] {
      util::Rng rng(static_cast<std::uint64_t>(500 + c));
      const Tensor image = random_image(rng);
      for (int i = 0; i < kPerClient; ++i) {
        ++tally->attempts;
        auto future = router.try_submit(image);
        if (!future.has_value()) {
          ++tally->shed;
          continue;
        }
        ++tally->accepted;
        future->get();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  pool.wait_idle();

  std::uint64_t attempts = 0, accepted = 0, shed = 0;
  for (const ClientTally& t : tallies) {
    attempts += t.attempts;
    accepted += t.accepted;
    shed += t.shed;
  }
  EXPECT_GT(probes.load(), 0u);
  EXPECT_EQ(attempts, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(shed, 0u) << "a busy replica is not a missing replica";
  EXPECT_EQ(accepted, attempts);
  EXPECT_EQ(unrouted.value() - unrouted0, 0u);
  EXPECT_EQ(rejected.value() - rejected0, 0u);
}

// Tiered hand-off under fire: a threaded fleet of two fast replicas and
// one full-depth replica at threshold 2, so every fast answer is handed
// off. Clients keep a few requests in flight while an admin rolls
// swap_model over every replica (the full-depth swap degrades what is
// handed off meanwhile); then the Router is destroyed with accepted
// requests still queued or mid-hand-off.
TEST(RouterStress, TieredHandoffResolvesEveryFutureOnce) {
  using Result = core::Predictor::Result;
  const core::Predictor p(core::build_bnn(core::ArchitectureId::kMicroCnv,
                                          54, /*residual_levels=*/3));
  constexpr int kImages = 6;
  core::Predictor capped = p.replicate();
  capped.set_serve_levels(1);
  std::vector<Tensor> images;
  std::vector<Result> low, deep;
  util::Rng rng(55);
  for (int i = 0; i < kImages; ++i) {
    images.push_back(random_image(rng));
    const Tensor one = images.back().reshaped(Shape{1, 32, 32, 3});
    low.push_back(capped.classify_batch(one).front());
    deep.push_back(p.classify_batch(one).front());
  }
  const auto same = [](const Result& a, const Result& b) {
    return a.label == b.label && a.scores == b.scores;
  };

  serve::RouterConfig cfg;
  cfg.replicas = 3;
  cfg.fast_replicas = 2;
  cfg.margin_threshold = 2.f;
  cfg.batcher.workers = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.queue_capacity = 4;
  cfg.batcher.max_latency = std::chrono::microseconds(500);
  auto router = std::make_unique<serve::Router>(p, cfg);

  obs::Counter& degraded =
      obs::Registry::global().counter("bcop_serve_degraded_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t degraded0 = degraded.value();
  const std::uint64_t rejected0 = rejected.value();

  struct Pending {
    int image;
    std::future<Result> future;
  };
  struct Client {
    std::uint64_t shed = 0;
    std::deque<Pending> pending;                // still in flight at the end
    std::vector<std::pair<int, Result>> answers;  // resolved while running
  };
  const int kClients = 3;
  std::vector<Client> clients(static_cast<std::size_t>(kClients));
  std::atomic<bool> swapping{true};
  {
    parallel::ThreadPool pool(kClients + 1);
    pool.submit([&] {
      for (int i = 0; i < router->size(); ++i) router->swap_model(i, p);
      swapping.store(false, std::memory_order_release);
    });
    for (int c = 0; c < kClients; ++c) {
      Client* client = &clients[static_cast<std::size_t>(c)];
      pool.submit([&, client, c] {
        const auto settle_oldest = [client] {
          Pending& oldest = client->pending.front();
          client->answers.emplace_back(oldest.image, oldest.future.get());
          client->pending.pop_front();
        };
        for (int k = 0; swapping.load(std::memory_order_acquire) || k < 40;
             ++k) {
          const int image = (c + k) % kImages;
          auto future =
              router->try_submit(images[static_cast<std::size_t>(image)]);
          if (future.has_value())
            client->pending.push_back({image, std::move(*future)});
          else
            ++client->shed;
          // Shed or deep enough in flight: wait for the oldest answer.
          if (!client->pending.empty() &&
              (!future.has_value() || client->pending.size() > 6))
            settle_oldest();
        }
      });
    }
    pool.wait_idle();
  }
  router.reset();  // teardown with accepted work queued or mid-hand-off

  std::uint64_t shed = 0, accepted = 0, low_only = 0;
  std::vector<std::pair<int, Result>> answers;
  for (Client& client : clients) {
    shed += client.shed;
    accepted += client.answers.size() + client.pending.size();
    answers.insert(answers.end(), client.answers.begin(), client.answers.end());
    for (Pending& pending : client.pending) {
      ASSERT_EQ(pending.future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "~Router must resolve every accepted future";
      answers.emplace_back(pending.image, pending.future.get());
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(answers.size(), accepted) << "every accepted future resolves";
  bool depths_distinguished = false;
  for (int i = 0; i < kImages; ++i)
    if (!same(low[static_cast<std::size_t>(i)],
              deep[static_cast<std::size_t>(i)]))
      depths_distinguished = true;
  ASSERT_TRUE(depths_distinguished)
      << "cap-1 and full-depth answers never differ; the test is blind";
  for (const auto& [image, got] : answers) {
    const auto i = static_cast<std::size_t>(image);
    EXPECT_TRUE(same(got, low[i]) || same(got, deep[i]))
        << "image " << image << ": neither the cap-1 nor the full answer";
    if (same(got, low[i]) && !same(got, deep[i])) ++low_only;
  }
  EXPECT_EQ(rejected.value() - rejected0, shed)
      << "rejected_total must equal the nullopt count";
  EXPECT_LE(low_only, degraded.value() - degraded0)
      << "a low-only answer reached a client without being degraded";
}

}  // namespace
