// Concurrency hammering for the BatchingServer, written to run under
// ThreadSanitizer (the `stress` ctest label; see docs/static-analysis.md).
// Client threads come from parallel::ThreadPool -- repo rule R2 keeps raw
// std::thread out of test code too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batcher.hpp"
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

/// Admit `image` and return its future; the tests size their queues so a
/// closed-loop client never sheds.
std::future<core::Predictor::Result> submit(serve::BatchingServer& server,
                                            Tensor image) {
  serve::BatchingServer::Admitted a = server.try_submit(image);
  EXPECT_EQ(a.admission, serve::BatchingServer::Admission::kAccepted);
  return std::move(a.future);
}

// Several client threads race submissions against a smaller worker pool.
// Every future must resolve to the same label the predictor gives the same
// image directly -- responses may never be crossed between requests.
TEST(ServeStress, ConcurrentClientsGetCorrectAnswers) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 41));

  const int kImages = 4;
  std::vector<Tensor> images;
  std::vector<facegen::MaskClass> expected;
  util::Rng rng(42);
  for (int i = 0; i < kImages; ++i) {
    images.push_back(random_image(rng));
    expected.push_back(
        predictor
            .classify_batch(images.back().reshaped(Shape{1, 32, 32, 3}))
            .front()
            .label);
  }

  serve::BatcherConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 8;
  cfg.queue_capacity = 16;
  cfg.max_latency = std::chrono::microseconds(1000);
  serve::BatchingServer server(predictor, cfg);

  const int kClients = 4;
  const int kPerClient = 25;
  std::atomic<int> mismatches{0};
  parallel::ThreadPool clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.submit([&, c] {
      util::Rng pick(static_cast<std::uint64_t>(100 + c));
      for (int i = 0; i < kPerClient; ++i) {
        const auto j =
            static_cast<std::size_t>(pick.uniform_int(0, kImages - 1));
        auto result = submit(server, images[j]).get();
        if (result.label != expected[j]) mismatches.fetch_add(1);
      }
    });
  }
  clients.wait_idle();

  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_GE(stats.batches, (kClients * kPerClient) / cfg.max_batch);
  EXPECT_LE(stats.max_batch_seen, cfg.max_batch);
}

// A single worker with a generous coalescing window must merge a quick
// burst into one batch instead of classifying image by image.
TEST(ServeStress, CoalescingWindowMergesBurst) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 43));
  util::Rng rng(44);

  serve::BatcherConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.queue_capacity = 8;
  cfg.max_latency = std::chrono::microseconds(2'000'000);
  serve::BatchingServer server(predictor, cfg);

  std::vector<std::future<core::Predictor::Result>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(submit(server, random_image(rng)));
  for (auto& f : futures) f.get();  // window closes early once the batch fills

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_GE(stats.max_batch_seen, 2);
  EXPECT_GE(stats.coalesced, 2);
  EXPECT_LE(stats.batches, 3);
}

// Tiny bounded queue, eager (zero-latency) worker, more clients than
// queue slots: try_submit must shed (never block or drop) when the queue
// is full, each shed counts exactly one rejection, and every accepted
// request is answered -- clients that retry until accepted all finish.
TEST(ServeStress, TinyQueueShedsWithoutLoss) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 45));

  serve::BatcherConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  cfg.queue_capacity = 2;
  cfg.max_latency = std::chrono::microseconds(0);
  serve::BatchingServer server(predictor, cfg);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t rejected0 = rejected.value();

  const int kClients = 4;
  const int kPerClient = 10;
  std::atomic<int> answered{0};
  std::atomic<std::uint64_t> shed{0};
  parallel::ThreadPool clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.submit([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(200 + c));
      for (int i = 0; i < kPerClient; ++i) {
        Tensor image = random_image(rng);
        for (;;) {
          serve::BatchingServer::Admitted a = server.try_submit(image);
          if (a.admission == serve::BatchingServer::Admission::kAccepted) {
            a.future.get();
            break;
          }
          EXPECT_EQ(a.admission, serve::BatchingServer::Admission::kShed);
          shed.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }
  clients.wait_idle();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(server.stats().requests, kClients * kPerClient);
  EXPECT_EQ(rejected.value() - rejected0, shed.load());
}

}  // namespace
