// Serving-layer tests: batch invariance of the bit-domain batched path
// (classifying images together must give exactly the same answers as
// classifying them alone) and functional coverage of the request-coalescing
// BatchingServer, driven through a one-replica Router (its only admission
// call). Heavier concurrency hammering lives in test_serve_stress.cpp so it
// can run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <optional>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "serve/batcher.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;

core::Predictor make_predictor(std::uint64_t seed) {
  return core::Predictor(core::build_bnn(core::ArchitectureId::kMicroCnv, seed));
}

Tensor random_batch(std::int64_t n, util::Rng& rng) {
  Tensor batch(Shape{n, 32, 32, 3});
  for (std::int64_t i = 0; i < batch.numel(); ++i)
    batch[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return batch;
}

/// Row `n` of `batch` as one [S, S, C] request image.
Tensor nth_image(const Tensor& batch, std::int64_t n) {
  const std::int64_t stride = batch.numel() / batch.shape()[0];
  Tensor image(Shape{batch.shape()[1], batch.shape()[2], batch.shape()[3]});
  std::memcpy(image.data(), batch.data() + n * stride,
              static_cast<std::size_t>(stride) * sizeof(float));
  return image;
}

/// A fleet of one BatchingServer built from `cfg`.
serve::RouterConfig one_replica(const serve::BatcherConfig& cfg) {
  serve::RouterConfig rcfg;
  rcfg.replicas = 1;
  rcfg.batcher = cfg;
  return rcfg;
}

/// Admit `image` and return its future; the tests below size their queues
/// so nothing sheds.
std::future<core::Predictor::Result> submit(serve::Router& server,
                                            Tensor image) {
  auto future = server.try_submit(std::move(image));
  EXPECT_TRUE(future.has_value());
  return std::move(future).value();
}

void expect_same_result(const core::Predictor::Result& a,
                        const core::Predictor::Result& b,
                        std::int64_t image) {
  EXPECT_EQ(a.label, b.label) << "image " << image;
  for (std::size_t c = 0; c < a.scores.size(); ++c)
    EXPECT_FLOAT_EQ(a.scores[c], b.scores[c])
        << "image " << image << " class " << c;
}

TEST(Serve, ExpectedInputShapeInferredFromTopology) {
  const core::Predictor p = make_predictor(1);
  EXPECT_EQ(p.network().expected_input_shape(), (Shape{32, 32, 3}));
}

// classify_batch(concat(images)) == concat(classify(image)) -- the batched
// bit-domain path must be invariant to how requests are grouped. Odd batch
// sizes exercise the sub-word padding lanes of the packed representation.
TEST(Serve, BatchInvarianceForOddSizes) {
  const core::Predictor p = make_predictor(2);
  util::Rng rng(3);
  for (const std::int64_t n : {1, 3, 7, 17}) {
    const Tensor batch = random_batch(n, rng);
    const auto together = p.classify_batch(batch);
    ASSERT_EQ(together.size(), static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const auto alone =
          p.classify_batch(nth_image(batch, i).reshaped(Shape{1, 32, 32, 3}));
      ASSERT_EQ(alone.size(), 1u);
      expect_same_result(together[static_cast<std::size_t>(i)], alone[0], i);
    }
  }
}

TEST(Serve, ConcatenationProperty) {
  const core::Predictor p = make_predictor(4);
  util::Rng rng(5);
  const Tensor a = random_batch(3, rng);
  const Tensor b = random_batch(7, rng);
  Tensor ab(Shape{10, 32, 32, 3});
  std::memcpy(ab.data(), a.data(),
              static_cast<std::size_t>(a.numel()) * sizeof(float));
  std::memcpy(ab.data() + a.numel(), b.data(),
              static_cast<std::size_t>(b.numel()) * sizeof(float));

  const auto ra = p.classify_batch(a);
  const auto rb = p.classify_batch(b);
  const auto rab = p.classify_batch(ab);
  ASSERT_EQ(rab.size(), ra.size() + rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    expect_same_result(rab[i], ra[i], static_cast<std::int64_t>(i));
  for (std::size_t i = 0; i < rb.size(); ++i)
    expect_same_result(rab[ra.size() + i], rb[i],
                       static_cast<std::int64_t>(ra.size() + i));
}

// More requests than workers: every future resolves and matches the direct
// classify_batch answer for the same image.
TEST(Serve, ServerMatchesDirectClassification) {
  const core::Predictor p = make_predictor(6);
  util::Rng rng(7);
  const std::int64_t kRequests = 17;
  const Tensor batch = random_batch(kRequests, rng);
  const auto direct = p.classify_batch(batch);

  serve::BatcherConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  serve::Router server(p, one_replica(cfg));
  std::vector<std::future<core::Predictor::Result>> futures;
  for (std::int64_t i = 0; i < kRequests; ++i)
    futures.push_back(submit(server, nth_image(batch, i)));
  for (std::int64_t i = 0; i < kRequests; ++i)
    expect_same_result(futures[static_cast<std::size_t>(i)].get(),
                       direct[static_cast<std::size_t>(i)], i);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.max_batch_seen, cfg.max_batch);
}

// A mis-shaped image fails the same contract check classify_batch
// enforces, instead of becoming a fourth admission outcome every caller
// must handle. The server is built inside each death statement so the
// forked child owns its workers.
TEST(Serve, SubmitRejectsMismatchedImages) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const core::Predictor p = make_predictor(12);
  serve::BatcherConfig cfg;
  cfg.workers = 1;
  const auto admit = [&](Shape shape) {
    serve::Router server(p, one_replica(cfg));
    server.try_submit(Tensor(shape));
  };
  // Wrong spatial size for the served u-CNV (wants 32x32x3).
  EXPECT_DEATH(admit(Shape{8, 8, 3}), "does not match");
  // A batch is not a request, not even a batch of one.
  EXPECT_DEATH(admit(Shape{2, 32, 32, 3}), "does not match");
  EXPECT_DEATH(admit(Shape{1, 32, 32, 3}), "does not match");
  EXPECT_DEATH(admit(Shape{32, 32}), "does not match");
}

// try_submit under capacity: a future that resolves to the same answer as
// direct classification.
TEST(Serve, TrySubmitAdmitsUnderCapacity) {
  const core::Predictor p = make_predictor(30);
  util::Rng rng(31);
  const Tensor batch = random_batch(3, rng);
  const auto direct = p.classify_batch(batch);

  serve::BatcherConfig cfg;
  cfg.workers = 1;
  serve::Router server(p, one_replica(cfg));
  for (std::int64_t i = 0; i < 3; ++i) {
    auto future = server.try_submit(nth_image(batch, i));
    ASSERT_TRUE(future.has_value()) << "image " << i;
    expect_same_result(future->get(), direct[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(server.stats().requests, 3);
}

// max_depth == 0 sheds every request deterministically (the queue depth,
// zero, is already at the watermark) and counts each rejection in
// bcop_serve_rejected_total -- the accounting the 503 path reconciles
// against in tests/test_net_stress.cpp.
TEST(Serve, TrySubmitShedsAtWatermarkAndCountsRejections) {
  const core::Predictor p = make_predictor(32);
  util::Rng rng(33);
  Tensor image = nth_image(random_batch(1, rng), 0);

  serve::BatcherConfig cfg;
  cfg.workers = 1;
  serve::Router server(p, one_replica(cfg));
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t before = rejected.value();
  for (int i = 0; i < 5; ++i)
    EXPECT_FALSE(server.try_submit(image, 0).has_value());
  EXPECT_EQ(rejected.value() - before, 5u);
  EXPECT_EQ(server.stats().requests, 0) << "shed requests never enqueue";

  // The watermark only gates admission; the next unconstrained try_submit
  // is served normally.
  submit(server, image).get();
}

// Shape validation is a caller bug, not load: even at a zero watermark,
// where every well-formed image sheds, a mis-shaped one fails the contract
// check instead of being reported as kShed.
TEST(Serve, TrySubmitRejectsMismatchedImages) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const core::Predictor p = make_predictor(34);
  serve::BatcherConfig cfg;
  cfg.workers = 1;
  const auto admit = [&](Shape shape) {
    serve::Router server(p, one_replica(cfg));
    server.try_submit(Tensor(shape), 0);
  };
  EXPECT_DEATH(admit(Shape{8, 8, 3}), "does not match");
  EXPECT_DEATH(admit(Shape{2, 32, 32, 3}), "does not match");
}

TEST(Serve, QueueDepthReflectsPendingRequests) {
  const core::Predictor p = make_predictor(37);
  serve::BatcherConfig cfg;
  cfg.workers = 1;
  serve::Router server(p, one_replica(cfg));
  EXPECT_EQ(server.queue_depth(), 0);
  // After draining every submitted request the depth returns to zero (a
  // non-zero transient is timing-dependent, so only the fixed points are
  // asserted).
  util::Rng rng(38);
  submit(server, nth_image(random_batch(1, rng), 0)).get();
  for (int spin = 0; spin < 1000 && server.queue_depth() != 0; ++spin) {
  }
  EXPECT_EQ(server.queue_depth(), 0);
}

// Lifecycle is never an exception: after drain(), try_submit() neither
// throws nor hands out a future. A fleet with no serving replica reports
// nullopt, and the Router books exactly one rejection for it.
TEST(Serve, SubmitAfterShutdownReturnsRejectedFuture) {
  const core::Predictor p = make_predictor(40);
  util::Rng rng(41);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  serve::BatcherConfig cfg;
  cfg.workers = 1;
  serve::Router server(p, one_replica(cfg));
  server.drain(0);

  const Tensor image = nth_image(random_batch(1, rng), 0);
  const std::uint64_t before = rejected.value();
  std::optional<std::future<core::Predictor::Result>> future;
  EXPECT_NO_THROW(future = server.try_submit(image));
  EXPECT_FALSE(future.has_value());
  EXPECT_EQ(rejected.value() - before, 1u);
  EXPECT_EQ(server.stats().requests, 0);
}

// drain() is idempotent and the destructor tolerates an explicit call
// having happened first.
TEST(Serve, ShutdownIsIdempotent) {
  const core::Predictor p = make_predictor(42);
  serve::BatcherConfig cfg;
  cfg.workers = 2;
  serve::Router server(p, one_replica(cfg));
  server.drain(0);
  server.drain(0);  // second call must be a no-op, not a hang or crash
  EXPECT_EQ(server.replica(0).state(), serve::ServerState::kStopped);
}

// Every future accepted before drain() still resolves: shutdown drains.
TEST(Serve, ShutdownDrainsAcceptedRequests) {
  const core::Predictor p = make_predictor(43);
  util::Rng rng(44);
  const Tensor batch = random_batch(6, rng);
  serve::BatcherConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  serve::Router server(p, one_replica(cfg));
  std::vector<std::future<core::Predictor::Result>> futures;
  for (std::int64_t i = 0; i < 6; ++i)
    futures.push_back(submit(server, nth_image(batch, i)));
  server.drain(0);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// End to end with rendered faces: the server answers exactly what
// Predictor::classify answers for the same image.
TEST(Serve, ServerAgreesWithClassifyOnFaces) {
  const core::Predictor p = make_predictor(13);
  serve::BatcherConfig cfg;
  cfg.workers = 2;
  serve::Router server(p, one_replica(cfg));
  std::vector<util::Image> faces;
  std::vector<std::future<core::Predictor::Result>> futures;
  for (int i = 0; i < 4; ++i) {
    util::Rng rng(static_cast<std::uint64_t>(20 + i));
    faces.push_back(
        facegen::render_face(
            facegen::sample_attributes(static_cast<facegen::MaskClass>(i), rng))
            .image);
    futures.push_back(submit(
        server, facegen::MaskedFaceDataset::image_to_tensor(faces.back())
                    .reshaped(Shape{32, 32, 3})));
  }
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().label,
              p.classify(faces[static_cast<std::size_t>(i)]).label)
        << "face " << i;
}

}  // namespace
