// Serving-layer tests: batch invariance of the bit-domain batched path
// (classifying images together must give exactly the same answers as
// classifying them alone) and functional coverage of the request-coalescing
// BatchingServer. Heavier concurrency hammering lives in
// test_serve_stress.cpp so it can run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "serve/batcher.hpp"
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

Tensor nth_image(const Tensor& batch, std::int64_t n) {
  const std::int64_t stride = batch.numel() / batch.shape()[0];
  Tensor image(Shape{1, batch.shape()[1], batch.shape()[2], batch.shape()[3]});
  std::memcpy(image.data(), batch.data() + n * stride,
              static_cast<std::size_t>(stride) * sizeof(float));
  return image;
}

/// Admit `image` and return its future; the tests below size their queues
/// so nothing sheds.
std::future<core::Predictor::Result> submit(serve::BatchingServer& server,
                                            Tensor image) {
  serve::BatchingServer::Admitted a = server.try_submit(image);
  EXPECT_EQ(a.admission, serve::BatchingServer::Admission::kAccepted);
  return std::move(a.future);
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
      const auto alone = p.classify_batch(nth_image(batch, i));
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
  serve::BatchingServer server(p, cfg);
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

TEST(Serve, SynchronousModeClassifiesInline) {
  const core::Predictor p = make_predictor(8);
  util::Rng rng(9);
  const Tensor batch = random_batch(3, rng);
  const auto direct = p.classify_batch(batch);

  serve::BatcherConfig cfg;
  cfg.workers = 0;
  serve::BatchingServer server(p, cfg);
  for (std::int64_t i = 0; i < 3; ++i) {
    auto future = submit(server, nth_image(batch, i));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "workers=0 must resolve synchronously";
    expect_same_result(future.get(), direct[static_cast<std::size_t>(i)], i);
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.batches, 3);
  EXPECT_EQ(stats.coalesced, 0);
}

TEST(Serve, SubmitAcceptsRank3AndSingletonRank4) {
  const core::Predictor p = make_predictor(10);
  util::Rng rng(11);
  const Tensor batch = random_batch(1, rng);

  serve::BatcherConfig cfg;
  cfg.workers = 1;
  serve::BatchingServer server(p, cfg);
  auto a = submit(server, batch);  // [1, 32, 32, 3]
  auto b = submit(server, batch.reshaped(Shape{32, 32, 3}));
  expect_same_result(a.get(), b.get(), 0);
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
    serve::BatchingServer server(p, cfg);
    Tensor image(shape);
    server.try_submit(image);
  };
  // Wrong spatial size for the served u-CNV (wants 32x32x3).
  EXPECT_DEATH(admit(Shape{8, 8, 3}), "does not match");
  // A real batch is not a request.
  EXPECT_DEATH(admit(Shape{2, 32, 32, 3}), "must be");
  EXPECT_DEATH(admit(Shape{32, 32}), "must be");
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
  serve::BatchingServer server(p, cfg);
  for (std::int64_t i = 0; i < 3; ++i) {
    Tensor image = nth_image(batch, i);
    serve::BatchingServer::Admitted a = server.try_submit(image);
    ASSERT_EQ(a.admission, serve::BatchingServer::Admission::kAccepted)
        << "image " << i;
    EXPECT_TRUE(image.empty()) << "an accepted image is moved into the queue";
    expect_same_result(a.future.get(), direct[static_cast<std::size_t>(i)], i);
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
  serve::BatchingServer server(p, cfg);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t before = rejected.value();
  for (int i = 0; i < 5; ++i) {
    serve::BatchingServer::Admitted a = server.try_submit(image, 0);
    EXPECT_EQ(a.admission, serve::BatchingServer::Admission::kShed);
    EXPECT_FALSE(a.future.valid());
  }
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
    serve::BatchingServer server(p, cfg);
    Tensor image(shape);
    server.try_submit(image, 0);
  };
  EXPECT_DEATH(admit(Shape{8, 8, 3}), "does not match");
  EXPECT_DEATH(admit(Shape{2, 32, 32, 3}), "must be");
}

// Synchronous mode has no queue to shed from: even a zero watermark is
// accepted, classified inline and resolved immediately.
TEST(Serve, TrySubmitSynchronousModeResolvesInline) {
  const core::Predictor p = make_predictor(35);
  util::Rng rng(36);
  Tensor image = nth_image(random_batch(1, rng), 0);
  serve::BatcherConfig cfg;
  cfg.workers = 0;
  serve::BatchingServer server(p, cfg);
  serve::BatchingServer::Admitted a = server.try_submit(image, 0);
  ASSERT_EQ(a.admission, serve::BatchingServer::Admission::kAccepted);
  EXPECT_EQ(a.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
}

TEST(Serve, QueueDepthReflectsPendingRequests) {
  const core::Predictor p = make_predictor(37);
  serve::BatcherConfig cfg;
  cfg.workers = 1;
  serve::BatchingServer server(p, cfg);
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
// throws nor hands out a future. It reports kUnavailable with the image
// intact and counts nothing, so a Router can place the request elsewhere
// and books the 503 itself. Threaded and synchronous servers agree.
TEST(Serve, SubmitAfterShutdownReturnsRejectedFuture) {
  const core::Predictor p = make_predictor(40);
  util::Rng rng(41);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  for (unsigned workers : {1u, 0u}) {
    serve::BatcherConfig cfg;
    cfg.workers = workers;
    serve::BatchingServer server(p, cfg);
    server.drain();

    Tensor image = nth_image(random_batch(1, rng), 0);
    const float first = image[0];
    const std::uint64_t before = rejected.value();
    serve::BatchingServer::Admitted a;
    EXPECT_NO_THROW(a = server.try_submit(image)) << "workers=" << workers;
    EXPECT_EQ(a.admission, serve::BatchingServer::Admission::kUnavailable)
        << "workers=" << workers;
    EXPECT_FALSE(a.future.valid()) << "workers=" << workers;
    ASSERT_EQ(image.numel(), 32 * 32 * 3) << "image must not be moved-from";
    EXPECT_EQ(image[0], first);
    EXPECT_EQ(rejected.value(), before) << "workers=" << workers;
    EXPECT_EQ(server.stats().requests, 0) << "workers=" << workers;
  }
}

// drain() is idempotent and the destructor tolerates an explicit call
// having happened first.
TEST(Serve, ShutdownIsIdempotent) {
  const core::Predictor p = make_predictor(42);
  serve::BatcherConfig cfg;
  cfg.workers = 2;
  serve::BatchingServer server(p, cfg);
  server.drain();
  server.drain();  // second call must be a no-op, not a hang or crash
  EXPECT_EQ(server.state(), serve::ServerState::kStopped);
}

// Every future accepted before drain() still resolves: shutdown drains.
TEST(Serve, ShutdownDrainsAcceptedRequests) {
  const core::Predictor p = make_predictor(43);
  util::Rng rng(44);
  const Tensor batch = random_batch(6, rng);
  serve::BatcherConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  serve::BatchingServer server(p, cfg);
  std::vector<std::future<core::Predictor::Result>> futures;
  for (std::int64_t i = 0; i < 6; ++i)
    futures.push_back(submit(server, nth_image(batch, i)));
  server.drain();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// Predictor::replicate: the deployment clone classifies identically but
// owns nothing of the training graph.
TEST(Serve, ReplicatedPredictorClassifiesIdentically) {
  const core::Predictor p = make_predictor(45);
  const core::Predictor clone = p.replicate();
  EXPECT_EQ(clone.model().size(), 0u)
      << "replicas serve the folded net only; the float graph stays home";
  EXPECT_EQ(clone.network().expected_input_shape(),
            p.network().expected_input_shape());
  util::Rng rng(46);
  const Tensor batch = random_batch(5, rng);
  const auto a = p.classify_batch(batch);
  const auto b = clone.classify_batch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_same_result(a[i], b[i], static_cast<std::int64_t>(i));
}

// End to end with rendered faces: the server answers exactly what
// Predictor::classify answers for the same image.
TEST(Serve, ServerAgreesWithClassifyOnFaces) {
  const core::Predictor p = make_predictor(13);
  serve::BatcherConfig cfg;
  cfg.workers = 2;
  serve::BatchingServer server(p, cfg);
  std::vector<util::Image> faces;
  std::vector<std::future<core::Predictor::Result>> futures;
  for (int i = 0; i < 4; ++i) {
    util::Rng rng(static_cast<std::uint64_t>(20 + i));
    faces.push_back(
        facegen::render_face(
            facegen::sample_attributes(static_cast<facegen::MaskClass>(i), rng))
            .image);
    futures.push_back(submit(
        server, facegen::MaskedFaceDataset::image_to_tensor(faces.back())));
  }
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().label,
              p.classify(faces[static_cast<std::size_t>(i)]).label)
        << "face " << i;
}

}  // namespace
