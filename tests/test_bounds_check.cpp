// Contract-macro coverage: death tests for BCOP_CHECK (always on) and for
// the BCOP_DCHECK bounds checks that light up under -DBCOP_BOUNDS_CHECK=ON.
// In a default build the DCHECK cases are skipped, documenting that the
// accessors are intentionally unchecked there.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "nn/batchnorm.hpp"
#include "nn/binary_conv2d.hpp"
#include "nn/init.hpp"
#include "nn/sign_activation.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/router.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/image.hpp"
#include "util/rng.hpp"

namespace {

using bcop::tensor::BitMatrix;
using bcop::tensor::Shape;
using bcop::tensor::Tensor;

// Death tests re-execute the test body in a forked child; "threadsafe"
// keeps that correct even when a sanitizer runtime spawns threads.
const bool kDeathTestStyle = [] {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  return true;
}();

#if defined(BCOP_BOUNDS_CHECK) && BCOP_BOUNDS_CHECK
constexpr bool kBoundsChecked = true;
#else
constexpr bool kBoundsChecked = false;
#endif

#define SKIP_UNLESS_BOUNDS_CHECKED()                                   \
  if (!kBoundsChecked)                                                 \
  GTEST_SKIP() << "accessor intentionally unchecked without BCOP_BOUNDS_CHECK"

// --- BCOP_CHECK: active in every build type -------------------------------

TEST(CheckMacroDeathTest, CheckFiresWithFormattedMessage) {
  const std::int64_t bad = -3;
  EXPECT_DEATH(BCOP_CHECK(bad >= 0, "got %lld", static_cast<long long>(bad)),
               "CHECK failed: bad >= 0: got -3");
}

TEST(CheckMacroDeathTest, CheckWithoutMessage) {
  EXPECT_DEATH(BCOP_CHECK(1 == 2), "CHECK failed: 1 == 2");
}

TEST(CheckMacroTest, PassingCheckEvaluatesConditionOnce) {
  int calls = 0;
  BCOP_CHECK([&] { return ++calls; }() == 1, "side effect ran %d times", calls);
  EXPECT_EQ(calls, 1);
}

TEST(CheckMacroDeathTest, GlorotRejectsNonPositiveFan) {
  bcop::util::Rng rng(1);
  Tensor w(Shape{2, 2});
  EXPECT_DEATH(bcop::nn::glorot_uniform(w, 0, 4, rng), "non-positive fan");
}

TEST(CheckMacroDeathTest, ThreadPoolRejectsEmptyTask) {
  bcop::parallel::ThreadPool pool(0);
  EXPECT_DEATH(pool.submit(std::function<void()>{}), "empty std::function");
}

// classify_batch validates the batch against the folded topology up front;
// a mis-shaped batch would otherwise flow through conv/pool stages and only
// explode at the flatten boundary.
TEST(CheckMacroDeathTest, ClassifyBatchRejectsWrongRank) {
  const bcop::core::Predictor p(
      bcop::core::build_bnn(bcop::core::ArchitectureId::kMicroCnv, 31));
  EXPECT_DEATH(p.classify_batch(Tensor(Shape{32, 32, 3})), "rank-4");
}

TEST(CheckMacroDeathTest, ClassifyBatchRejectsEmptyBatch) {
  const bcop::core::Predictor p(
      bcop::core::build_bnn(bcop::core::ArchitectureId::kMicroCnv, 31));
  EXPECT_DEATH(p.classify_batch(Tensor(Shape{0, 32, 32, 3})), "empty batch");
}

TEST(CheckMacroDeathTest, ClassifyBatchRejectsWrongImageShape) {
  const bcop::core::Predictor p(
      bcop::core::build_bnn(bcop::core::ArchitectureId::kMicroCnv, 31));
  EXPECT_DEATH(p.classify_batch(Tensor(Shape{1, 16, 16, 3})),
               "does not match");
  EXPECT_DEATH(p.classify_batch(Tensor(Shape{2, 32, 32, 1})),
               "does not match");
}

TEST(CheckMacroDeathTest, BatchingServerRejectsDegenerateConfig) {
  const bcop::core::Predictor p(
      bcop::core::build_bnn(bcop::core::ArchitectureId::kMicroCnv, 31));
  bcop::serve::RouterConfig bad;
  bad.replicas = 1;
  bad.batcher.max_batch = 0;
  EXPECT_DEATH(bcop::serve::Router(p, bad), "max_batch");
  bad.batcher.max_batch = 4;
  bad.batcher.queue_capacity = 0;
  EXPECT_DEATH(bcop::serve::Router(p, bad), "queue_capacity");
  bad.batcher.queue_capacity = 4;
  bad.batcher.workers = 0;
  EXPECT_DEATH(bcop::serve::Router(p, bad), "workers");
  // No Flatten: the request shape cannot be inferred from the topology.
  bcop::util::Rng rng(32);
  bcop::nn::Sequential conv_only;
  conv_only.emplace<bcop::nn::BinaryConv2d>(3, 3, 8, rng);
  conv_only.emplace<bcop::nn::BatchNorm>(8);
  conv_only.emplace<bcop::nn::SignActivation>();
  const bcop::core::Predictor no_shape(std::move(conv_only));
  EXPECT_DEATH(bcop::serve::Router(no_shape, bcop::serve::RouterConfig{}),
               "rank-3");
}

// --- BCOP_DCHECK: bounds checks under BCOP_BOUNDS_CHECK=ON ----------------

TEST(TensorBoundsDeathTest, At4OutOfRange) {
  SKIP_UNLESS_BOUNDS_CHECKED();
  Tensor t(Shape{1, 4, 4, 3});
  EXPECT_DEATH(t.at4(0, 4, 0, 0), "out of bounds");
  EXPECT_DEATH(t.at4(0, 0, 0, 3), "out of bounds");
  EXPECT_DEATH(t.at4(0, 0, -1, 0), "out of bounds");
}

TEST(TensorBoundsDeathTest, At4OnWrongRank) {
  SKIP_UNLESS_BOUNDS_CHECKED();
  Tensor t(Shape{4, 4});
  EXPECT_DEATH(t.at4(0, 0, 0, 0), "at4 on rank-2 tensor");
}

TEST(TensorBoundsDeathTest, At2OutOfRange) {
  SKIP_UNLESS_BOUNDS_CHECKED();
  Tensor t(Shape{3, 5});
  EXPECT_DEATH(t.at2(3, 0), "out of bounds");
  EXPECT_DEATH(t.at2(0, 5), "out of bounds");
}

TEST(TensorBoundsDeathTest, FlatIndexOutOfRange) {
  SKIP_UNLESS_BOUNDS_CHECKED();
  Tensor t(Shape{2, 2});
  EXPECT_DEATH(t[4], "flat index 4 out of");
  EXPECT_DEATH(t[-1], "flat index -1 out of");
}

TEST(TensorBoundsTest, InRangeAccessorsStillWork) {
  Tensor t(Shape{1, 2, 2, 1});
  t.at4(0, 1, 1, 0) = 7.f;
  EXPECT_EQ(t.at4(0, 1, 1, 0), 7.f);
  EXPECT_EQ(t[3], 7.f);
}

TEST(TensorBoundsTest, ReshapedMismatchThrowsInEveryBuild) {
  Tensor t(Shape{2, 3});
  EXPECT_THROW(t.reshaped(Shape{4, 2}), std::invalid_argument);
  EXPECT_NO_THROW(t.reshaped(Shape{3, 2}));
}

TEST(BitMatrixBoundsDeathTest, BitIndexOutOfRange) {
  SKIP_UNLESS_BOUNDS_CHECKED();
  BitMatrix m(2, 70);  // two words per row; bit 70 is in-word but invalid
  EXPECT_DEATH(m.get(0, 70), "bit 70 out of");
  EXPECT_DEATH(m.get(0, -1), "bit -1 out of");
  EXPECT_DEATH(m.set_from_sign(0, 128, 1.f), "bit 128 out of");
}

TEST(BitMatrixBoundsDeathTest, RowIndexOutOfRange) {
  SKIP_UNLESS_BOUNDS_CHECKED();
  BitMatrix m(2, 64);
  EXPECT_DEATH(m.row(2), "row 2 out of");
  EXPECT_DEATH(m.get(-1, 0), "row -1 out of");
}

TEST(ImageBoundsDeathTest, PixelOutOfRange) {
  SKIP_UNLESS_BOUNDS_CHECKED();
  bcop::util::Image img(4, 6);
  EXPECT_DEATH(img.at(4, 0, 0), "out of 4x6x3");
  EXPECT_DEATH(img.at(0, 6, 0), "out of 4x6x3");
  EXPECT_DEATH(img.set_rgb(-1, 0, 0.f, 0.f, 0.f), "out of 4x6x3");
}

TEST(ImageBoundsTest, ClippedVariantsStayDefinedOutOfRange) {
  // The *_clipped entry points are the sanctioned way to write near edges;
  // they must silently drop out-of-range pixels even with checks on.
  bcop::util::Image img(4, 6);
  img.set_rgb_clipped(-1, 0, 1.f, 1.f, 1.f);
  img.blend_rgb_clipped(0, 99, 1.f, 1.f, 1.f, 0.5f);
  EXPECT_EQ(img.at(0, 0, 0), 0.f);
}

TEST(ShapeBoundsTest, IndexThrowsInEveryBuild) {
  Shape s{2, 3};
  EXPECT_THROW(s[2], std::out_of_range);
  EXPECT_THROW(s[-1], std::out_of_range);
}

}  // namespace
