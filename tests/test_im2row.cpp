#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/bit_span.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/im2row.hpp"
#include "tensor/kernels/scalar.hpp"
#include "test_stage_lists.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop::tensor;
namespace kn = bcop::tensor::kernels;

Tensor random_tensor(const Shape& s, bcop::util::Rng& rng) {
  Tensor t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

TEST(Im2Row, OutDim) {
  EXPECT_EQ(conv_out_dim(32, 3), 30);
  EXPECT_EQ(conv_out_dim(5, 3), 3);
  EXPECT_EQ(conv_out_dim(3, 3), 1);
}

TEST(Im2Row, KnownSmallCase) {
  // 1x3x3x1 input, k=2 -> 4 patches of 4 elements each.
  Tensor in(Shape{1, 3, 3, 1});
  for (std::int64_t i = 0; i < 9; ++i) in[i] = static_cast<float>(i);
  Tensor rows;
  im2row(in, 2, rows);
  ASSERT_EQ(rows.shape(), (Shape{4, 4}));
  // Patch at (0,0): elements (0,0),(0,1),(1,0),(1,1) = 0,1,3,4.
  EXPECT_FLOAT_EQ(rows.at2(0, 0), 0.f);
  EXPECT_FLOAT_EQ(rows.at2(0, 1), 1.f);
  EXPECT_FLOAT_EQ(rows.at2(0, 2), 3.f);
  EXPECT_FLOAT_EQ(rows.at2(0, 3), 4.f);
  // Patch at (1,1): 4,5,7,8.
  EXPECT_FLOAT_EQ(rows.at2(3, 0), 4.f);
  EXPECT_FLOAT_EQ(rows.at2(3, 3), 8.f);
}

TEST(Im2Row, PatchElementOrderIsKyKxC) {
  // 2 channels: the patch must interleave (ky, kx, c).
  Tensor in(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 8; ++i) in[i] = static_cast<float>(i);
  Tensor rows;
  im2row(in, 2, rows);
  ASSERT_EQ(rows.shape(), (Shape{1, 8}));
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_FLOAT_EQ(rows[i], static_cast<float>(i));  // NHWC is already kyKxC
}

TEST(Im2Row, MultiBatch) {
  bcop::util::Rng rng(3);
  const Tensor in = random_tensor(Shape{3, 6, 5, 4}, rng);
  Tensor rows;
  im2row(in, 3, rows);
  ASSERT_EQ(rows.shape(), (Shape{3 * 4 * 3, 36}));
  // Cross-check one arbitrary element: batch 2, patch (1,2), offset (ky=2,kx=0,c=3).
  const std::int64_t row = (2 * 4 + 1) * 3 + 2;
  const std::int64_t col = (2 * 3 + 0) * 4 + 3;
  EXPECT_FLOAT_EQ(rows.at2(row, col), in.at4(2, 1 + 2, 2 + 0, 3));
}

TEST(Im2Row, KernelTooLargeThrows) {
  const Tensor in(Shape{1, 2, 2, 1});
  Tensor rows;
  EXPECT_THROW(im2row(in, 3, rows), std::invalid_argument);
}

TEST(Im2Row, NonRank4Throws) {
  const Tensor in(Shape{4, 4});
  Tensor rows;
  EXPECT_THROW(im2row(in, 2, rows), std::invalid_argument);
}

TEST(Row2Im, ShapeMismatchThrows) {
  Tensor grad(Shape{1, 4, 4, 1});
  const Tensor rows(Shape{5, 9});
  EXPECT_THROW(row2im(rows, 3, grad), std::invalid_argument);
}

// Adjointness: <im2row(x), y> == <x, row2im(y)> for all x, y -- this is the
// property that makes the conv backward pass correct.
TEST(Row2Im, IsAdjointOfIm2Row) {
  bcop::util::Rng rng(11);
  const Tensor x = random_tensor(Shape{2, 7, 6, 3}, rng);
  Tensor rows;
  im2row(x, 3, rows);
  const Tensor y = random_tensor(rows.shape(), rng);

  double lhs = 0;
  for (std::int64_t i = 0; i < rows.numel(); ++i) lhs += rows[i] * y[i];

  Tensor xback(x.shape());
  row2im(y, 3, xback);
  double rhs = 0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * xback[i];

  EXPECT_NEAR(lhs, rhs, 1e-2);
}

// The bit-domain patch extraction (the kernel tables' one im2row) must
// produce exactly the packed image of the float one, into a dirty buffer.
// Channel counts cover the sub-word shifted path (1, 3, 16), the
// word-aligned copy path (64) and the multi-word append path (70).
TEST(BitIm2Row, MatchesFloatIm2RowForAnyChannelCount) {
  for (const std::int64_t c : {1, 3, 16, 64, 70}) {
    bcop::util::Rng rng(static_cast<std::uint64_t>(c) * 13);
    const std::int64_t n = 2, h = 6, w = 5, k = 3;
    Tensor in(Shape{n, h, w, c});
    for (std::int64_t i = 0; i < in.numel(); ++i)
      in[i] = rng.bernoulli(0.5) ? 1.f : -1.f;

    Tensor rows;
    im2row(in, k, rows);
    const BitMatrix want =
        pack_matrix(rows.data(), rows.shape()[0], rows.shape()[1]);

    const BitMatrix pixels = pack_matrix(in.data(), n * h * w, c);
    const std::int64_t ho = conv_out_dim(h, k), wo = conv_out_dim(w, k);
    const std::int64_t wpr = words_for_bits(k * k * c);
    std::vector<std::uint64_t> got(
        static_cast<std::size_t>(n * ho * wo * wpr), ~0ull);
    kn::Im2RowCtx ctx{span_of(pixels),
                      {got.data(), n * ho * wo, k * k * c, wpr},
                      h, w, c, k, ho, wo};
    kn::scalar_table().im2row(&ctx, 0, n * ho * wo);

    ASSERT_EQ(want.rows(), n * ho * wo) << "c=" << c;
    ASSERT_EQ(want.words_per_row(), wpr) << "c=" << c;
    EXPECT_EQ(got, want.storage()) << "c=" << c;
  }
}

// The kernel trusts its context; ExecutionPlan::compile is where a conv's
// channel count and kernel size are checked against its input.
TEST(BitIm2Row, ShapeMismatchThrows) {
  using namespace bcop::testhelpers;
  // Channel count disagrees with the input: the first conv makes 5x5x3,
  // the binary conv claims 4 channels.
  const std::string channels =
      compile_error(network(first_conv(3, 3, 3), bin_conv(3, 4, 8),
                            classifier(72, 4)),
                    Shape{1, 7, 7, 3});
  EXPECT_NE(channels.find("conv stage 1 expects 4 input channels, got 3"),
            std::string::npos)
      << channels;
  // A 3x3 kernel does not fit the first conv's 2x2 output.
  const std::string kernel = compile_error(
      network(first_conv(3, 3, 3), bin_conv(3, 3, 8), classifier(8, 4)),
      Shape{1, 4, 4, 3});
  EXPECT_NE(kernel.find("conv kernel larger than input"), std::string::npos)
      << kernel;
}

TEST(Row2Im, AccumulatesOverlappingPatches) {
  // All-ones patch gradients: interior pixels of a 3x3-kernel conv receive
  // k*k contributions.
  Tensor grad(Shape{1, 5, 5, 1});
  Tensor rows(Shape{9, 9});
  rows.fill(1.f);
  row2im(rows, 3, grad);
  EXPECT_FLOAT_EQ(grad.at4(0, 2, 2, 0), 9.f);  // center: all 9 patches
  EXPECT_FLOAT_EQ(grad.at4(0, 0, 0, 0), 1.f);  // corner: 1 patch
  EXPECT_FLOAT_EQ(grad.at4(0, 0, 2, 0), 3.f);  // edge: 3 patches
}

}  // namespace
