#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/bit_span.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/scalar.hpp"
#include "test_stage_lists.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop::tensor;
namespace kn = bcop::tensor::kernels;

std::vector<float> random_signs(std::int64_t n, bcop::util::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.bernoulli(0.5) ? 1.f : -1.f;
  return v;
}

/// C[M, N] = A[M, K] x B[N, K]^T through the scalar kernel table, the
/// reference every tier is tested against (test_kernel_dispatch.cpp).
std::vector<std::int32_t> scalar_gemm(const BitMatrix& a, const BitMatrix& b) {
  std::vector<std::uint64_t> bt(
      static_cast<std::size_t>(b.rows() * b.words_per_row()));
  transpose_word_major(span_of(b), bt.data());
  std::vector<std::int32_t> c(static_cast<std::size_t>(a.rows() * b.rows()));
  kn::GemmCtx ctx{span_of(a), bt.data(), b.rows(), c.data()};
  kn::scalar_table().gemm(&ctx, 0, a.rows());
  return c;
}

TEST(BitMatrix, PackRoundTrip) {
  bcop::util::Rng rng(1);
  const std::int64_t rows = 5, cols = 131;  // non-multiple of 64
  const auto src = random_signs(rows * cols, rng);
  const BitMatrix m = pack_matrix(src.data(), rows, cols);
  EXPECT_EQ(m.rows(), rows);
  EXPECT_EQ(m.cols(), cols);
  EXPECT_EQ(m.words_per_row(), 3);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      EXPECT_EQ(m.get(r, c), src[static_cast<std::size_t>(r * cols + c)] >= 0.f);
}

TEST(BitMatrix, PaddingBitsAreZero) {
  std::vector<float> ones(70, 1.f);
  const BitMatrix m = pack_matrix(ones.data(), 1, 70);
  // Bits 70..127 of the second word must be zero.
  EXPECT_EQ(m.row(0)[1] >> 6, 0ull);
}

TEST(BitMatrix, SetFromSignTogglesBothWays) {
  BitMatrix m(1, 8);
  m.set_from_sign(0, 3, 1.f);
  EXPECT_TRUE(m.get(0, 3));
  m.set_from_sign(0, 3, -0.5f);
  EXPECT_FALSE(m.get(0, 3));
  m.set_from_sign(0, 3, 0.f);  // sign(0) = +1 convention
  EXPECT_TRUE(m.get(0, 3));
}

TEST(BitMatrix, NegativeDimensionsThrow) {
  EXPECT_THROW(BitMatrix(-1, 4), std::invalid_argument);
}

class XnorDotSizes : public ::testing::TestWithParam<int> {};

TEST_P(XnorDotSizes, MatchesFloatDotProduct) {
  const std::int64_t n = GetParam();
  bcop::util::Rng rng(static_cast<std::uint64_t>(n) * 97);
  const auto a = random_signs(n, rng);
  const auto b = random_signs(n, rng);
  const BitMatrix pa = pack_matrix(a.data(), 1, n);
  const BitMatrix pb = pack_matrix(b.data(), 1, n);

  double expected = 0;
  for (std::int64_t i = 0; i < n; ++i)
    expected += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];

  EXPECT_EQ(xnor_dot(pa.row(0), pb.row(0), n, pa.words_per_row()),
            static_cast<std::int64_t>(expected));
}

INSTANTIATE_TEST_SUITE_P(Lengths, XnorDotSizes,
                         ::testing::Values(1, 2, 63, 64, 65, 100, 127, 128,
                                           576, 1152, 2304));

TEST(XnorDot, AllMatchGivesPlusN) {
  std::vector<float> a(100, 1.f);
  const BitMatrix p = pack_matrix(a.data(), 1, 100);
  EXPECT_EQ(xnor_dot(p.row(0), p.row(0), 100, p.words_per_row()), 100);
}

TEST(XnorDot, AllMismatchGivesMinusN) {
  std::vector<float> a(100, 1.f), b(100, -1.f);
  const BitMatrix pa = pack_matrix(a.data(), 1, 100);
  const BitMatrix pb = pack_matrix(b.data(), 1, 100);
  EXPECT_EQ(xnor_dot(pa.row(0), pb.row(0), 100, pa.words_per_row()), -100);
}

TEST(BinaryGemm, MatchesFloatGemm) {
  bcop::util::Rng rng(5);
  const std::int64_t M = 13, N = 9, K = 300;
  const auto a = random_signs(M * K, rng);
  const auto b = random_signs(N * K, rng);
  const std::vector<std::int32_t> c =
      scalar_gemm(pack_matrix(a.data(), M, K), pack_matrix(b.data(), N, K));

  std::vector<float> cref(static_cast<std::size_t>(M * N));
  gemm_nt_naive(M, N, K, a.data(), b.data(), cref.data());
  ASSERT_EQ(c.size(), cref.size());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_EQ(c[i], static_cast<std::int32_t>(cref[i]));
}

// The kernel GEMM trusts its context; ExecutionPlan::compile is where a
// dense layer's K is checked against the features that reach it.
TEST(BinaryGemm, KMismatchThrows) {
  using namespace bcop::testhelpers;
  // A 3x3 first conv turns a 4x4x2 image into 2x2x8 = 32 features.
  const std::string error = compile_error(
      network(first_conv(3, 2, 8), classifier(64, 4)), Shape{1, 4, 4, 2});
  EXPECT_NE(error.find("dense stage 1 expects 64 input features, got 32"),
            std::string::npos)
      << error;
}

TEST(AppendBits, ConcatenationMatchesDirectPack) {
  // ORing packed fields of awkward widths end to end must equal packing the
  // concatenated float vector directly -- including the zero padding bits.
  bcop::util::Rng rng(7);
  const std::vector<std::int64_t> widths = {3, 64, 70, 1, 33};
  std::int64_t total = 0;
  for (const auto w : widths) total += w;

  BitMatrix dst(1, total);
  std::vector<float> concat;
  std::int64_t off = 0;
  for (const auto w : widths) {
    const auto field = random_signs(w, rng);
    const BitMatrix src = pack_matrix(field.data(), 1, w);
    append_bits(dst.row(0), off, src.row(0), w);
    concat.insert(concat.end(), field.begin(), field.end());
    off += w;
  }

  const BitMatrix want = pack_matrix(concat.data(), 1, total);
  EXPECT_EQ(dst.storage(), want.storage());
}

TEST(AppendBits, WordAlignedOffsetsUseNoShift) {
  bcop::util::Rng rng(8);
  const auto a = random_signs(64, rng);
  const auto b = random_signs(128, rng);
  BitMatrix dst(1, 192);
  const BitMatrix pa = pack_matrix(a.data(), 1, 64);
  const BitMatrix pb = pack_matrix(b.data(), 1, 128);
  append_bits(dst.row(0), 0, pa.row(0), 64);
  append_bits(dst.row(0), 64, pb.row(0), 128);
  std::vector<float> concat(a);
  concat.insert(concat.end(), b.begin(), b.end());
  EXPECT_EQ(dst.storage(), pack_matrix(concat.data(), 1, 192).storage());
}

TEST(BinaryGemm, ResultParityMatchesK) {
  // For {-1,1} vectors of length K, every dot product has K's parity.
  bcop::util::Rng rng(6);
  const std::int64_t K = 27;
  const auto a = random_signs(4 * K, rng);
  const auto b = random_signs(3 * K, rng);
  const std::vector<std::int32_t> c =
      scalar_gemm(pack_matrix(a.data(), 4, K), pack_matrix(b.data(), 3, K));
  for (const auto v : c) EXPECT_EQ((v & 1), (K & 1));
}

}  // namespace
