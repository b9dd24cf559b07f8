// Span kernels (tensor/bit_span.hpp) vs their owning BitMatrix
// counterparts. The serving hot path reuses arena rows, so every case runs
// the span kernel into a *dirty* buffer (pre-filled with 1-bits) to prove
// the kernels re-establish the zero-padding invariant themselves.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/bit_span.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/im2row.hpp"
#include "util/rng.hpp"
#include "xnor/exec_residual.hpp"

namespace {

using namespace bcop::tensor;

std::vector<float> random_signs(std::int64_t n, bcop::util::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.bernoulli(0.5) ? 1.f : -1.f;
  return v;
}

/// A span over a deliberately filthy buffer: every word starts ~0ull.
struct DirtyBits {
  std::vector<std::uint64_t> storage;
  BitSpan span;
  DirtyBits(std::int64_t rows, std::int64_t cols)
      : storage(static_cast<std::size_t>(rows * words_for_bits(cols)),
                ~0ull),
        span{storage.data(), rows, cols, words_for_bits(cols)} {}
};

void expect_same_bits(ConstBitSpan got, const BitMatrix& want) {
  ASSERT_EQ(got.rows, want.rows());
  ASSERT_EQ(got.cols, want.cols());
  ASSERT_EQ(got.wpr, want.words_per_row());
  for (std::int64_t r = 0; r < got.rows; ++r)
    for (std::int64_t w = 0; w < got.wpr; ++w)
      ASSERT_EQ(got.row(r)[w], want.row(r)[w])
          << "row " << r << " word " << w;
}

TEST(BitSpan, SpanOfMatrixSharesStorageAndGeometry) {
  BitMatrix m(3, 70);
  BitSpan s = span_of(m);
  EXPECT_EQ(s.rows, 3);
  EXPECT_EQ(s.cols, 70);
  EXPECT_EQ(s.wpr, 2);
  EXPECT_EQ(s.pad(), 2 * 64 - 70);
  s.row(1)[0] = 0x5ull;
  EXPECT_TRUE(m.get(1, 0));
  EXPECT_FALSE(m.get(1, 1));
  ConstBitSpan cs = span_of(static_cast<const BitMatrix&>(m));
  EXPECT_EQ(cs.row(1)[0], 0x5ull);
}

TEST(BitSpan, PackRowsMatchesPackMatrixOnDirtyBuffer) {
  bcop::util::Rng rng(7);
  for (const std::int64_t cols : {5, 64, 131}) {
    const std::int64_t rows = 4;
    const auto src = random_signs(rows * cols, rng);
    DirtyBits dirty(rows, cols);
    pack_rows(src.data(), rows, cols, dirty.span);
    expect_same_bits(dirty.span, pack_matrix(src.data(), rows, cols));
  }
}

TEST(BitSpan, PretransposedGemmMatchesBinaryGemm) {
  bcop::util::Rng rng(11);
  // N = 300 exercises the >1-tile path of the 256-lane stack tile.
  for (const std::int64_t N : {3, 64, 300}) {
    const std::int64_t M = 17, K = 131;
    const auto a = random_signs(M * K, rng);
    const auto b = random_signs(N * K, rng);
    const BitMatrix pa = pack_matrix(a.data(), M, K);
    const BitMatrix pb = pack_matrix(b.data(), N, K);
    std::vector<std::int32_t> want;
    binary_gemm(pa, pb, want);
    std::vector<std::uint64_t> bt(
        static_cast<std::size_t>(pb.words_per_row() * N));
    transpose_word_major(span_of(pb), bt.data());
    std::vector<std::int32_t> got(static_cast<std::size_t>(M * N), -1);
    binary_gemm_pre(span_of(pa), bt.data(), N, got.data());
    EXPECT_EQ(got, want) << "N=" << N;
  }
}

TEST(BitSpan, BitIm2RowMatchesMatrixVariantOnDirtyBuffer) {
  bcop::util::Rng rng(13);
  const std::int64_t n = 2, h = 6, w = 5, k = 3;
  for (const std::int64_t c : {3, 64, 100}) {  // <64, aligned, >64 unaligned
    const auto src = random_signs(n * h * w * c, rng);
    const BitMatrix pixels = pack_matrix(src.data(), n * h * w, c);
    BitMatrix want;
    bit_im2row(pixels, n, h, w, c, k, want);
    const std::int64_t ho = conv_out_dim(h, k), wo = conv_out_dim(w, k);
    DirtyBits dirty(n * ho * wo, k * k * c);
    bit_im2row(span_of(pixels), n, h, w, c, k, dirty.span);
    expect_same_bits(dirty.span, want);
  }
}

// The interpreter's pool step runs xnor::detail::residual_pool at every
// plane count; at one plane it is the word-wise OR of each 2x2 window.
// Like the interpreter, it runs one image at a time.
TEST(BitSpan, Pool2IsBooleanOrOfTheWindow) {
  bcop::util::Rng rng(17);
  const std::int64_t n = 2, h = 4, w = 6;
  for (const std::int64_t c : {3, 64, 100}) {
    const auto src = random_signs(n * h * w * c, rng);
    const BitMatrix pixels = pack_matrix(src.data(), n * h * w, c);
    DirtyBits dirty(n * (h / 2) * (w / 2), c);
    bcop::xnor::PlanStep st;
    st.kind = bcop::xnor::StepKind::kPool;
    st.h = h;
    st.w = w;
    st.c = st.co = c;
    st.ho = h / 2;
    st.wo = w / 2;
    st.in_rows = h * w;
    st.in_cols = st.out_cols = c;
    st.in_wpr = st.out_wpr = words_for_bits(c);
    st.out_rows = st.ho * st.wo;
    ASSERT_EQ(st.levels_in, 1);
    for (std::int64_t img = 0; img < n; ++img)
      bcop::xnor::detail::residual_pool(st, pixels.row(img * st.in_rows),
                                        dirty.span.row(img * st.out_rows));
    BitMatrix want(n * (h / 2) * (w / 2), c);
    for (std::int64_t nn = 0; nn < n; ++nn)
      for (std::int64_t y = 0; y < h / 2; ++y)
        for (std::int64_t x = 0; x < w / 2; ++x)
          for (std::int64_t ch = 0; ch < c; ++ch) {
            const bool on = pixels.get((nn * h + 2 * y) * w + 2 * x, ch) ||
                            pixels.get((nn * h + 2 * y) * w + 2 * x + 1, ch) ||
                            pixels.get((nn * h + 2 * y + 1) * w + 2 * x, ch) ||
                            pixels.get((nn * h + 2 * y + 1) * w + 2 * x + 1,
                                       ch);
            want.set_from_sign((nn * (h / 2) + y) * (w / 2) + x, ch,
                               on ? 1.f : -1.f);
          }
    expect_same_bits(dirty.span, want);
  }
}

TEST(BitSpan, FlattenMatchesFloatOrderOnDirtyBuffer) {
  bcop::util::Rng rng(19);
  const std::int64_t n = 3, ppi = 4;
  for (const std::int64_t c : {3, 64, 100}) {
    const auto src = random_signs(n * ppi * c, rng);
    const BitMatrix pixels = pack_matrix(src.data(), n * ppi, c);
    DirtyBits dirty(n, ppi * c);
    flatten_pixels(span_of(pixels), n, ppi, c, dirty.span);
    // The float-domain Flatten is a plain reshape, so packing the same
    // floats as [n, ppi*c] is the ground truth.
    expect_same_bits(dirty.span, pack_matrix(src.data(), n, ppi * c));
  }
}

TEST(BitSpanDeathTest, Im2rowShapeMismatchAborts) {
  // Span-kernel contracts abort via BCOP_CHECK rather than throw: a throw
  // would pull exception machinery into the allocation-free hot objects
  // (scripts/audit_hot_path.py would flag it), and a shape mismatch here
  // is a caller bug, not a recoverable condition.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BitMatrix pixels(4, 3);
  DirtyBits bad(5, 27);  // wrong row count for 1x2x2 im2row
  EXPECT_DEATH(bit_im2row(span_of(pixels), 1, 2, 2, 3, 3, bad.span),
               "bit_im2row: kernel 3 larger than input 2x2");
}

}  // namespace
