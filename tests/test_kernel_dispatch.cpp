// Kernel dispatch tiers (tensor/kernels/): CPUID detection and clamping,
// the override/env parsing, and the differential suite -- every compiled
// SIMD tier must produce bit-identical results to the scalar reference on
// dirty buffers, odd shapes and tail-word (pad) geometry, because the
// arithmetic is integral (popcounts, compares, shifts) with no rounding.
// Runs under the sanitizer matrices via the default `unit` ctest label;
// CI additionally re-runs this binary with BCOP_KERNEL_LEVEL forced to
// scalar and to the best tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/bit_span.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/kernels/avx2.hpp"
#include "tensor/kernels/avx512.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/scalar.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "xnor/engine.hpp"
#include "xnor/plan.hpp"

#include "core/architecture.hpp"

namespace {

using namespace bcop;
using namespace bcop::tensor;
namespace kn = bcop::tensor::kernels;

/// A span over a deliberately filthy buffer: every word starts ~0ull, so a
/// kernel that fails to re-establish the zero-padding invariant (or skips
/// a destination word) is caught by exact comparison.
struct DirtyBits {
  std::vector<std::uint64_t> storage;
  BitSpan span;
  DirtyBits(std::int64_t rows, std::int64_t cols)
      : storage(static_cast<std::size_t>(rows * words_for_bits(cols)), ~0ull),
        span{storage.data(), rows, cols, words_for_bits(cols)} {}
};

BitMatrix random_bits(std::int64_t rows, std::int64_t cols, util::Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      m.set_from_sign(r, c, rng.bernoulli(0.5) ? 1.f : -1.f);
  return m;
}

/// Every tier compiled into this binary AND executable on this CPU.
std::vector<kn::KernelLevel> available_levels() {
  std::vector<kn::KernelLevel> ls;
  for (int i = 0; i < kn::kKernelLevelCount; ++i) {
    const auto lvl = static_cast<kn::KernelLevel>(i);
    if (kn::level_available(lvl)) ls.push_back(lvl);
  }
  return ls;
}

void expect_same_bits(ConstBitSpan got, ConstBitSpan want, const char* tier) {
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.wpr, want.wpr);
  for (std::int64_t r = 0; r < got.rows; ++r)
    for (std::int64_t w = 0; w < got.wpr; ++w)
      ASSERT_EQ(got.row(r)[w], want.row(r)[w])
          << tier << ": row " << r << " word " << w;
}

// --- Detection / override plumbing ----------------------------------------

TEST(KernelDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(kn::level_available(kn::KernelLevel::kScalar));
  EXPECT_EQ(kn::scalar_table().level, kn::KernelLevel::kScalar);
  // Detection is cached; two reads must agree.
  EXPECT_EQ(kn::detected_level(), kn::detected_level());
}

TEST(KernelDispatch, TablesMatchTheirAdvertisedLevel) {
  for (const auto lvl : available_levels()) {
    const kn::KernelTable& t = kn::table_for(lvl);
    EXPECT_EQ(t.level, lvl);
    EXPECT_NE(t.gemm, nullptr);
    EXPECT_NE(t.thresh, nullptr);
    EXPECT_NE(t.im2row, nullptr);
  }
}

TEST(KernelDispatch, RequestsClampDownNeverUp) {
  // Asking for a better tier than the host has must yield the detected
  // best, not scalar and not an inexecutable table.
  const kn::KernelTable& best = kn::table_for(kn::KernelLevel::kAvx512);
  EXPECT_EQ(best.level, kn::detected_level());
  // Asking for scalar always yields scalar, even on SIMD hosts.
  EXPECT_EQ(kn::table_for(kn::KernelLevel::kScalar).level,
            kn::KernelLevel::kScalar);
}

TEST(KernelDispatch, ParseAcceptsExactTierNamesOnly) {
  kn::KernelLevel lvl{};
  EXPECT_TRUE(kn::parse_kernel_level("scalar", &lvl));
  EXPECT_EQ(lvl, kn::KernelLevel::kScalar);
  EXPECT_TRUE(kn::parse_kernel_level("avx2", &lvl));
  EXPECT_EQ(lvl, kn::KernelLevel::kAvx2);
  EXPECT_TRUE(kn::parse_kernel_level("avx512", &lvl));
  EXPECT_EQ(lvl, kn::KernelLevel::kAvx512);
  EXPECT_FALSE(kn::parse_kernel_level(nullptr, &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("", &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("auto", &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("AVX2", &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("avx1024", &lvl));
}

TEST(KernelDispatch, NamesRoundTrip) {
  for (int i = 0; i < kn::kKernelLevelCount; ++i) {
    const auto lvl = static_cast<kn::KernelLevel>(i);
    kn::KernelLevel parsed{};
    ASSERT_TRUE(kn::parse_kernel_level(kn::kernel_level_name(lvl), &parsed));
    EXPECT_EQ(parsed, lvl);
  }
}

TEST(KernelDispatch, OverrideForcesTierAndClearRestores) {
  const kn::KernelLevel before = kn::active_level();
  kn::set_level_override(kn::KernelLevel::kScalar);
  EXPECT_EQ(kn::active_level(), kn::KernelLevel::kScalar);
  EXPECT_EQ(kn::active_table().level, kn::KernelLevel::kScalar);
  kn::set_level_override(kn::KernelLevel::kAvx512);
  EXPECT_EQ(kn::active_level(), kn::detected_level());  // clamped
  kn::clear_level_override();
  EXPECT_EQ(kn::active_level(), before);
}

// --- Differential suite: every tier vs the scalar reference ---------------

// Shapes deliberately hit the tail paths: K values straddle word
// boundaries (pad() != 0 exercises the tail-word mask the GEMM must NOT
// count), N values leave SIMD lane tails (N % 8, N % 16 != 0), and row
// counts are odd so chunk boundaries never align with anything.

TEST(KernelDifferential, GemmMatchesScalarOnOddShapesAndTailWords) {
  util::Rng rng(23);
  for (const std::int64_t K : {27, 64, 100, 320}) {
    for (const std::int64_t N : {1, 7, 13, 40}) {
      const std::int64_t M = 5;
      const BitMatrix a = random_bits(M, K, rng);
      const BitMatrix b = random_bits(N, K, rng);
      std::vector<std::uint64_t> bt(
          static_cast<std::size_t>(b.rows() * b.words_per_row()));
      transpose_word_major(span_of(b), bt.data());

      std::vector<std::int32_t> want(static_cast<std::size_t>(M * N),
                                     INT32_MIN);
      kn::GemmCtx wctx{span_of(a), bt.data(), N, want.data()};
      kn::scalar_table().gemm(&wctx, 0, M);

      for (const auto lvl : available_levels()) {
        if (lvl == kn::KernelLevel::kScalar) continue;
        std::vector<std::int32_t> got(static_cast<std::size_t>(M * N),
                                      INT32_MAX);
        kn::GemmCtx gctx{span_of(a), bt.data(), N, got.data()};
        kn::table_for(lvl).gemm(&gctx, 0, M);
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i], want[i])
              << kn::kernel_level_name(lvl) << ": K=" << K << " N=" << N
              << " flat=" << i;
      }
    }
  }
}

// The plane-fused residual GEMM (GemmCtx planes/scale): on the same odd
// grid, every tier -- scalar included -- must equal sum_m g_m times the
// scalar single-plane result for plane m. Scales come from the dyadic
// chain of a trained ResidualSign; one plane at a non-unit scale is the
// cap-1 path of a residual net. Planes sit in one dirty buffer with a
// gap word between them, so the kernel must honour plane_stride and read
// exactly `wpr` words per row of every plane.
TEST(KernelDifferential, PlaneFusedGemmMatchesScaledScalarPlanes) {
  util::Rng rng(37);
  const std::vector<std::vector<std::int32_t>> scale_sets = {
      {512}, {16}, {512, 256}, {16, 8}, {512, 256, 128}, {16, 8, 4}};
  for (const std::int64_t K : {27, 64, 100, 320}) {
    for (const std::int64_t N : {1, 7, 13, 40}) {
      const std::int64_t M = 5, wpr = words_for_bits(K);
      const std::int64_t stride = M * wpr + 1;
      const BitMatrix b = random_bits(N, K, rng);
      std::vector<std::uint64_t> bt(
          static_cast<std::size_t>(b.rows() * b.words_per_row()));
      transpose_word_major(span_of(b), bt.data());

      std::vector<std::uint64_t> planes(
          static_cast<std::size_t>(kn::kMaxPlanes * stride), ~0ull);
      std::vector<std::vector<std::int32_t>> single;  // scalar, per plane
      for (std::int64_t m = 0; m < kn::kMaxPlanes; ++m) {
        const BitMatrix a = random_bits(M, K, rng);
        std::copy(a.storage().begin(), a.storage().end(),
                  planes.begin() + m * stride);
        std::vector<std::int32_t> c(static_cast<std::size_t>(M * N));
        kn::GemmCtx ctx{span_of(a), bt.data(), N, c.data()};
        kn::scalar_table().gemm(&ctx, 0, M);
        single.push_back(std::move(c));
      }
      const ConstBitSpan a0{planes.data(), M, K, wpr};

      for (const auto& scales : scale_sets) {
        const auto P = static_cast<std::int64_t>(scales.size());
        std::vector<std::int32_t> want(static_cast<std::size_t>(M * N), 0);
        for (std::int64_t m = 0; m < P; ++m)
          for (std::size_t i = 0; i < want.size(); ++i)
            want[i] += scales[static_cast<std::size_t>(m)] *
                       single[static_cast<std::size_t>(m)][i];

        for (const auto lvl : available_levels()) {
          std::vector<std::int32_t> got(static_cast<std::size_t>(M * N),
                                        INT32_MIN);
          kn::GemmCtx gctx{a0, bt.data(), N, got.data()};
          gctx.planes = P;
          gctx.plane_stride = stride;
          for (std::int64_t m = 0; m < P; ++m)
            gctx.scale[m] = scales[static_cast<std::size_t>(m)];
          kn::table_for(lvl).gemm(&gctx, 0, M);
          for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << kn::kernel_level_name(lvl) << ": K=" << K << " N=" << N
                << " planes=" << P << " g0=" << scales[0] << " flat=" << i;
        }
      }
    }
  }
}

TEST(KernelDifferential, ThresholdMatchesScalarIncludingEqualityEdge) {
  util::Rng rng(29);
  for (const std::int64_t C : {5, 64, 100, 130}) {
    const std::int64_t rows = 7;
    std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * C));
    std::vector<std::int32_t> thr(static_cast<std::size_t>(C));
    std::vector<std::int32_t> inv(static_cast<std::size_t>(C));
    for (auto& t : thr)
      t = static_cast<std::int32_t>(rng.uniform_int(0, 8)) - 4;
    for (auto& v : inv) v = rng.bernoulli(0.5) ? 1 : 0;
    // Accumulators cluster around the thresholds so acc == thr (the >=
    // equality edge the compare instructions must preserve) occurs often.
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < C; ++c)
        acc[static_cast<std::size_t>(r * C + c)] =
            thr[static_cast<std::size_t>(c)] +
            static_cast<std::int32_t>(rng.uniform_int(0, 5)) - 2;

    DirtyBits want(rows, C);
    kn::ThreshCtx wctx{acc.data(), thr.data(), inv.data(), want.span};
    kn::scalar_table().thresh(&wctx, 0, rows);

    for (const auto lvl : available_levels()) {
      if (lvl == kn::KernelLevel::kScalar) continue;
      DirtyBits got(rows, C);
      kn::ThreshCtx gctx{acc.data(), thr.data(), inv.data(), got.span};
      kn::table_for(lvl).thresh(&gctx, 0, rows);
      expect_same_bits(got.span, want.span,
                       kn::kernel_level_name(lvl));
      // The scalar reference re-establishes zero padding in the tail word;
      // equality above proves the tier does too -- but assert it outright
      // so a future scalar regression cannot mask a tier one.
      if (C % 64 != 0) {
        for (std::int64_t r = 0; r < rows; ++r)
          ASSERT_EQ(got.span.row(r)[got.span.wpr - 1] >> (C % 64), 0u)
              << kn::kernel_level_name(lvl) << ": dirty pad bits, row " << r;
      }
    }
  }
}

TEST(KernelDifferential, Im2rowMatchesScalarAcrossChannelRegimes) {
  util::Rng rng(31);
  // c < 64 (inline-OR path), c % 64 == 0 (aligned word-copy path), and a
  // c > 64 unaligned width (append_bits path) -- all on dirty arenas.
  for (const std::int64_t c : {3, 64, 100, 128}) {
    const std::int64_t n = 2, h = 6, w = 5, k = 3;
    const std::int64_t ho = h - k + 1, wo = w - k + 1;
    const BitMatrix pixels = random_bits(n * h * w, c, rng);

    DirtyBits want(n * ho * wo, k * k * c);
    kn::Im2RowCtx wctx{span_of(pixels), want.span, h, w, c, k, ho, wo};
    kn::scalar_table().im2row(&wctx, 0, n * ho * wo);

    for (const auto lvl : available_levels()) {
      if (lvl == kn::KernelLevel::kScalar) continue;
      DirtyBits got(n * ho * wo, k * k * c);
      kn::Im2RowCtx gctx{span_of(pixels), got.span, h, w, c, k, ho, wo};
      kn::table_for(lvl).im2row(&gctx, 0, n * ho * wo);
      expect_same_bits(got.span, want.span,
                       kn::kernel_level_name(lvl));
    }
  }
}

// --- End-to-end: whole prototypes agree across tiers ----------------------

TEST(KernelDifferential, PrototypeLogitsIdenticalOnEveryTier) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 7);
  const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  Tensor x(Shape{2, 32, 32, 3});
  util::Rng rng(41);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform());

  kn::set_level_override(kn::KernelLevel::kScalar);
  const Tensor ref = net.forward_batch(x);
  for (const auto lvl : available_levels()) {
    kn::set_level_override(lvl);
    const Tensor got = net.forward_batch(x);
    ASSERT_EQ(got.shape(), ref.shape());
    for (std::int64_t i = 0; i < got.numel(); ++i)
      ASSERT_EQ(got[i], ref[i])
          << kn::kernel_level_name(lvl) << ": logit " << i;
  }

  // Residual levels: every prototype built at M = 3 and served at level
  // caps 1/2/3 runs the plane-fused GEMM (one plane at a non-unit scale
  // at cap 1), the pattern-bank firing and the int32-epilogue first conv
  // at the widths the prototypes use (co 16 and 64).
  for (const auto arch :
       {core::ArchitectureId::kCnv, core::ArchitectureId::kNCnv,
        core::ArchitectureId::kMicroCnv}) {
    nn::Sequential residual = core::build_bnn(arch, 7, /*residual_levels=*/3);
    const xnor::XnorNetwork rnet = xnor::XnorNetwork::fold(residual);
    for (const std::int64_t batch : {1, 16}) {
      Tensor xb(Shape{batch, 32, 32, 3});
      for (std::int64_t i = 0; i < xb.numel(); ++i)
        xb[i] = static_cast<float>(rng.uniform());
      for (const std::int64_t cap : {1, 2, 3}) {
        kn::set_level_override(kn::KernelLevel::kScalar);
        const Tensor want = rnet.forward_batch(xb, cap);
        for (const auto lvl : available_levels()) {
          kn::set_level_override(lvl);
          const Tensor got = rnet.forward_batch(xb, cap);
          ASSERT_EQ(got.shape(), want.shape());
          for (std::int64_t i = 0; i < got.numel(); ++i)
            ASSERT_EQ(got[i], want[i])
                << core::arch_name(arch) << " M=3 cap " << cap << " batch "
                << batch << " " << kn::kernel_level_name(lvl) << ": logit "
                << i;
        }
      }
    }
  }
  kn::clear_level_override();
}

TEST(KernelDispatch, PlanCacheKeysOnKernelLevel) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 11);
  const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  const Shape in{1, 32, 32, 3};

  kn::set_level_override(kn::KernelLevel::kScalar);
  const xnor::ExecutionPlan& scalar_plan = net.plan_for(in);
  EXPECT_EQ(scalar_plan.kernel_level(), kn::KernelLevel::kScalar);
  const xnor::ExecutionPlan& scalar_again = net.plan_for(in);
  EXPECT_EQ(&scalar_plan, &scalar_again);

  const kn::KernelLevel best = kn::detected_level();
  if (best != kn::KernelLevel::kScalar) {
    kn::set_level_override(best);
    const xnor::ExecutionPlan& best_plan = net.plan_for(in);
    // A different tier must compile (and cache) a distinct plan -- stale
    // scalar pointers must never serve a SIMD-tier request.
    EXPECT_NE(&scalar_plan, &best_plan);
    EXPECT_EQ(best_plan.kernel_level(), best);
  }
  kn::clear_level_override();
}

}  // namespace
