// Scalar reference kernels. ALLOCATION-FREE ZONE: like every kernel tier,
// this TU must not allocate, lock or throw -- scratch lives in fixed-size
// stack tiles and contract failures abort through BCOP_CHECK. Enforced by
// lint rule R6 and the binary-level audit (scripts/audit_hot_path.py).
#include "tensor/kernels/scalar.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/bit_tensor.hpp"

namespace bcop::tensor::kernels {

namespace {

/// GEMM rows [lo, hi) over P planes of A (GemmCtx). P = 1 without
/// kScaled is the classic single-plane loop.
template <int P, bool kScaled>
void gemm_rows(const GemmCtx& g, std::int64_t lo, std::int64_t hi) {
  const std::int64_t N = g.n, K = g.a.cols;
  const std::int64_t words = g.a.wpr, pad = g.a.pad();
  // Popcount accumulators live in a fixed stack tile: the weight-row
  // dimension is walked kTile lanes at a time, each sweep streaming every
  // activation word once. 256 lanes keep the tile inside L1 while leaving
  // the inner loop wide enough to vectorize: with the weight rows adjacent
  // per word (word-major bt), one activation word broadcasts against
  // contiguous lanes, and the `omp simd` hint lets the popcount loop
  // vectorize (vpopcntq where the ISA has it). Each weight word is loaded
  // once and counted against all P planes.
  constexpr std::int64_t kTile = 256;
  std::int64_t pop[P][kTile];
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::uint64_t* ai = g.a.row(i);
    std::int32_t* ci = g.c + i * N;
    for (std::int64_t j0 = 0; j0 < N; j0 += kTile) {
      const std::int64_t jn = std::min(kTile, N - j0);
      for (int m = 0; m < P; ++m) {
#pragma omp simd
        for (std::int64_t j = 0; j < jn; ++j) pop[m][j] = 0;
      }
      for (std::int64_t w = 0; w < words; ++w) {
        std::uint64_t av[P];
        for (int m = 0; m < P; ++m) av[m] = ai[m * g.plane_stride + w];
        const std::uint64_t* btw = g.bt + w * N + j0;
#pragma omp simd
        for (std::int64_t j = 0; j < jn; ++j)
          for (int m = 0; m < P; ++m)
            pop[m][j] += std::popcount(~(av[m] ^ btw[j]));
      }
      if constexpr (kScaled) {
#pragma omp simd
        for (std::int64_t j = 0; j < jn; ++j) {
          std::int64_t v = 0;
          for (int m = 0; m < P; ++m)
            v += g.scale[m] * (2 * (pop[m][j] - pad) - K);
          ci[j0 + j] = static_cast<std::int32_t>(v);
        }
      } else {
#pragma omp simd
        for (std::int64_t j = 0; j < jn; ++j)
          ci[j0 + j] = static_cast<std::int32_t>(2 * (pop[0][j] - pad) - K);
      }
    }
  }
}

void gemm_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const GemmCtx& g = *static_cast<const GemmCtx*>(raw);
  switch (g.planes) {
    case 1:
      if (g.scale[0] == 1) return gemm_rows<1, false>(g, lo, hi);
      return gemm_rows<1, true>(g, lo, hi);
    case 2:
      return gemm_rows<2, true>(g, lo, hi);
    case 3:
      return gemm_rows<3, true>(g, lo, hi);
  }
  BCOP_CHECK(false, "gemm: %lld planes out of [1, %d]",
             static_cast<long long>(g.planes), kMaxPlanes);
}

void thresh_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const ThreshCtx& t = *static_cast<const ThreshCtx*>(raw);
  const std::int64_t C = t.out.cols, wpr = t.out.wpr;
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int32_t* a = t.acc + r * C;
    std::uint64_t* w = t.out.row(r);
    // Branch-free compare mask per 64-channel word (see
    // PreparedThresholds); per-channel fire() branches cost more than the
    // XNOR GEMM itself.
    for (std::int64_t word = 0; word < wpr; ++word) {
      const std::int64_t base = word * 64;
      const std::int64_t nb = std::min<std::int64_t>(64, C - base);
      const std::int32_t* ab = a + base;
      const std::int32_t* tp = t.thr + base;
      const std::int32_t* ip = t.inv + base;
      std::uint64_t bits = 0;
#pragma omp simd reduction(| : bits)
      for (std::int64_t i = 0; i < nb; ++i)
        bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    (ab[i] >= tp[i]) ^ ip[i]))
                << i;
      w[word] = bits;
    }
  }
}

}  // namespace

void im2row_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const Im2RowCtx& t = *static_cast<const Im2RowCtx*>(raw);
  const std::int64_t h = t.h, w = t.w, c = t.c, k = t.k;
  const std::int64_t ho = t.ho, wo = t.wo;
  const std::int64_t wpp = t.pixels.wpr;
  const bool aligned = (c % 64) == 0;
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int64_t img = r / (ho * wo);
    const std::int64_t rem = r - img * ho * wo;
    const std::int64_t y = rem / wo, x = rem - y * wo;
    std::uint64_t* dst = t.rows.row(r);
    // The OR-based paths rely on zero destination bits; arena rows carry
    // stale state, so clear the whole row first (aligned rows are fully
    // overwritten by the word copy below and skip this).
    if (!aligned)
      std::memset(dst, 0, static_cast<std::size_t>(t.rows.wpr) *
                              sizeof(std::uint64_t));
    for (std::int64_t ky = 0; ky < k; ++ky) {
      // The k pixels of one kernel row are adjacent along x, so their
      // packed fields are consecutive rows of `pixels`.
      const std::int64_t p = ((img * h) + y + ky) * w + x;
      if (aligned) {
        // An inline word loop the compiler vectorizes: on the prototypes'
        // 3-12-word kernel rows it matched or beat the AVX-512 copy it
        // replaced (EXPERIMENTS.md, kernel dispatch tiers).
        const std::uint64_t* src = t.pixels.row(p);
        std::uint64_t* d = dst + (ky * k * c) / 64;
        for (std::int64_t i = 0; i < k * wpp; ++i) d[i] = src[i];
      } else if (c < 64) {
        // Single-word fields: inline the append (the call + multi-word
        // generality of append_bits costs more than the OR itself).
        const std::uint64_t* src = t.pixels.row(p);
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::uint64_t v = src[kx * wpp];
          const std::int64_t off = (ky * k + kx) * c;
          const std::int64_t sh = off & 63;
          std::uint64_t* d = dst + (off >> 6);
          d[0] |= v << sh;
          if (sh + c > 64) d[1] |= v >> (64 - sh);
        }
      } else {
        for (std::int64_t kx = 0; kx < k; ++kx)
          append_bits(dst, (ky * k + kx) * c, t.pixels.row(p + kx), c);
      }
    }
  }
}

namespace {

constexpr KernelTable kScalarTable{KernelLevel::kScalar, &gemm_chunk,
                                   &thresh_chunk, &im2row_chunk};

}  // namespace

const KernelTable& scalar_table() { return kScalarTable; }

}  // namespace bcop::tensor::kernels
