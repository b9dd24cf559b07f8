// AVX-512 kernels. ALLOCATION-FREE ZONE: no allocation, locking or
// throwing (lint R6 + scripts/audit_hot_path.py audit this object).
//
// Guarded on the full feature set the code needs -- F (512-bit vectors),
// BW (byte/word ops), VPOPCNTDQ (vpopcntq) -- so the TU always compiles;
// without the flags it exports a nullptr table. Runtime CPUID (including
// the OS XCR0 ZMM-state check) gates execution in dispatch.cpp.
//
// Unlike the AVX2 tier there is no Harley-Seal accumulator here: vpopcntq
// counts a full 512-bit vector per instruction, so the carry-save
// machinery would only add latency in front of a one-uop popcount.
#include "tensor/kernels/avx512.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

#include "tensor/kernels/scalar.hpp"

namespace bcop::tensor::kernels {

namespace {

/// GEMM rows [lo, hi) over P planes of A (GemmCtx). P = 1 without
/// kScaled is the classic single-plane loop.
template <int P, bool kScaled>
void gemm_rows(const GemmCtx& g, std::int64_t lo, std::int64_t hi) {
  const std::int64_t N = g.n, K = g.a.cols;
  const std::int64_t words = g.a.wpr, pad = g.a.pad();
  const __m512i all_ones = _mm512_set1_epi64(-1);
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::uint64_t* ai = g.a.row(i);
    std::int32_t* ci = g.c + i * N;
    std::int64_t j0 = 0;
    // Eight output lanes per sweep: broadcast the activation word, XNOR
    // against eight word-major weight columns, vpopcntq, accumulate. One
    // weight load serves every plane.
    for (; j0 + 8 <= N; j0 += 8) {
      __m512i total[P];
      for (int m = 0; m < P; ++m) total[m] = _mm512_setzero_si512();
      for (std::int64_t w = 0; w < words; ++w) {
        const __m512i bv = _mm512_loadu_si512(g.bt + w * N + j0);
        for (int m = 0; m < P; ++m) {
          const __m512i matches = _mm512_xor_si512(
              _mm512_xor_si512(_mm512_set1_epi64(static_cast<long long>(
                                   ai[m * g.plane_stride + w])),
                               bv),
              all_ones);
          total[m] = _mm512_add_epi64(total[m], _mm512_popcnt_epi64(matches));
        }
      }
      if constexpr (kScaled) {
        // sum_m g_m * (2 * (pop_m - pad) - K) in eight 64-bit lanes; each
        // dot and scale fits the signed 32-bit vpmuldq operands, and the
        // narrowing store truncates exactly like the scalar tier's cast.
        // (All-ones maskz forms: GCC 12 flags the unmasked intrinsics'
        // undefined pass-through operand with -Wmaybe-uninitialized.)
        const __m512i bias = _mm512_set1_epi64(2 * pad + K);
        __m512i acc = _mm512_setzero_si512();
        for (int m = 0; m < P; ++m) {
          const __m512i dot =
              _mm512_sub_epi64(_mm512_add_epi64(total[m], total[m]), bias);
          acc = _mm512_add_epi64(
              acc, _mm512_maskz_mul_epi32(0xff, dot,
                                          _mm512_set1_epi64(g.scale[m])));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + j0),
                            _mm512_maskz_cvtepi64_epi32(0xff, acc));
      } else {
        alignas(64) std::int64_t pop[8];
        _mm512_store_si512(pop, total[0]);
        for (int j = 0; j < 8; ++j)
          ci[j0 + j] = static_cast<std::int32_t>(2 * (pop[j] - pad) - K);
      }
    }
    // Lane tail (N % 8): plain scalar popcount.
    for (; j0 < N; ++j0) {
      std::int64_t v = 0;
      for (int m = 0; m < P; ++m) {
        const std::uint64_t* am = ai + m * g.plane_stride;
        std::int64_t pop = 0;
        for (std::int64_t w = 0; w < words; ++w)
          pop += std::popcount(~(am[w] ^ g.bt[w * N + j0]));
        v += (kScaled ? g.scale[m] : 1) * (2 * (pop - pad) - K);
      }
      ci[j0] = static_cast<std::int32_t>(v);
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
    for (std::int64_t word = 0; word < wpr; ++word) {
      const std::int64_t base = word * 64;
      const std::int64_t nb = std::min<std::int64_t>(64, C - base);
      const std::int32_t* ab = a + base;
      const std::int32_t* tp = t.thr + base;
      const std::int32_t* ip = t.inv + base;
      std::uint64_t bits = 0;
      std::int64_t i = 0;
      // Sixteen channels per compare, straight into mask registers:
      // fired = (acc >= thr) XOR (inv != 0).
      for (; i + 16 <= nb; i += 16) {
        const __m512i av = _mm512_loadu_si512(ab + i);
        const __m512i tv = _mm512_loadu_si512(tp + i);
        const __m512i iv = _mm512_loadu_si512(ip + i);
        const __mmask16 ge = _mm512_cmp_epi32_mask(av, tv, _MM_CMPINT_NLT);
        const __mmask16 invm = _mm512_test_epi32_mask(iv, iv);
        bits |= static_cast<std::uint64_t>(
                    static_cast<std::uint16_t>(ge ^ invm))
                << i;
      }
      for (; i < nb; ++i)
        bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    (ab[i] >= tp[i]) ^ ip[i]))
                << i;
      w[word] = bits;
    }
  }
}

constexpr KernelTable kAvx512Table{KernelLevel::kAvx512, &gemm_chunk,
                                   &thresh_chunk, &im2row_chunk};

}  // namespace

const KernelTable* avx512_table() { return &kAvx512Table; }

}  // namespace bcop::tensor::kernels

#else  // tier not compiled

namespace bcop::tensor::kernels {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace bcop::tensor::kernels

#endif
