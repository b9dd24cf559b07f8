// AVX2 kernels. ALLOCATION-FREE ZONE: no allocation, locking or throwing
// (lint R6/R9 + scripts/audit_hot_path.py audit this object).
//
// The whole implementation is guarded on __AVX2__ so the TU always
// compiles: without the flag it exports a nullptr table and dispatch
// falls back to scalar. With it, only runtime CPUID (dispatch.cpp) may
// route execution here.
//
// GEMM popcount strategy (Mula/Kurz/Lemire, "Faster Population Counts
// Using AVX2 Instructions"): XNOR words are reduced 4 output lanes at a
// time; blocks of 16 words go through a Harley-Seal carry-save adder so
// only one in sixteen vectors pays the vpshufb nibble-LUT popcount, which
// roughly doubles popcount throughput on long rows (binary dense layers
// stream 64-128 words per row).
#include "tensor/kernels/avx2.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/bit_tensor.hpp"

namespace bcop::tensor::kernels {

namespace {

/// Per-64-bit-lane popcount of a 256-bit vector: vpshufb nibble lookup,
/// summed into the four quadwords with vpsadbw.
inline __m256i popcount256(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/// Carry-save adder step: (h, l) = a + b + c in bitwise carry-save form.
inline void csa(__m256i& h, __m256i& l, __m256i a, __m256i b, __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

/// GEMM rows [lo, hi) over P planes of A (GemmCtx). P = 1 without
/// kScaled is the classic single-plane loop.
template <int P, bool kScaled>
void gemm_rows(const GemmCtx& g, std::int64_t lo, std::int64_t hi) {
  const std::int64_t N = g.n, K = g.a.cols;
  const std::int64_t words = g.a.wpr, pad = g.a.pad();
  const __m256i all_ones = _mm256_set1_epi64x(-1);
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::uint64_t* ai = g.a.row(i);
    std::int32_t* ci = g.c + i * N;
    std::int64_t j0 = 0;
    // Four output lanes share every activation word: one broadcast, four
    // XNOR+popcount columns of the word-major weight matrix.
    for (; j0 + 4 <= N; j0 += 4) {
      // xnor(m, w) = ~(A_m[i,w] ^ Bt[w, j0..j0+3]), plane m's matching-bit
      // mask.
      const auto xnor_words = [&](int m, std::int64_t w) {
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(g.bt + w * N + j0));
        return _mm256_xor_si256(
            _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(
                                 ai[m * g.plane_stride + w])),
                             bv),
            all_ones);
      };
      // Whole 16-word blocks go through the Harley-Seal tree one plane at
      // a time: its carry-save state fills the register file, so planes
      // take turns, and the 4-lane weight slice (32 bytes a word) stays
      // in L1 between them.
      __m256i total[P];
      const std::int64_t blocked = words / 16 * 16;
      for (int m = 0; m < P; ++m) {
        __m256i t = _mm256_setzero_si256();
        __m256i ones = _mm256_setzero_si256(), twos = _mm256_setzero_si256();
        __m256i fours = _mm256_setzero_si256(),
                eights = _mm256_setzero_si256();
        for (std::int64_t w = 0; w < blocked; w += 16) {
          __m256i twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens;
          csa(twosA, ones, ones, xnor_words(m, w + 0), xnor_words(m, w + 1));
          csa(twosB, ones, ones, xnor_words(m, w + 2), xnor_words(m, w + 3));
          csa(foursA, twos, twos, twosA, twosB);
          csa(twosA, ones, ones, xnor_words(m, w + 4), xnor_words(m, w + 5));
          csa(twosB, ones, ones, xnor_words(m, w + 6), xnor_words(m, w + 7));
          csa(foursB, twos, twos, twosA, twosB);
          csa(eightsA, fours, fours, foursA, foursB);
          csa(twosA, ones, ones, xnor_words(m, w + 8), xnor_words(m, w + 9));
          csa(twosB, ones, ones, xnor_words(m, w + 10),
              xnor_words(m, w + 11));
          csa(foursA, twos, twos, twosA, twosB);
          csa(twosA, ones, ones, xnor_words(m, w + 12),
              xnor_words(m, w + 13));
          csa(twosB, ones, ones, xnor_words(m, w + 14),
              xnor_words(m, w + 15));
          csa(foursB, twos, twos, twosA, twosB);
          csa(eightsB, fours, fours, foursA, foursB);
          csa(sixteens, eights, eights, eightsA, eightsB);
          t = _mm256_add_epi64(t, popcount256(sixteens));
        }
        // t = 16*sixteens-count + carry-save residues.
        t = _mm256_slli_epi64(t, 4);
        t = _mm256_add_epi64(t, _mm256_slli_epi64(popcount256(eights), 3));
        t = _mm256_add_epi64(t, _mm256_slli_epi64(popcount256(fours), 2));
        t = _mm256_add_epi64(t, _mm256_slli_epi64(popcount256(twos), 1));
        total[m] = _mm256_add_epi64(t, popcount256(ones));
      }
      // Plain tail words: one weight load serves every plane.
      for (std::int64_t w = blocked; w < words; ++w)
        for (int m = 0; m < P; ++m)
          total[m] =
              _mm256_add_epi64(total[m], popcount256(xnor_words(m, w)));
      alignas(32) std::int64_t pop[4];
      if constexpr (kScaled) {
        // sum_m g_m * (2 * (pop_m - pad) - K) in four 64-bit lanes; each
        // dot and scale fits the signed 32-bit vpmuldq operands.
        const __m256i bias = _mm256_set1_epi64x(2 * pad + K);
        __m256i acc = _mm256_setzero_si256();
        for (int m = 0; m < P; ++m) {
          const __m256i dot =
              _mm256_sub_epi64(_mm256_slli_epi64(total[m], 1), bias);
          acc = _mm256_add_epi64(
              acc, _mm256_mul_epi32(dot, _mm256_set1_epi64x(g.scale[m])));
        }
        _mm256_store_si256(reinterpret_cast<__m256i*>(pop), acc);
        for (int j = 0; j < 4; ++j)
          ci[j0 + j] = static_cast<std::int32_t>(pop[j]);
      } else {
        _mm256_store_si256(reinterpret_cast<__m256i*>(pop), total[0]);
        for (int j = 0; j < 4; ++j)
          ci[j0 + j] = static_cast<std::int32_t>(2 * (pop[j] - pad) - K);
      }
    }
    // Lane tail (N % 4): plain scalar popcount.
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
  const __m256i zero = _mm256_setzero_si256();
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
      // Eight channels per compare: fired = (acc >= thr) ^ inv written as
      // cmpgt(thr, acc) XOR cmpeq(inv, 0), movemask'd to one bit per lane.
      for (; i + 8 <= nb; i += 8) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ab + i));
        const __m256i tv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tp + i));
        const __m256i iv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ip + i));
        const __m256i fired = _mm256_xor_si256(
            _mm256_cmpgt_epi32(tv, av), _mm256_cmpeq_epi32(iv, zero));
        bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    _mm256_movemask_ps(_mm256_castsi256_ps(fired))))
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

/// 256-bit-wide word copy (the patch gather is bandwidth-bound; wider
/// moves are all a SIMD tier can add to a copy kernel).
inline void copy_words(std::uint64_t* dst, const std::uint64_t* src,
                       std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  for (; i < n; ++i) dst[i] = src[i];
}

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
    if (!aligned)
      std::memset(dst, 0, static_cast<std::size_t>(t.rows.wpr) *
                              sizeof(std::uint64_t));
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const std::int64_t p = ((img * h) + y + ky) * w + x;
      if (aligned) {
        copy_words(dst + (ky * k * c) / 64, t.pixels.row(p), k * wpp);
      } else if (c < 64) {
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

constexpr KernelTable kAvx2Table{KernelLevel::kAvx2, &gemm_chunk,
                                 &thresh_chunk, &im2row_chunk};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

}  // namespace bcop::tensor::kernels

#else  // !defined(__AVX2__)

namespace bcop::tensor::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace bcop::tensor::kernels

#endif
