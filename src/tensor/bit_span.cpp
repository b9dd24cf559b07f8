// Span-kernel entry points. ALLOCATION-FREE ZONE: these are the kernels
// the plan interpreter replays, so this TU must not allocate, lock or
// throw -- contract violations abort through BCOP_CHECK (a throw here
// would drag __cxa_throw/operator delete references into the hot object;
// scripts/audit_hot_path.py audits the compiled artifact for exactly
// that, and rules R6/R9 lint the source).
//
// The GEMM / threshold / im2row kernel *bodies* live in
// src/tensor/kernels/ (scalar reference + SIMD tiers); the wrappers here
// resolve the active dispatch table per call, which keeps every legacy
// caller (engine fold paths, tests, benches) on the best tier, and fan
// out over the global pool. The plan interpreter bypasses these wrappers
// entirely -- it replays the function pointers its plan froze at compile
// time. flatten_pixels runs serially: the interpreter calls it on one
// image's rows from inside its single per-image fan-out.
#include "tensor/bit_span.hpp"

#include <algorithm>
#include <cstring>

#include "parallel/thread_pool.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/im2row.hpp"
#include "tensor/kernels/dispatch.hpp"

namespace bcop::tensor {

namespace {

using parallel::ThreadPool;

// Kernel chunk functions fan out through the pool without adapters.
static_assert(std::is_same_v<kernels::KernelFn, ThreadPool::ChunkFn>,
              "kernel tables must match the thread pool's chunk shape");

}  // namespace

BitSpan span_of(BitMatrix& m) {
  return {m.rows() > 0 ? m.row(0) : nullptr, m.rows(), m.cols(),
          m.words_per_row()};
}

ConstBitSpan span_of(const BitMatrix& m) {
  return {m.rows() > 0 ? m.row(0) : nullptr, m.rows(), m.cols(),
          m.words_per_row()};
}

void pack_rows(const float* src, std::int64_t rows, std::int64_t cols,
               BitSpan dst) {
  BCOP_CHECK(dst.rows == rows && dst.cols == cols,
             "pack_rows: dst [%lld, %lld] != src [%lld, %lld]",
             static_cast<long long>(dst.rows), static_cast<long long>(dst.cols),
             static_cast<long long>(rows), static_cast<long long>(cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* s = src + r * cols;
    std::uint64_t* w = dst.row(r);
    for (std::int64_t word = 0; word < dst.wpr; ++word) {
      std::uint64_t bits = 0;
      const std::int64_t base = word * 64;
      const std::int64_t n = std::min<std::int64_t>(64, cols - base);
      for (std::int64_t i = 0; i < n; ++i)
        bits |= static_cast<std::uint64_t>(s[base + i] >= 0.f) << i;
      w[word] = bits;
    }
  }
}

void transpose_word_major(ConstBitSpan b, std::uint64_t* bt) {
  for (std::int64_t j = 0; j < b.rows; ++j) {
    const std::uint64_t* bj = b.row(j);
    for (std::int64_t w = 0; w < b.wpr; ++w) bt[w * b.rows + j] = bj[w];
  }
}

void binary_gemm_pre(ConstBitSpan a, const std::uint64_t* bt, std::int64_t n,
                     std::int32_t* c) {
  kernels::GemmCtx ctx{a, bt, n, c};
  ThreadPool::global().for_chunks(0, a.rows, kernels::active_table().gemm,
                                  &ctx);
}

void bit_im2row(ConstBitSpan pixels, std::int64_t n, std::int64_t h,
                std::int64_t w, std::int64_t c, std::int64_t k, BitSpan rows) {
  BCOP_CHECK(pixels.rows == n * h * w && pixels.cols == c,
             "bit_im2row: pixels span [%lld, %lld] != [%lld, %lld]",
             static_cast<long long>(pixels.rows),
             static_cast<long long>(pixels.cols),
             static_cast<long long>(n * h * w), static_cast<long long>(c));
  const std::int64_t ho = conv_out_dim(h, k), wo = conv_out_dim(w, k);
  BCOP_CHECK(ho > 0 && wo > 0,
             "bit_im2row: kernel %lld larger than input %lldx%lld",
             static_cast<long long>(k), static_cast<long long>(h),
             static_cast<long long>(w));
  BCOP_CHECK(rows.rows == n * ho * wo && rows.cols == k * k * c,
             "bit_im2row: rows span [%lld, %lld] != [%lld, %lld]",
             static_cast<long long>(rows.rows),
             static_cast<long long>(rows.cols),
             static_cast<long long>(n * ho * wo),
             static_cast<long long>(k * k * c));
  kernels::Im2RowCtx ctx{pixels, rows, h, w, c, k, ho, wo};
  ThreadPool::global().for_chunks(0, n * ho * wo,
                                  kernels::active_table().im2row, &ctx);
}

void flatten_pixels(ConstBitSpan pixels, std::int64_t n, std::int64_t ppi,
                    std::int64_t c, BitSpan out) {
  BCOP_CHECK(out.rows == n && out.cols == ppi * c,
             "flatten_pixels: out span [%lld, %lld] != [%lld, %lld]",
             static_cast<long long>(out.rows), static_cast<long long>(out.cols),
             static_cast<long long>(n), static_cast<long long>(ppi * c));
  const std::int64_t wpp = pixels.wpr;
  if (c % 64 == 0) {
    for (std::int64_t i = 0; i < n; ++i)
      std::memcpy(out.row(i), pixels.row(i * ppi),
                  static_cast<std::size_t>(ppi * wpp) * sizeof(std::uint64_t));
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    std::uint64_t* dst = out.row(i);
    std::memset(dst, 0,
                static_cast<std::size_t>(out.wpr) * sizeof(std::uint64_t));
    for (std::int64_t p = 0; p < ppi; ++p)
      append_bits(dst, p * c, pixels.row(i * ppi + p), c);
  }
}

}  // namespace bcop::tensor
