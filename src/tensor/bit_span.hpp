// Non-owning views over bit-packed matrices + allocation-free kernels.
//
// The serving hot path executes into arena-owned storage (xnor::Workspace),
// so the kernels here mirror the BitMatrix operations in bit_tensor.hpp /
// im2row.hpp but read and write through spans instead of constructing
// matrices. Every function in this header is allocation-free by contract:
// scratch lives in fixed-size stack tiles, and the GEMM and im2row
// wrappers fan out through ThreadPool::for_chunks (function pointer +
// context, no std::function); flatten_pixels runs serially, since the
// interpreter calls it per image from inside its own fan-out.
// The steady-state zero-allocation test (tests/test_zero_alloc.cpp) holds
// this layer to that contract.
//
// Invariant shared with BitMatrix: unused trailing bits of every row are
// zero. Producers into reused arena rows must re-establish it themselves
// (full-word stores do so for free; OR-based writers zero the row first).
#pragma once

#include <cstdint>

#include "util/check.hpp"

namespace bcop::tensor {

class BitMatrix;

/// Read-only view of `rows` packed bit rows of `cols` valid bits, each
/// occupying `wpr` 64-bit words.
struct ConstBitSpan {
  const std::uint64_t* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t wpr = 0;

  const std::uint64_t* row(std::int64_t r) const {
    BCOP_DCHECK(r >= 0 && r < rows, "row %lld out of [0, %lld)",
                static_cast<long long>(r), static_cast<long long>(rows));
    return data + r * wpr;
  }
  std::int64_t pad() const { return wpr * 64 - cols; }
};

/// Mutable variant of ConstBitSpan.
struct BitSpan {
  std::uint64_t* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t wpr = 0;

  std::uint64_t* row(std::int64_t r) const {
    BCOP_DCHECK(r >= 0 && r < rows, "row %lld out of [0, %lld)",
                static_cast<long long>(r), static_cast<long long>(rows));
    return data + r * wpr;
  }
  std::int64_t pad() const { return wpr * 64 - cols; }

  operator ConstBitSpan() const { return {data, rows, cols, wpr}; }
};

/// Words per packed row of `cols` bits.
inline std::int64_t words_for_bits(std::int64_t cols) {
  return (cols + 63) / 64;
}

/// Views over an owning BitMatrix (rows/cols/wpr taken from the matrix).
BitSpan span_of(BitMatrix& m);
ConstBitSpan span_of(const BitMatrix& m);

/// Pack `rows` float rows of `cols` values by sign (v >= 0 -> bit 1) into
/// `dst`. Full-word stores: padding bits come out zero even on reused rows.
void pack_rows(const float* src, std::int64_t rows, std::int64_t cols,
               BitSpan dst);

/// Word-major transpose of packed weight rows for binary_gemm_pre:
/// bt[w * b.rows + j] = b.row(j)[w]. `bt` must hold b.wpr * b.rows words.
/// Runs once at plan-compile time; the GEMM then streams bt.
void transpose_word_major(ConstBitSpan b, std::uint64_t* bt);

/// Binary GEMM against a pre-transposed weight matrix:
///   C[M, n] (int32) = A[M, K] x B[n, K]^T  with {-1,+1} semantics,
/// where `bt` is transpose_word_major of the packed weight rows and
/// `k` = A.cols. Work is split over ThreadPool::global() along M; per-row
/// popcount accumulators live in a fixed stack tile, so the call performs
/// no heap allocation.
void binary_gemm_pre(ConstBitSpan a, const std::uint64_t* bt, std::int64_t n,
                     std::int32_t* c);

/// Bit-domain im2row into a span (see tensor::bit_im2row): `pixels` is the
/// pixel-major packed activation batch [N*H*W, C], `rows` receives packed
/// patch rows [N*Ho*Wo, K*K*C]. Unaligned (OR-based) paths zero each
/// destination row first, so reused arena rows stay correct.
void bit_im2row(ConstBitSpan pixels, std::int64_t n, std::int64_t h,
                std::int64_t w, std::int64_t c, std::int64_t k, BitSpan rows);

/// Concatenate the per-pixel bit-fields of each image into one flat row
/// [N, ppi*C] (bit-domain Flatten) into a span, on the calling thread.
/// Zeroes destination rows before the OR-based path when C is not
/// word-aligned.
void flatten_pixels(ConstBitSpan pixels, std::int64_t n, std::int64_t ppi,
                    std::int64_t c, BitSpan out);

}  // namespace bcop::tensor
