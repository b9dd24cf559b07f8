// Non-owning views over bit-packed matrices + allocation-free helpers.
//
// The serving hot path executes into arena-owned storage (xnor::Workspace),
// so the helpers here read and write through spans instead of constructing
// BitMatrix values. The XNOR GEMM, threshold firing and bit-im2row are not
// here: their one implementation each is the per-tier KernelTable
// (tensor/kernels/), driven through the context structs of kernel_api.hpp.
// Every function in this header is allocation-free by contract and runs
// serially on the calling thread; the interpreter calls flatten_pixels
// per image from inside its own fan-out. The steady-state zero-allocation
// test (tests/test_zero_alloc.cpp) holds this layer to that contract.
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

/// Word-major transpose of packed weight rows for the kernel GEMM
/// (kernels::GemmCtx::bt): bt[w * b.rows + j] = b.row(j)[w]. `bt` must
/// hold b.wpr * b.rows words. Runs once at plan-compile time; the GEMM
/// then streams bt.
void transpose_word_major(ConstBitSpan b, std::uint64_t* bt);

/// Concatenate the per-pixel bit-fields of each image into one flat row
/// [N, ppi*C] (bit-domain Flatten) into a span, on the calling thread.
/// Zeroes destination rows before the OR-based path when C is not
/// word-aligned.
void flatten_pixels(ConstBitSpan pixels, std::int64_t n, std::int64_t ppi,
                    std::int64_t c, BitSpan out);

}  // namespace bcop::tensor
