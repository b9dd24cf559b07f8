// Bit-packed binary matrices and the XNOR-popcount dot product.
//
// A value +1 is stored as bit 1 and -1 as bit 0 (the same convention the
// paper's hardware uses, Sec. III-A). For two {-1,+1} vectors a and b of
// length K packed this way,
//   dot(a, b) = 2 * popcount(XNOR(a, b)) - K
// Rows are padded to whole 64-bit words with zero bits in *both* operands;
// each padding position contributes XNOR(0,0) = 1 to the popcount, so the
// dot product subtracts the pad count once more:
//   dot = 2 * (popcount - pad) - K
// This keeps the inner loop free of masking.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace bcop::tensor {

/// Row-major matrix of packed bits. Each row occupies words_per_row()
/// uint64 words; unused trailing bits are zero.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::int64_t rows, std::int64_t cols);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t words_per_row() const { return wpr_; }

  const std::uint64_t* row(std::int64_t r) const {
    BCOP_DCHECK(r >= 0 && r < rows_, "row %lld out of [0, %lld)",
                static_cast<long long>(r), static_cast<long long>(rows_));
    return data_.data() + r * wpr_;
  }
  std::uint64_t* row(std::int64_t r) {
    BCOP_DCHECK(r >= 0 && r < rows_, "row %lld out of [0, %lld)",
                static_cast<long long>(r), static_cast<long long>(rows_));
    return data_.data() + r * wpr_;
  }

  /// Set bit (r, c) from a sign: v >= 0 encodes +1.
  void set_from_sign(std::int64_t r, std::int64_t c, float v) {
    BCOP_DCHECK(c >= 0 && c < cols_, "bit %lld out of [0, %lld)",
                static_cast<long long>(c), static_cast<long long>(cols_));
    if (v >= 0.f)
      row(r)[c >> 6] |= (1ull << (c & 63));
    else
      row(r)[c >> 6] &= ~(1ull << (c & 63));
  }

  bool get(std::int64_t r, std::int64_t c) const {
    BCOP_DCHECK(c >= 0 && c < cols_, "bit %lld out of [0, %lld)",
                static_cast<long long>(c), static_cast<long long>(cols_));
    return (row(r)[c >> 6] >> (c & 63)) & 1ull;
  }

  /// Pack a full float row (length cols) by sign.
  void pack_row(std::int64_t r, const float* src);

  const std::vector<std::uint64_t>& storage() const { return data_; }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t wpr_ = 0;
  std::vector<std::uint64_t> data_;
};

/// Pack every row of a row-major float matrix [rows, cols] by sign.
BitMatrix pack_matrix(const float* src, std::int64_t rows, std::int64_t cols);

/// OR `nbits` bits (taken from bit 0 of `src`) into `dst` starting at bit
/// `dst_off`. Requirements: the target bits of `dst` are zero (freshly
/// constructed BitMatrix rows qualify) and the bits of `src` above `nbits`
/// are zero (BitMatrix row padding qualifies). This is the building block
/// for concatenating per-pixel channel bit-fields into im2row patch rows
/// when the field width is not word-aligned.
void append_bits(std::uint64_t* dst, std::int64_t dst_off,
                 const std::uint64_t* src, std::int64_t nbits);

/// XNOR-popcount accumulation between two packed rows of length `cols`
/// spanning `words` words: returns popcount(XNOR) - pad, i.e. the number of
/// matching positions among the valid bits.
std::int64_t xnor_match_count(const std::uint64_t* a, const std::uint64_t* b,
                              std::int64_t words, std::int64_t pad);

/// dot(a, b) over {-1,+1} vectors of length `cols`.
inline std::int64_t xnor_dot(const std::uint64_t* a, const std::uint64_t* b,
                             std::int64_t cols, std::int64_t words) {
  const std::int64_t pad = words * 64 - cols;
  return 2 * xnor_match_count(a, b, words, pad) - cols;
}

}  // namespace bcop::tensor
