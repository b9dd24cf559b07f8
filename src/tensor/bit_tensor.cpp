#include "tensor/bit_tensor.hpp"

#include <algorithm>
#include <stdexcept>

namespace bcop::tensor {

BitMatrix::BitMatrix(std::int64_t rows, std::int64_t cols) {
  if (rows < 0 || cols < 0)
    throw std::invalid_argument("BitMatrix: negative dimensions");
  rows_ = rows;
  cols_ = cols;
  wpr_ = (cols + 63) / 64;
  data_.assign(static_cast<std::size_t>(rows * wpr_), 0ull);
}

void BitMatrix::pack_row(std::int64_t r, const float* src) {
  std::uint64_t* w = row(r);
  for (std::int64_t word = 0; word < wpr_; ++word) {
    std::uint64_t bits = 0;
    const std::int64_t base = word * 64;
    const std::int64_t n = std::min<std::int64_t>(64, cols_ - base);
    for (std::int64_t i = 0; i < n; ++i)
      bits |= static_cast<std::uint64_t>(src[base + i] >= 0.f) << i;
    w[word] = bits;
  }
}

BitMatrix pack_matrix(const float* src, std::int64_t rows, std::int64_t cols) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) m.pack_row(r, src + r * cols);
  return m;
}

void append_bits(std::uint64_t* dst, std::int64_t dst_off,
                 const std::uint64_t* src, std::int64_t nbits) {
  if (nbits <= 0) return;
  const std::int64_t shift = dst_off & 63;
  std::uint64_t* d = dst + (dst_off >> 6);
  const std::int64_t words = (nbits + 63) / 64;
  if (shift == 0) {
    for (std::int64_t w = 0; w < words; ++w) d[w] |= src[w];
    return;
  }
  for (std::int64_t w = 0; w < words; ++w) {
    const std::uint64_t v = src[w];
    d[w] |= v << shift;
    // The spill word only exists in dst when real (sub-nbits) bits land in
    // it; src padding above nbits is zero, so `hi == 0` proves the write
    // would be both out of range and a no-op.
    const std::uint64_t hi = v >> (64 - shift);
    if (hi != 0) d[w + 1] |= hi;
  }
}

std::int64_t xnor_match_count(const std::uint64_t* a, const std::uint64_t* b,
                              std::int64_t words, std::int64_t pad) {
  std::int64_t pop = 0;
  for (std::int64_t i = 0; i < words; ++i)
    pop += std::popcount(~(a[i] ^ b[i]));
  return pop - pad;
}

}  // namespace bcop::tensor
