// Span helpers. ALLOCATION-FREE ZONE: the interpreter replays
// flatten_pixels, so this TU must not allocate, lock or throw -- contract
// violations abort through BCOP_CHECK (a throw here would drag
// __cxa_throw/operator delete references into the hot object;
// scripts/audit_hot_path.py audits the compiled artifact for exactly
// that, and rule R6 lints the source). Everything here runs serially on
// the calling thread: R6 keeps the thread pool out of this TU.
#include "tensor/bit_span.hpp"

#include <cstring>

#include "tensor/bit_tensor.hpp"

namespace bcop::tensor {

BitSpan span_of(BitMatrix& m) {
  return {m.rows() > 0 ? m.row(0) : nullptr, m.rows(), m.cols(),
          m.words_per_row()};
}

ConstBitSpan span_of(const BitMatrix& m) {
  return {m.rows() > 0 ? m.row(0) : nullptr, m.rows(), m.cols(),
          m.words_per_row()};
}

void transpose_word_major(ConstBitSpan b, std::uint64_t* bt) {
  for (std::int64_t j = 0; j < b.rows; ++j) {
    const std::uint64_t* bj = b.row(j);
    for (std::int64_t w = 0; w < b.wpr; ++w) bt[w * b.rows + j] = bj[w];
  }
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
