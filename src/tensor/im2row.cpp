#include "tensor/im2row.hpp"

#include <cstring>
#include <stdexcept>

namespace bcop::tensor {

void im2row(const Tensor& input, std::int64_t k, Tensor& rows) {
  const Shape& s = input.shape();
  if (s.rank() != 4) throw std::invalid_argument("im2row: input must be rank-4");
  const std::int64_t N = s[0], H = s[1], W = s[2], C = s[3];
  const std::int64_t Ho = conv_out_dim(H, k), Wo = conv_out_dim(W, k);
  if (Ho <= 0 || Wo <= 0)
    throw std::invalid_argument("im2row: kernel larger than input");
  const Shape want{N * Ho * Wo, k * k * C};
  if (rows.shape() != want) rows = Tensor(want);

  const float* in = input.data();
  float* out = rows.data();
  const std::int64_t row_len = k * k * C;
  for (std::int64_t n = 0; n < N; ++n) {
    const float* img = in + n * H * W * C;
    for (std::int64_t y = 0; y < Ho; ++y) {
      for (std::int64_t x = 0; x < Wo; ++x) {
        float* dst = out + ((n * Ho + y) * Wo + x) * row_len;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          // One contiguous copy per kernel row: k*C floats.
          const float* src = img + ((y + ky) * W + x) * C;
          std::memcpy(dst + ky * k * C, src,
                      static_cast<std::size_t>(k * C) * sizeof(float));
        }
      }
    }
  }
}

void row2im(const Tensor& rows_grad, std::int64_t k, Tensor& input_grad) {
  const Shape& s = input_grad.shape();
  if (s.rank() != 4) throw std::invalid_argument("row2im: grad must be rank-4");
  const std::int64_t N = s[0], H = s[1], W = s[2], C = s[3];
  const std::int64_t Ho = conv_out_dim(H, k), Wo = conv_out_dim(W, k);
  const Shape want{N * Ho * Wo, k * k * C};
  if (rows_grad.shape() != want)
    throw std::invalid_argument("row2im: rows shape " + rows_grad.shape().str() +
                                " != expected " + want.str());
  input_grad.fill(0.f);

  const float* rows = rows_grad.data();
  float* out = input_grad.data();
  const std::int64_t row_len = k * k * C;
  for (std::int64_t n = 0; n < N; ++n) {
    float* img = out + n * H * W * C;
    for (std::int64_t y = 0; y < Ho; ++y) {
      for (std::int64_t x = 0; x < Wo; ++x) {
        const float* src = rows + ((n * Ho + y) * Wo + x) * row_len;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          float* dst = img + ((y + ky) * W + x) * C;
          const float* s_row = src + ky * k * C;
          for (std::int64_t i = 0; i < k * C; ++i) dst[i] += s_row[i];
        }
      }
    }
  }
}

}  // namespace bcop::tensor
