// Patch extraction for valid (unpadded) NHWC convolutions.
//
// BinaryCoP's networks use the FINN CNV topology: every convolution is 3x3,
// stride 1, *valid* padding (32 -> 30 -> 28 -> pool -> 14 -> ...), which is
// what makes conv2_2's post-pool output 5x5 as the paper states. im2row
// lowers such a convolution to one GEMM:
//   patches[N*Ho*Wo, K*K*Ci] x weights[K*K*Ci, Co] = output[N*Ho*Wo, Co]
// and row2im scatters patch gradients back for the backward pass. The
// bit-domain gather the plan interpreter runs is the kernel tables' im2row
// (tensor/kernels/scalar.cpp), with the same (ky, kx, c) patch order.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace bcop::tensor {

/// Output spatial size of a valid KxK stride-1 convolution.
inline std::int64_t conv_out_dim(std::int64_t in, std::int64_t k) {
  return in - k + 1;
}

/// Extract KxK patches of `input` [N,H,W,C] into `rows` [N*Ho*Wo, K*K*C].
/// Patch element order is (ky, kx, c), matching weight layout [K,K,Ci,Co].
void im2row(const Tensor& input, std::int64_t k, Tensor& rows);

/// Scatter-add patch-space gradients `rows_grad` [N*Ho*Wo, K*K*C] back to
/// `input_grad` [N,H,W,C] (which is zeroed first).
void row2im(const Tensor& rows_grad, std::int64_t k, Tensor& input_grad);

}  // namespace bcop::tensor
