// AVX-512 kernel tier: hardware VPOPCNTQ popcount (8 x 64-bit lanes per
// instruction) and 16-lane mask-register threshold firing. Its im2row is
// the scalar tier's, like every table's.
#pragma once

#include "tensor/kernels/kernel_api.hpp"

namespace bcop::tensor::kernels {

/// The AVX-512 table, or nullptr when this build could not compile the
/// tier (non-x86 target, or a compiler without -mavx512vpopcntdq). A
/// non-null pointer only promises the code exists -- callers must still
/// gate on runtime CPUID via dispatch.hpp before executing it.
const KernelTable* avx512_table();

}  // namespace bcop::tensor::kernels
