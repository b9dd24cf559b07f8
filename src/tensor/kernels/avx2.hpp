// AVX2 kernel tier: vpshufb nibble-LUT popcount with a Harley-Seal
// carry-save accumulator for long rows (GEMM) and 8-lane compare+movemask
// threshold firing. Its im2row is the scalar tier's, like every table's.
#pragma once

#include "tensor/kernels/kernel_api.hpp"

namespace bcop::tensor::kernels {

/// The AVX2 table, or nullptr when this build could not compile the tier
/// (non-x86 target, or a compiler without -mavx2). A non-null pointer only
/// promises the code exists -- callers must still gate on runtime CPUID
/// via dispatch.hpp before executing it.
const KernelTable* avx2_table();

}  // namespace bcop::tensor::kernels
