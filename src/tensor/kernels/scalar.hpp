// Scalar reference tier: portable C++ kernels (autovectorized through
// `#pragma omp simd`). Every other tier is differentially tested against
// this table -- it defines the semantics.
#pragma once

#include "tensor/kernels/kernel_api.hpp"

namespace bcop::tensor::kernels {

/// Always available, on every architecture.
const KernelTable& scalar_table();

/// Bit-domain im2row chunk (Im2RowCtx): the one patch gather in the tree.
/// A copy loop has nothing for wider registers to add, so every tier's
/// table points its `im2row` field here.
void im2row_chunk(void* ctx, std::int64_t lo, std::int64_t hi);

}  // namespace bcop::tensor::kernels
