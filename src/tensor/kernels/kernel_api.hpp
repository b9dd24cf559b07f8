// Kernel dispatch vocabulary for the bit-domain hot path.
//
// The three kernels the plan interpreter spends its cycles in -- popcount
// GEMM, packed threshold firing and bit-im2row -- sit in one KernelTable
// per ISA tier (scalar reference, AVX2, AVX-512 VPOPCNTDQ). GEMM and
// threshold firing have one body per tier; bit-im2row is a word copy with
// nothing for wider registers to add, so it has one body (scalar.cpp) that
// every table points at. Runtime CPUID detection picks the best
// table once (src/tensor/kernels/dispatch.cpp) and ExecutionPlan::compile
// freezes the chosen table into the plan, so the interpreter replay stays
// branch-free: it calls whatever table the plan recorded, never
// re-detects, never switches.
//
// Every chunk function in every tier is allocation-free, lock-free and
// throw-free by contract -- the tiers are audited at the object level by
// scripts/audit_hot_path.py exactly like the interpreter TU, and rule R6
// lints the sources (it also keeps the thread pool out of the tier TUs:
// a kernel never fans out itself). The plan interpreter calls each
// chunk function directly over one image's rows; the tables are the only
// XNOR GEMM and bit-im2row in the tree.
//
// All tiers compute bit-identical results: the arithmetic is integral
// (popcounts, compares, shifts), so the differential suite
// (tests/test_kernel_dispatch.cpp) asserts exact equality against the
// scalar reference on dirty buffers.
#pragma once

#include <cstdint>

#include "tensor/bit_span.hpp"

namespace bcop::tensor::kernels {

/// Dispatch tiers, ordered worst to best. The numeric order matters:
/// dispatch clamps a requested tier down to the best available one.
enum class KernelLevel : std::uint8_t {
  kScalar = 0,  // portable reference (autovectorized via `#pragma omp simd`)
  kAvx2 = 1,    // AVX2, Harley-Seal + vpshufb-nibble popcount
  kAvx512 = 2,  // AVX-512F/BW + VPOPCNTDQ hardware popcount
};
inline constexpr int kKernelLevelCount = 3;

/// Chunk function over rows [lo, hi) of its context.
using KernelFn = void (*)(void* ctx, std::int64_t lo, std::int64_t hi);

/// Most packed planes one GEMM call reads (ReBNet residual levels, M <= 3).
inline constexpr int kMaxPlanes = 3;

/// Context for the popcount GEMM chunk: C[M, n] (int32, plus-minus-one
/// semantics) = A[M, K] x B[n, K]^T where `bt` is the word-major
/// pre-transposed packed weight matrix (tensor::transpose_word_major).
/// Chunks range over rows of A.
///
/// Residual form (docs/residual-binarization.md): A may carry `planes`
/// P in [1, 3] packed planes of one geometry, plane m at word offset
/// m * plane_stride from a.data, and then
///   C[i, j] = sum_m scale[m] * (2 * (pop_m[i, j] - pad) - K),
/// summed in registers with every weight word read once for all P planes.
/// The defaults -- one plane at unit scale -- are the classic GEMM, so a
/// four-field GemmCtx{a, bt, n, c} keeps its single-plane meaning and
/// every tier runs its single-plane loop for it.
struct GemmCtx {
  ConstBitSpan a;
  const std::uint64_t* bt;
  std::int64_t n;
  std::int32_t* c;
  std::int64_t planes = 1;
  std::int64_t plane_stride = 0;  // words between planes of A
  std::int32_t scale[kMaxPlanes] = {1, 1, 1};
};

/// Context for packed threshold firing: int32 accumulators -> packed sign
/// bits via the branch-free (acc >= thr) ^ inv compare per channel
/// (xnor::PreparedThresholds layout). Chunks range over output rows.
struct ThreshCtx {
  const std::int32_t* acc;
  const std::int32_t* thr;  // out.cols entries
  const std::int32_t* inv;  // out.cols entries, 0 or 1
  BitSpan out;
};

/// Context for bit-domain im2row: pixel-major packed activations
/// [N*H*W, C] -> packed patch rows [N*Ho*Wo, K*K*C]. Chunks range over
/// patch rows. OR-based (unaligned) paths must zero each destination row
/// first -- patch rows live in a reused arena.
struct Im2RowCtx {
  ConstBitSpan pixels;
  BitSpan rows;
  std::int64_t h, w, c, k, ho, wo;
};

/// One tier's kernel set. Tables are static-storage constants inside each
/// tier TU; a KernelTable pointer stays valid for the process lifetime, so
/// a plan holds its tier's table by pointer.
struct KernelTable {
  KernelLevel level;
  KernelFn gemm;    // GemmCtx
  KernelFn thresh;  // ThreshCtx
  KernelFn im2row;  // Im2RowCtx
};

}  // namespace bcop::tensor::kernels
