// Plane-generic steps of the plan interpreter (ReBNet residual levels,
// M in [1, 3]; docs/residual-binarization.md).
//
// exec.cpp runs every binary GEMM, every pool and every multi-level
// firing through this TU at any plane count: a classic activation is the
// one-plane, unscaled case, so M = 1 takes the same bodies as M = 3. The
// one selection by plane count left is firing -- exec.cpp fires a single
// output plane through the frozen tier threshold kernel and deeper outputs
// through residual_fire. Every function runs serially over one image's
// rows -- detail::execute fans out over images, never inside a step. Same
// contract as exec.cpp: ALLOCATION-FREE ZONE -- every buffer is a
// Workspace arena slice at a plan-frozen offset and scratch lives in
// fixed-size stack tiles. Enforced by lint rule R6, audited at the
// object level by scripts/audit_hot_path.py, and measured end to end by
// tests/test_zero_alloc.cpp.
#pragma once

#include <cstdint>

#include "xnor/plan.hpp"

namespace bcop::xnor::detail {

/// Clock sums (ns) of a conv step's block loop: the patch gather and the
/// GEMM, each added up over every block it ran.
struct GemmPhaseNs {
  std::uint64_t gather = 0, gemm = 0;
};

/// Plane-fused XNOR GEMM of a kBinConv / kBinDense / kLogits step: GEMM
/// calls (GemmCtx with planes = levels_in and the in_scale_bits as scales)
/// that read each packed weight word once for every input plane and
/// accumulate
///   acc = sum_m in_scale_bits[m] * (XNOR-popcount dot of plane m)
/// in registers, so a scaled acc is 256x the real-valued dot product --
/// exact, since every partial sum is an integer far below 2^25
/// (PreparedThresholds::kAccBound). An unscaled input (a classic sign
/// stream) is one plane at unit scale: acc is the plain popcount dot. A
/// conv step gathers its patch rows of every plane with the frozen im2row
/// kernel into `patch` (sized by compile() for levels_in planes) one
/// 16 KiB block of rows at a time, and multiplies each block while it is
/// still in L1. A non-null `ns` adds the block loop's gather and GEMM time
/// to its sums; null reads no clock. `src` is the plane-0 base of the
/// step's source arena half.
void residual_gemm(const ExecutionPlan& plan, const PlanStep& st,
                   const std::uint64_t* src, std::uint64_t* patch,
                   std::int32_t* acc, GemmPhaseNs* ns = nullptr);

/// Fire the (1 << levels_out) - 1 pattern threshold banks of a step with
/// levels_out in [2, 3] over `rows` rows of integer accumulators, emitting
/// levels_out packed planes at `dst` (the plane-0 address of the first
/// row; plane m at word offset m * out_rows * out_wpr). Per channel the
/// level-m bank is the one the sign pattern of levels 0..m-1 names: bank
/// (1 << m) - 1 + pattern, consecutive from st.prep. The bank is picked by
/// selects on the bits already fired, so the channel loop is branch-free
/// and vectorizes. Full-word stores keep the trailing-bits-zero invariant
/// on reused arena rows.
void residual_fire(const ExecutionPlan& plan, const PlanStep& st,
                   const std::int32_t* acc, std::uint64_t* dst,
                   std::int64_t rows);

/// 2x2 stride-2 max pool over levels_in planes. On a residual encoding
/// the max of four candidates is the lexicographic max of their per-level
/// sign bits (valid because the dyadic scale grid enforces
/// g_m > g_{m+1} + ... strictly, see docs/residual-binarization.md), so
/// plane 0 is the plain word-wise OR -- the whole pool of a one-plane
/// stream -- and each deeper plane ORs only the candidates still tied on
/// all earlier planes: a carried AND-mask per candidate, no per-bit
/// branches. `src`/`dst` are plane-0 bases; plane strides are
/// in_rows * in_wpr and out_rows * out_wpr words.
void residual_pool(const PlanStep& st, const std::uint64_t* src,
                   std::uint64_t* dst);

}  // namespace bcop::xnor::detail
