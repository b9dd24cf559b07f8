// Runtime kernel-tier dispatch: CPUID feature detection, the
// BCOP_KERNEL_LEVEL override, and table selection.
//
// Selection happens once per process (cached in atomics, re-resolvable
// when the override changes) and is consumed at *plan-compile* time:
// ExecutionPlan::compile freezes one pointer to the chosen table in the
// plan, so the interpreter replay never consults this module.
//
// Tier resolution order:
//   1. the programmatic override (set_level_override -- tests and tools),
//   2. the BCOP_KERNEL_LEVEL environment variable
//      ("scalar" | "avx2" | "avx512" | "auto"; read once, cached),
//   3. CPUID detection (including the OS XCR0 YMM/ZMM state checks).
// A requested tier that is not compiled in or not supported by the CPU is
// clamped DOWN to the best available tier, never up and never to a tier
// the hardware cannot execute -- forcing "avx512" on an AVX2-only host
// runs AVX2, and forcing anything on a non-x86 build runs scalar.
#pragma once

#include "tensor/kernels/kernel_api.hpp"

namespace bcop::tensor::kernels {

/// Lower-case tier name ("scalar", "avx2", "avx512") for artifacts, bench
/// tables and logs.
const char* kernel_level_name(KernelLevel level);

/// Parse a tier name as accepted by BCOP_KERNEL_LEVEL. Returns false for
/// anything unrecognized ("auto" and "" are recognized but leave *out
/// untouched and return false -- they mean "no forced tier").
bool parse_kernel_level(const char* s, KernelLevel* out);

/// True when `level` is both compiled into this binary and executable on
/// this CPU (kScalar is always available).
bool level_available(KernelLevel level);

/// Best tier this binary can execute on this CPU, ignoring overrides.
KernelLevel detected_level();

/// The table for `level`, clamped down to the best available tier at or
/// below it. table_for(detected_level()) is the no-override fast path.
const KernelTable& table_for(KernelLevel level);

/// The tier the next plan compile will freeze: override, then env, then
/// detection -- always clamped to an available tier.
KernelLevel active_level();

/// Table for active_level().
const KernelTable& active_table();

/// Force a tier programmatically (clamped like every other request).
/// Overrides the environment variable until clear_level_override().
/// Existing compiled plans keep the pointers they froze; XnorNetwork's
/// plan cache keys on the active level, so the next plan_for() under a
/// different override compiles (and caches) a fresh plan.
void set_level_override(KernelLevel level);
void clear_level_override();

}  // namespace bcop::tensor::kernels
