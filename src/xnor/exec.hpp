// The plan interpreter: the single stage-execution loop of the engine.
//
// detail::execute is the only code path that runs folded stages -- both
// XnorNetwork::forward and forward_batch land here (N=1 is just a plan
// with batch 1), so the single-image and batched results can never drift.
// It reads nothing but the plan and the caller's buffers: the plan owns
// every weight, threshold bank, kernel pointer and telemetry slot.
// It is also the only pool fan-out of inference: one
// ThreadPool::for_chunks over the batch's images, each chunk replaying
// every step for its images on their own arena slices, so a batch-1 call
// never touches the pool and a batch-N call pays one barrier.
// The interpreter is allocation-free by contract: every buffer it touches
// is a slice of the caller's Workspace arena at offsets the plan froze at
// compile time. Lint rule R6 (scripts/check_invariants.py) rejects any
// allocation token in exec.cpp, and tests/test_zero_alloc.cpp measures the
// contract end to end with a global operator-new interposer.
#pragma once

#include <cstdint>

#include "xnor/plan.hpp"

namespace bcop::xnor::detail {

/// Run `plan` over `input` (the float tensor data the plan was compiled
/// for), writing plan.output_shape().numel() logits to `out`. `ws` must
/// already be prepared for the plan (ws.prepare(plan) -- the allocating
/// prologue stays with the caller by design).
void execute(const ExecutionPlan& plan, const float* input, Workspace& ws,
             float* out);

/// int32 accumulators in the first conv's stack tile: it accumulates up
/// to one output row of pixels into the tile, then fires the tile into
/// the step's output planes. compile() rejects a first conv whose
/// channels would not fit one pixel in the tile.
inline constexpr std::int64_t kFirstConvTile = 2048;

// Telemetry slot order shared by the registration site (plan.cpp) and the
// recording site (exec.cpp): slots 0..5 are the StepKind values in enum
// order, then the kBinConv sub-phases, then the whole-replay latency.
// Metric names become `bcop_exec_<plan-key>_<slot>_ns`. A step or
// sub-phase slot records once per call: the chunk holding image 0 times
// the step across all of its images; `execute` is the whole-call wall
// time.
inline constexpr const char* const kObsSlotNames[] = {
    "first_conv", "binary_conv", "pool",        "flatten",    "binary_dense",
    "logits",     "im2row",      "binary_gemm", "thresholds", "execute"};
inline constexpr int kObsSlotCount = 10;
inline constexpr int kObsSlotIm2row = 6;
inline constexpr int kObsSlotGemm = 7;
inline constexpr int kObsSlotThresholds = 8;
inline constexpr int kObsSlotExecute = 9;

}  // namespace bcop::xnor::detail
