// Compile/execute split for the XNOR inference engine (FINN-style).
//
// FINN gets its throughput by compiling the topology into a fixed dataflow
// with statically sized inter-stage buffers; ExecutionPlan is the CPU
// analogue. compile() walks the folded stage list once per (input shape)
// and freezes everything the hot loop would otherwise recompute or
// reallocate: one image's per-step geometry, packed-row layouts,
// accumulator lengths, branch-free threshold banks (PreparedThresholds),
// the first conv's {-1,+1} weights, word-major pre-transposed binary
// weights, one kernel tier, the telemetry slots, and byte offsets into one
// image's ping-pong arena slice. The arena holds one such slice per image
// of the batch, so images replay independently (in parallel, with no
// barrier between steps). Workspace owns that arena -- aligned, grow-only,
// reusable across calls and across plans -- so steady-state inference
// performs zero heap allocations (tests/test_zero_alloc.cpp measures this;
// lint rule R6 keeps allocation out of the interpreter in
// src/xnor/exec.cpp).
//
// A plan is a self-contained classifier program, like one FINN MVTU
// chain: a quantized first conv in, float logits out. It owns every
// weight, threshold bank, kernel pointer and telemetry slot it replays,
// so it stays valid after the network it was compiled from is gone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/stage_profiler.hpp"
#include "tensor/kernels/kernel_api.hpp"
#include "tensor/shape.hpp"
#include "xnor/folding.hpp"

namespace bcop::xnor {

class XnorNetwork;

/// What one interpreter step does. Steps are not 1:1 with stages:
/// implicit flattens before dense layers become real Flatten steps.
enum class StepKind : std::uint8_t {
  kFirstConv,  // quantize + conv + threshold -> packed bits (entry)
  kBinConv,    // bit im2row -> XNOR GEMM -> thresholds
  kPool,       // 2x2 boolean-OR pool
  kFlatten,    // pixel bit-fields -> one flat row per image
  kBinDense,   // XNOR GEMM -> thresholds
  kLogits,     // XNOR GEMM -> float logits (terminal)
};

/// One interpreter step with its frozen geometry -- one image's: every
/// image of a batch replays the same steps on its own arena slice.
/// `src_half`/`dst_half` name the ping-pong arena halves (-1 = the
/// caller's float input/output); the byte offsets of the halves and
/// scratch regions within a slice live on the plan.
struct PlanStep {
  StepKind kind;
  std::int64_t prep = -1;   // index into plan-owned PreparedThresholds
  std::int64_t wmat = -1;   // index into plan-owned pre-transposed weights
  std::int64_t k = 0;       // conv kernel size
  std::int64_t h = 0, w = 0, c = 0;     // input pixel geometry
  std::int64_t ho = 0, wo = 0, co = 0;  // output pixel geometry
  // Packed-row spans (rows x cols bits, wpr words per row):
  std::int64_t in_rows = 0, in_cols = 0, in_wpr = 0;
  std::int64_t out_rows = 0, out_cols = 0, out_wpr = 0;
  std::int64_t patch_rows = 0, patch_cols = 0, patch_wpr = 0;
  std::int64_t acc_len = 0;  // int32 accumulator length (GEMM steps)
  int src_half = -1, dst_half = -1;
  // Residual binarization (docs/residual-binarization.md). Plane m of a
  // multi-level activation lives at word offset m * rows * wpr inside its
  // arena half (and, for a conv step, at m * patch_rows * patch_wpr in the
  // patch region). A scaled input stream (in_scaled) makes the GEMM steps
  // accumulate A = sum_m in_scale_bits[m] * acc_m in one plane-fused GEMM
  // pass; levels_out > 1 fires the (1 << levels_out) - 1 consecutive
  // threshold banks starting at `prep` (bank 0 = level 0; level m bank
  // under sign pattern p at prep + (1 << m) - 1 + p). The defaults are a
  // classic activation: one unscaled plane in, one plane out.
  std::int64_t levels_in = 1, levels_out = 1;
  std::int32_t in_scale_bits[3] = {0, 0, 0};
  bool in_scaled = false;
  float out_scale = 1.f;  // kLogits value scale (1/256 for scaled inputs)
};

/// Per-*stage* shape metadata (aligned with XnorNetwork::stages()), for
/// consumers that walk the stage list -- deploy::StreamingPipeline reads
/// these instead of re-deriving activation geometry while executing.
struct StageShape {
  std::int64_t h_in = 0, w_in = 0, c_in = 0;
  std::int64_t h_out = 0, w_out = 0, c_out = 0;
};

class Workspace;

class ExecutionPlan {
 public:
  /// Freeze the dataflow of `net` for inputs of shape `input` (batch is
  /// input[0]). The stage list must be a classifier: a FirstConv, then
  /// binary convs, pools, flattens and dense layers, ending in the
  /// threshold-free classifier layer. Anything else -- another leading
  /// stage, a list without the classifier, stages after it, mismatched
  /// geometry -- throws std::runtime_error naming the offending stage. The
  /// plan copies what it replays, so `net` may be destroyed afterwards.
  ///
  /// `levels` caps the residual binarization depth M laid out by the
  /// plan: 0 keeps every trained level, 1..3 truncate deeper stages to M
  /// planes and the first 2^M - 1 threshold banks (valid because level
  /// m's banks never depend on levels above m). Classic networks ignore
  /// the cap.
  static ExecutionPlan compile(const XnorNetwork& net,
                               const tensor::Shape& input,
                               std::int64_t levels = 0);

  const tensor::Shape& input_shape() const { return input_; }
  const tensor::Shape& output_shape() const { return output_; }
  std::int64_t batch() const { return batch_; }
  /// Floats one image occupies in the caller's input / output buffers.
  std::int64_t image_inputs() const { return image_inputs_; }
  std::int64_t image_outputs() const { return image_outputs_; }

  const std::vector<PlanStep>& steps() const { return steps_; }
  const std::vector<StageShape>& stage_shapes() const { return stage_shapes_; }
  const PreparedThresholds& prep(std::int64_t i) const {
    return preps_[static_cast<std::size_t>(i)];
  }
  const std::uint64_t* wmat(std::int64_t i) const {
    return wmats_[static_cast<std::size_t>(i)].data();
  }
  /// The first conv's {-1,+1} weights, [K*K*Ci, Co] row-major.
  const float* first_conv_weights() const { return first_weights_.data(); }

  /// Total arena bytes a Workspace must provide: batch() slices of
  /// slice_bytes() each, image i's at byte i * slice_bytes(). The offsets
  /// below place, within one slice, the two ping-pong halves, the im2row
  /// patch region (levels_in planes of a conv step's rows), the int32
  /// accumulator region and the float scratch region.
  std::size_t arena_bytes() const {
    return slice_bytes_ * static_cast<std::size_t>(batch());
  }
  std::size_t slice_bytes() const { return slice_bytes_; }
  std::size_t half_offset(int half) const {
    return off_half_[static_cast<std::size_t>(half)];
  }
  std::size_t patch_offset() const { return off_patch_; }
  std::size_t acc_offset() const { return off_acc_; }
  std::size_t float_offset() const { return off_floats_; }

  /// The residual level cap this plan was compiled with (0 = all trained
  /// levels); part of the plan-cache key.
  std::int64_t levels() const { return levels_; }

  /// Telemetry slots registered at compile time, keyed by this plan's
  /// input shape (see obs::StageProfiler); the interpreter records into
  /// them while StageProfiler::enabled() is set.
  const obs::StageSlots& obs_slots() const { return obs_slots_; }

  /// The dispatch tier's kernel table, frozen at compile time
  /// (tensor/kernels/dispatch.hpp). The interpreter calls its pointers
  /// directly -- no per-call tier branch, and an override flipped after
  /// compile cannot skew a plan mid-flight.
  const tensor::kernels::KernelTable& kernels() const { return *kernels_; }
  /// The tier of kernels() (serving artifacts and benches report it).
  tensor::kernels::KernelLevel kernel_level() const { return kernels_->level; }

 private:
  ExecutionPlan() = default;  // only compile() makes plans

  tensor::Shape input_, output_;
  std::vector<PlanStep> steps_;
  std::vector<PreparedThresholds> preps_;
  std::vector<std::vector<std::uint64_t>> wmats_;
  std::vector<float> first_weights_;
  std::vector<StageShape> stage_shapes_;
  std::int64_t batch_ = 0, image_inputs_ = 0, image_outputs_ = 0;
  std::size_t slice_bytes_ = 0;
  std::size_t off_half_[2] = {0, 0};
  std::size_t off_patch_ = 0, off_acc_ = 0, off_floats_ = 0;
  std::int64_t levels_ = 0;
  obs::StageSlots obs_slots_;
  const tensor::kernels::KernelTable* kernels_ = nullptr;
};

/// Grow-only arena backing plan execution. One workspace serves any number
/// of plans sequentially (prepare() grows capacity to the high-water mark
/// and never shrinks); give each concurrently-executing thread its own.
/// The base pointer is 64-byte aligned so arena rows sit on cache lines.
class Workspace {
 public:
  /// Ensure capacity for `plan`. Allocates only when the plan needs more
  /// than any previous one did -- the steady-state path is a no-op.
  void prepare(const ExecutionPlan& plan);

  std::byte* base() { return base_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<std::byte[]> raw_;
  std::byte* base_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace bcop::xnor
