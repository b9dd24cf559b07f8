// Per-stage timing for the plan interpreter, FINN-style.
//
// FINN sizes its streaming dataflow from per-layer throughput; the CPU
// analogue is a per-step latency histogram for every plan the interpreter
// replays. The split mirrors the engine's own compile/execute contract:
//
//   compile path  -- ExecutionPlan::compile registers one StageSlots block
//                    per plan, keyed by the plan's input shape, through the
//                    Registry's find-or-create. Registration allocates
//                    (names, registry nodes); that is fine, plan
//                    compilation already allocates.
//   execute path  -- the interpreter checks one relaxed atomic flag, and
//                    when it is set brackets each step with obs::now_ns()
//                    and records into the plan's pre-resolved histogram
//                    pointers. No locks, no allocation (rules R6 + R7).
//
// The hooks are always compiled in; recording is toggled at runtime with
// set_enabled(). Metric names look like
// `bcop_exec_b8_in32x32x3_binary_conv_ns`: keyed by plan shape, so two
// networks executing the same shape share a series (reset the registry
// between phases to separate them, as bench_serving_throughput does).
#pragma once

#include <atomic>

#include "obs/metrics.hpp"

namespace bcop::obs {

/// Pre-resolved recording slots of one plan: one histogram per stage slot
/// plus a replay counter. Pointees live in the global Registry for the
/// process lifetime, so a plan holds the block by value.
struct StageSlots {
  static constexpr int kMaxSlots = 16;
  LatencyHistogram* slot_ns[kMaxSlots] = {};
  Counter* replays = nullptr;
};

class StageProfiler {
 public:
  static StageProfiler& global();

  /// Hot-path gate: one relaxed load. Defaults to enabled. Deliberately
  /// not mutex-guarded -- the flag is a relaxed std::atomic because the
  /// interpreter reads it once per replay and tearing-free staleness is
  /// acceptable (a toggle may take one replay to be observed; no other
  /// state is published through it).
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{true};
};

}  // namespace bcop::obs
