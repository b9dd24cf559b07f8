// Per-stage timing for the plan interpreter, FINN-style.
//
// FINN sizes its streaming dataflow from per-layer throughput; the CPU
// analogue is a per-step latency histogram for every plan the interpreter
// replays. The split mirrors the engine's own compile/execute contract:
//
//   compile path  -- ExecutionPlan::compile asks slots_for() for a
//                    StageSlots block keyed by the plan's input shape.
//                    Registration allocates (names, registry nodes); that
//                    is fine, plan compilation already allocates.
//   execute path  -- the interpreter checks one relaxed atomic flag, and
//                    when it is set brackets each step with obs::now_ns()
//                    and records into the pre-resolved histogram pointer.
//                    No locks, no allocation (rules R6 + R7).
//
// The hooks are always compiled in; recording is toggled at runtime with
// set_enabled(). Metric names look like
// `bcop_exec_b8_in32x32x3_binary_conv_ns`: keyed by plan shape, so two
// networks executing the same shape share a series (reset the registry
// between phases to separate them, as bench_serving_throughput does).
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace bcop::obs {

/// Pre-resolved recording slots for one plan-shape key: one histogram per
/// stage slot plus a replay counter. Pointees live in the global Registry
/// for the process lifetime, so plans may hold the block by pointer.
struct StageSlots {
  static constexpr int kMaxSlots = 16;
  LatencyHistogram* slot_ns[kMaxSlots] = {};
  Counter* replays = nullptr;
  int slots = 0;
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

  /// Find-or-create the slot block for `key` (e.g. "b8_in32x32x3") with
  /// one histogram per entry of `slot_names` (metric name
  /// `bcop_exec_<key>_<slot>_ns`) plus a `bcop_exec_<key>_replays_total`
  /// counter. Compile-path only: takes a lock and allocates on first use.
  /// The returned pointer is stable for the process lifetime. Re-requests
  /// with the same key must pass the same slot count.
  const StageSlots* slots_for(const std::string& key,
                              const char* const* slot_names, int slots)
      BCOP_EXCLUDES(mutex_);

 private:
  std::atomic<bool> enabled_{true};
  util::Mutex mutex_;
  // Guards the map structure only: returned StageSlots blocks are
  // node-stable, fully initialized before the pointer escapes the lock,
  // and immutable afterwards (their pointees are lock-free primitives).
  std::map<std::string, StageSlots> slots_ BCOP_GUARDED_BY(mutex_);
};

}  // namespace bcop::obs
