// Shared vocabulary of the repository benchmark (BENCHMARK.json).
//
// One benchmark binary runs one workload per process:
//
//   perfbench --workload http_steady|http_overload
//             --seed N --seconds S --trace 0|1
//
// Every run has two phases. The engine phase (engine.cpp) drives the
// in-process classify path with no net and no serve; the HTTP phase
// (http.cpp) drives the whole serving stack at the workload's offered
// rate, in one-second segments, and untraced runs time the engine windows
// between those segments. So every run reports every metric, and a kernel
// change shows in the engine metrics of both workloads.
//
// Untraced runs (--trace 0) keep obs::StageProfiler off and report the
// end-to-end metrics; traced runs (--trace 1) turn it on, reset the obs
// registry at the start of each measured phase and report the per-layer
// breakdown. Human-readable provenance and tables go to stdout first; the
// last stdout line is the result object:
//
//   {"correct": b, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u}}}
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace bcop::perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one run reports. Every check that fails bumps `failed` (and
/// clears `correct` through the caller); `attempted` counts operations.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A correctness check: counts a failure and clears `correct` when false.
  void check(bool ok, const char* what);
  std::string to_json() const;
};

/// n-CNV input side: every workload feeds [S, S, 3] images.
inline constexpr std::int64_t kSide = 32;

/// `n` seeded images [n, S, S, 3] on the deployed 8-bit input grid,
/// (2b - 255) / 255 for a random byte b.
tensor::Tensor random_images(util::Rng& rng, std::int64_t n);

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a sample (the benchmark's summary of repeated windows).
double median(std::vector<double> v);

/// CPU ticks the hypervisor has stolen from this machine so far, summed
/// over all CPUs (/proc/stat; 0 when unreadable).
double steal_ticks();

/// Timed samples, each with the ticks stolen while it was taken. On a
/// shared host, stolen stretches stall a thread for milliseconds at a time
/// and inflate the windows they hit; the calm median keeps them out.
struct Samples {
  std::vector<double> value, stolen;

  void add(double v, double stolen_ticks) {
    value.push_back(v);
    stolen.push_back(stolen_ticks);
  }
  /// Median over the samples whose stolen ticks are at or below the
  /// median: the calmer half of them, or more on ties.
  double calm_median() const;
};

/// Histogram from a registry snapshot, or nullptr when not registered.
const obs::MetricsSnapshot::HistogramValue* find_histogram(
    const obs::MetricsSnapshot& snap, const std::string& name);
/// Counter value from a registry snapshot (0 when not registered).
std::uint64_t find_counter(const obs::MetricsSnapshot& snap,
                           const std::string& name);
/// Mean of a histogram (sum / count), 0 when empty.
inline double mean_of(const obs::MetricsSnapshot::HistogramValue* h) {
  return h && h->count ? static_cast<double>(h->sum) /
                             static_cast<double>(h->count)
                       : 0.0;
}

/// The engine phase. The constructor builds both networks and the seeded
/// inputs with their scalar-tier reference logits. run() adds timed
/// windows and may be called many times, so that the windows spread over
/// the whole run; traced() measures the per-layer breakdown instead.
/// finish() reports the metrics and returns the median set-up time (s).
class EnginePhase {
 public:
  EnginePhase(const Options& opt, Report& report);
  ~EnginePhase();
  EnginePhase(const EnginePhase&) = delete;
  EnginePhase& operator=(const EnginePhase&) = delete;

  void run(double seconds);
  void traced(double seconds, Report& report);
  double finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// The HTTP phase, `seconds` of load at an offered open-loop `rate` in
/// requests/second, run as segments; `between`, when set, is called after
/// each segment with that segment's share of the phase. Returns the median
/// set-up time (s).
double run_http(const Options& opt, double rate, double seconds,
                Report& report,
                const std::function<void(double)>& between = {});

}  // namespace bcop::perfbench
