#include <gtest/gtest.h>

#include "core/architecture.hpp"
#include "deploy/stream_sim.hpp"

namespace {

using namespace bcop;
using deploy::StreamConfig;

deploy::PerfReport synthetic_pipeline(std::vector<std::int64_t> services) {
  deploy::PerfReport perf;
  for (std::size_t i = 0; i < services.size(); ++i) {
    deploy::LayerPerf lp;
    lp.name.append("S").append(std::to_string(i));
    lp.compute_cycles = services[i];
    lp.effective_cycles = services[i];
    perf.layers.push_back(lp);
    perf.initiation_interval = std::max(perf.initiation_interval, services[i]);
    perf.pipeline_latency_cycles += services[i];
  }
  perf.bottleneck.append("?");
  return perf;
}

TEST(StreamSim, SingleFrameLatencyIsSumOfServices) {
  const auto perf = synthetic_pipeline({10, 20, 5});
  StreamConfig cfg;
  cfg.frames = 1;
  const auto rep = deploy::simulate_stream(perf, cfg);
  EXPECT_EQ(rep.first_frame_latency, 35);
  EXPECT_EQ(rep.makespan_cycles, 35);
}

TEST(StreamSim, SteadyStateIiMatchesBottleneck) {
  const auto perf = synthetic_pipeline({10, 50, 20});
  StreamConfig cfg;
  cfg.frames = 200;
  const auto rep = deploy::simulate_stream(perf, cfg);
  EXPECT_NEAR(rep.measured_ii, 50.0, 1e-9);
  // Makespan: fill latency + (F-1) * II.
  EXPECT_EQ(rep.makespan_cycles, 80 + 199 * 50);
}

TEST(StreamSim, BottleneckUtilizationApproachesOne) {
  const auto perf = synthetic_pipeline({10, 50, 20});
  StreamConfig cfg;
  cfg.frames = 500;
  const auto rep = deploy::simulate_stream(perf, cfg);
  EXPECT_GT(rep.stages[1].utilization, 0.98);
  EXPECT_LT(rep.stages[0].utilization, 0.25);
}

TEST(StreamSim, ShallowFifosDoNotChangeDeterministicThroughput) {
  // With deterministic service times, depth-1 FIFOs stall producers but
  // the bottleneck still fires every II cycles.
  const auto perf = synthetic_pipeline({30, 10, 50, 20});
  StreamConfig cfg;
  cfg.frames = 300;
  cfg.fifo_depth = 1;
  const auto rep1 = deploy::simulate_stream(perf, cfg);
  cfg.fifo_depth = 64;
  const auto rep64 = deploy::simulate_stream(perf, cfg);
  EXPECT_NEAR(rep1.measured_ii, 50.0, 1e-9);
  EXPECT_NEAR(rep64.measured_ii, 50.0, 1e-9);
  // Shallow FIFOs block upstream stages sooner and for longer; with depth
  // 64 the fast stage only stalls once the long backlog has built up.
  EXPECT_GT(rep1.stages[1].blocked_cycles, rep64.stages[1].blocked_cycles);
  EXPECT_GT(rep1.stages[1].blocked_cycles, 0);
}

TEST(StreamSim, BackPressureInflatesQueueLatencyNotThroughput) {
  const auto perf = synthetic_pipeline({10, 50});
  StreamConfig cfg;
  cfg.frames = 100;
  cfg.fifo_depth = 1;
  const auto rep = deploy::simulate_stream(perf, cfg);
  // Frames arrive back-to-back; the slow stage paces everything.
  EXPECT_NEAR(rep.measured_ii, 50.0, 1e-9);
  EXPECT_GT(rep.max_latency_cycles, rep.first_frame_latency);
}

TEST(StreamSim, SlowArrivalsSetTheRate) {
  const auto perf = synthetic_pipeline({10, 50, 20});
  StreamConfig cfg;
  cfg.frames = 100;
  cfg.arrival_interval = 200;  // slower than the bottleneck
  const auto rep = deploy::simulate_stream(perf, cfg);
  EXPECT_NEAR(rep.measured_ii, 200.0, 1e-9);
  // No queueing: every frame sees the empty-pipeline latency.
  EXPECT_EQ(rep.max_latency_cycles, rep.first_frame_latency);
}

TEST(StreamSim, AgreesWithAnalyticModelOnRealPrototypes) {
  for (int a = 0; a < 3; ++a) {
    const auto perf = deploy::analyze_performance(
        core::layer_specs(static_cast<core::ArchitectureId>(a)));
    StreamConfig cfg;
    cfg.frames = 200;
    cfg.fifo_depth = 2;
    const auto rep = deploy::simulate_stream(perf, cfg);
    EXPECT_NEAR(rep.measured_ii,
                static_cast<double>(perf.initiation_interval),
                perf.initiation_interval * 0.01)
        << core::arch_name(static_cast<core::ArchitectureId>(a));
    EXPECT_EQ(rep.first_frame_latency, perf.pipeline_latency_cycles);
    EXPECT_EQ(rep.makespan_cycles, perf.batch_cycles(200));
  }
}

TEST(StreamSim, Validation) {
  const auto perf = synthetic_pipeline({10});
  StreamConfig cfg;
  cfg.frames = 0;
  EXPECT_THROW(deploy::simulate_stream(perf, cfg), std::invalid_argument);
  cfg = StreamConfig{};
  cfg.fifo_depth = 0;
  EXPECT_THROW(deploy::simulate_stream(perf, cfg), std::invalid_argument);
  cfg = StreamConfig{};
  cfg.arrival_interval = -1;
  EXPECT_THROW(deploy::simulate_stream(perf, cfg), std::invalid_argument);
  EXPECT_THROW(deploy::simulate_stream(deploy::PerfReport{}, StreamConfig{}),
               std::invalid_argument);
}

}  // namespace
