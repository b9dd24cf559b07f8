// Observability stress tests for the TSan configuration
// (cmake -DBCOP_SANITIZE=thread): concurrent recorders against concurrent
// snapshot readers, exactness of the final totals once writers quiesce,
// and the full serving stack recording telemetry under load. Concurrency
// is built strictly from parallel::ThreadPool (rule R2).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/stage_profiler.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batcher.hpp"

namespace {

using namespace bcop;

// Writers hammer a counter, gauge and histogram while the main thread
// snapshots continuously. Every snapshot must be internally consistent
// (histogram count == cumulative tail) and counts must be monotonic
// across snapshots; after wait_idle the totals must be exact.
TEST(ObsStress, ConcurrentWritersVsSnapshots) {
  auto& reg = obs::Registry::global();
  obs::Counter& counter = reg.counter("bcop_stress_events_total");
  obs::Gauge& gauge = reg.gauge("bcop_stress_level");
  obs::LatencyHistogram& hist = reg.histogram("bcop_stress_ns");
  counter.reset();
  gauge.reset();
  hist.reset();

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50000;
  parallel::ThreadPool pool(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    pool.submit([&counter, &gauge, &hist, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        counter.add(1);
        gauge.add(w % 2 == 0 ? 1 : -1);
        hist.record(i % 4096);
      }
    });
  }

  std::uint64_t last_count = 0;
  std::uint64_t last_hist = 0;
  for (int s = 0; s < 200; ++s) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto& c : snap.counters) {
      if (c.name != "bcop_stress_events_total") continue;
      ASSERT_GE(c.value, last_count);  // counters never go backwards
      last_count = c.value;
    }
    for (const auto& h : snap.histograms) {
      if (h.name != "bcop_stress_ns") continue;
      ASSERT_GE(h.count, last_hist);
      last_hist = h.count;
      if (!h.cumulative.empty()) {
        // count is derived from the same bucket pass, so the cumulative
        // tail always equals it -- even mid-write.
        ASSERT_EQ(h.cumulative.back().second, h.count);
      }
    }
  }
  pool.wait_idle();

  EXPECT_EQ(counter.value(), kWriters * kPerWriter);
  EXPECT_EQ(gauge.value(), 0);  // +1 and -1 writers cancel exactly
  EXPECT_EQ(hist.count(), kWriters * kPerWriter);
}

// Concurrent find-or-create on the same names from many threads must
// yield one instance per name and lose no increments.
TEST(ObsStress, ConcurrentRegistrationIsIdempotent) {
  auto& reg = obs::Registry::global();
  reg.counter("bcop_stress_reg_total").reset();
  constexpr int kThreads = 8;
  parallel::ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.submit([&reg] {
      for (int i = 0; i < 1000; ++i)
        reg.counter("bcop_stress_reg_total").add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(reg.counter("bcop_stress_reg_total").value(), 8000u);
}

// The whole serving stack under load with the profiler on: workers record
// per-stage series while clients submit and the main thread snapshots.
// Totals must reconcile with the server's own stats() view.
TEST(ObsStress, ServerTelemetryUnderLoad) {
  obs::StageProfiler::global().set_enabled(true);
  auto& reg = obs::Registry::global();
  obs::Counter& submitted = reg.counter("bcop_serve_submitted_total");
  obs::Counter& batches = reg.counter("bcop_serve_batches_total");
  obs::LatencyHistogram& e2e = reg.histogram("bcop_serve_e2e_latency_ns");
  obs::LatencyHistogram& sizes = reg.histogram("bcop_serve_batch_size");
  const std::uint64_t submitted0 = submitted.value();
  const std::uint64_t batches0 = batches.value();
  const std::uint64_t sizes0 = sizes.count();

  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 21));
  constexpr int kRequests = 96;
  serve::BatcherConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 8;
  cfg.max_latency = std::chrono::microseconds(500);
  cfg.queue_capacity = kRequests;  // the whole burst fits: nothing sheds
  std::int64_t server_batches = 0;
  {
    serve::BatchingServer server(predictor, cfg);
    std::vector<std::future<core::Predictor::Result>> futures;
    for (int i = 0; i < kRequests; ++i) {
      tensor::Tensor image(tensor::Shape{32, 32, 3});
      futures.push_back(server.try_submit(image).future);
      if (i % 16 == 0) reg.snapshot();  // reader racing the recorders
    }
    for (auto& f : futures) f.get();
    server_batches = server.stats().batches;
  }  // destructor joins the workers: all recording has quiesced

  EXPECT_EQ(submitted.value(), submitted0 + kRequests);
  EXPECT_EQ(batches.value(),
            batches0 + static_cast<std::uint64_t>(server_batches));
  EXPECT_EQ(sizes.count(),
            sizes0 + static_cast<std::uint64_t>(server_batches));
  EXPECT_GE(e2e.count(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(reg.gauge("bcop_serve_queue_depth").value(), 0);
}

}  // namespace
