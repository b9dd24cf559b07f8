// Observability-layer unit tests: primitive semantics, histogram bucket
// geometry, quantile accuracy against a sorted-sample oracle, registry
// identity/validation, exporter golden output from a hand-built snapshot,
// and the end-to-end wiring of the StageProfiler (plan interpreter) and
// the BatchingServer's metrics, and the server metric table of
// docs/observability.md against the live registry. Concurrency hammering
// lives in tests/test_obs_stress.cpp for the TSan configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/stage_profiler.hpp"
#include "serve/batcher.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"
#include "xnor/engine.hpp"
#include "xnor/exec.hpp"
#include "xnor/plan.hpp"

namespace {

using namespace bcop;
using obs::LatencyHistogram;

TEST(ObsCounter, AddAndReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAddGoesNegative) {
  obs::Gauge g;
  g.set(5);
  g.add(-8);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// Every bucket's lower bound must map back to that bucket, and bounds must
// tile the value axis: upper(i) == lower(i+1), strictly increasing.
TEST(ObsHistogram, BucketBoundsRoundTripAndTile) {
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t lo = LatencyHistogram::bucket_lower(i);
    EXPECT_EQ(LatencyHistogram::bucket_index(lo), i) << "bucket " << i;
    if (i + 1 < LatencyHistogram::kBuckets) {
      EXPECT_EQ(LatencyHistogram::bucket_upper(i),
                LatencyHistogram::bucket_lower(i + 1));
      // The value just below the boundary still belongs to bucket i.
      EXPECT_EQ(
          LatencyHistogram::bucket_index(LatencyHistogram::bucket_upper(i) - 1),
          i);
    }
  }
  // Small values are exact; beyond the table everything clamps into the
  // last bucket instead of indexing out of bounds.
  for (std::uint64_t v = 0; v < 4; ++v)
    EXPECT_EQ(LatencyHistogram::bucket_index(v), static_cast<int>(v));
  EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
}

// Bucket width <= 1/4 of the lower bound: the resolution guarantee the
// ~12% quantile error bound in the header comment is derived from.
TEST(ObsHistogram, BucketRelativeWidthBounded) {
  for (int i = LatencyHistogram::kSub; i + 1 < LatencyHistogram::kBuckets;
       ++i) {
    const double lo = static_cast<double>(LatencyHistogram::bucket_lower(i));
    const double hi = static_cast<double>(LatencyHistogram::bucket_upper(i));
    EXPECT_LE(hi - lo, lo / 4.0 + 1e-9) << "bucket " << i;
  }
}

TEST(ObsHistogram, CountSumAndExactSmallValueQuantiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram reads as 0
  for (int i = 0; i < 10; ++i) h.record(2);
  h.record(3);
  EXPECT_EQ(h.count(), 11u);
  EXPECT_EQ(h.sum(), 23u);
  // Values below kSub live in exact unit buckets: quantiles are exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// Quantiles vs a sorted-sample oracle over log-uniform samples spanning
// the realistic latency range (~100ns..100ms). Bucket width is <= 1/4 of
// the value, so the midpoint estimate stays within a ~1.26x factor.
TEST(ObsHistogram, QuantilesTrackSortedOracle) {
  util::Rng rng(0xc0ffee);
  LatencyHistogram h;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const double log_v = rng.uniform(std::log(100.0), std::log(1e8));
    const auto v = static_cast<std::uint64_t>(std::exp(log_v));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.50, 0.90, 0.99}) {
    const auto rank = static_cast<std::size_t>(std::ceil(
        q * static_cast<double>(samples.size())));
    const double exact =
        static_cast<double>(samples[std::min(rank, samples.size()) - 1]);
    const double est = h.quantile(q);
    EXPECT_GT(est, exact / 1.26) << "q=" << q;
    EXPECT_LT(est, exact * 1.26) << "q=" << q;
  }
}

TEST(ObsRegistry, FindOrCreateReturnsSameInstance) {
  auto& r = obs::Registry::global();
  obs::Counter& a = r.counter("bcop_test_identity_total");
  a.add(7);
  obs::Counter& b = r.counter("bcop_test_identity_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
  obs::LatencyHistogram& h1 = r.histogram("bcop_test_identity_ns");
  obs::LatencyHistogram& h2 = r.histogram("bcop_test_identity_ns");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, SnapshotCarriesValuesAndCumulativeBuckets) {
  auto& r = obs::Registry::global();
  r.counter("bcop_test_snap_total").add(3);
  r.gauge("bcop_test_snap_depth").set(-2);
  auto& h = r.histogram("bcop_test_snap_ns");
  h.reset();
  h.record(1);
  h.record(1);
  h.record(1000);
  const obs::MetricsSnapshot snap = r.snapshot();

  const auto counter = std::find_if(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& c) { return c.name == "bcop_test_snap_total"; });
  ASSERT_NE(counter, snap.counters.end());
  EXPECT_EQ(counter->value, 3u);

  const auto gauge = std::find_if(
      snap.gauges.begin(), snap.gauges.end(),
      [](const auto& g) { return g.name == "bcop_test_snap_depth"; });
  ASSERT_NE(gauge, snap.gauges.end());
  EXPECT_EQ(gauge->value, -2);

  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& hv) { return hv.name == "bcop_test_snap_ns"; });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->sum, 1002u);
  ASSERT_EQ(hist->cumulative.size(), 2u);  // one entry per non-empty bucket
  EXPECT_EQ(hist->cumulative.front().second, 2u);   // two samples <= first
  EXPECT_EQ(hist->cumulative.back().second, 3u);    // all samples <= last
  EXPECT_LE(hist->cumulative.front().first, hist->cumulative.back().first);
}

TEST(ObsRegistry, ResetValuesKeepsRegistrationAndReferences) {
  auto& r = obs::Registry::global();
  obs::Counter& c = r.counter("bcop_test_reset_total");
  c.add(5);
  r.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&r.counter("bcop_test_reset_total"), &c);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

// Exporters are pure functions of the snapshot, so a hand-built snapshot
// pins the exact output byte-for-byte (the samples in
// docs/observability.md come from the same code path).
obs::MetricsSnapshot golden_snapshot() {
  obs::MetricsSnapshot s;
  s.counters.push_back({"bcop_demo_requests_total", 42});
  s.gauges.push_back({"bcop_demo_queue_depth", -1});
  obs::MetricsSnapshot::HistogramValue h;
  h.name = "bcop_demo_latency_ns";
  h.count = 3;
  h.sum = 1800;
  h.p50 = 512.0;
  h.p90 = 896.0;
  h.p99 = 896.0;
  h.cumulative = {{512, 1}, {896, 3}};
  s.histograms.push_back(h);
  return s;
}

TEST(ObsExport, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": {\n    \"bcop_demo_requests_total\": 42\n  },\n"
      "  \"gauges\": {\n    \"bcop_demo_queue_depth\": -1\n  },\n"
      "  \"histograms\": {\n"
      "    \"bcop_demo_latency_ns\": {\"count\": 3, \"sum\": 1800, "
      "\"p50\": 512.0, \"p90\": 896.0, \"p99\": 896.0, \"buckets\": "
      "[{\"le\": 512, \"count\": 1}, {\"le\": 896, \"count\": 3}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(obs::export_json(golden_snapshot()), expected);
}

TEST(ObsExport, PrometheusGolden) {
  const std::string expected =
      "# TYPE bcop_demo_requests_total counter\n"
      "bcop_demo_requests_total 42\n"
      "# TYPE bcop_demo_queue_depth gauge\n"
      "bcop_demo_queue_depth -1\n"
      "# TYPE bcop_demo_latency_ns histogram\n"
      "bcop_demo_latency_ns_bucket{le=\"512\"} 1\n"
      "bcop_demo_latency_ns_bucket{le=\"896\"} 3\n"
      "bcop_demo_latency_ns_bucket{le=\"+Inf\"} 3\n"
      "bcop_demo_latency_ns_sum 1800\n"
      "bcop_demo_latency_ns_count 3\n";
  EXPECT_EQ(obs::export_prometheus(golden_snapshot()), expected);
}

TEST(ObsExport, EmptySnapshot) {
  const obs::MetricsSnapshot empty;
  EXPECT_EQ(obs::export_prometheus(empty), "");
  EXPECT_EQ(obs::export_json(empty),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

// Compiling a plan registers per-stage series keyed by the plan shape, and
// replaying it fills them -- the interpreter-side wiring of the profiler.
TEST(ObsStageProfiler, ForwardBatchRecordsPerStageSeries) {
  obs::StageProfiler::global().set_enabled(true);
  const core::Predictor p(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 5));
  util::Rng rng(99);
  tensor::Tensor batch(tensor::Shape{1, 32, 32, 3});
  for (std::int64_t i = 0; i < batch.numel(); ++i)
    batch[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

  auto& reg = obs::Registry::global();
  obs::Counter& replays = reg.counter("bcop_exec_b1_in32x32x3_replays_total");
  obs::LatencyHistogram& first_conv =
      reg.histogram("bcop_exec_b1_in32x32x3_first_conv_ns");
  obs::LatencyHistogram& execute =
      reg.histogram("bcop_exec_b1_in32x32x3_execute_ns");
  const std::uint64_t replays0 = replays.value();
  const std::uint64_t conv0 = first_conv.count();

  p.network().forward_batch(batch);

  EXPECT_EQ(replays.value(), replays0 + 1);
  EXPECT_EQ(first_conv.count(), conv0 + 1);
  EXPECT_GE(execute.sum(), first_conv.sum());  // whole replay >= one step
}

// Every binary-conv step records its three sub-phases at any depth: the
// block loop's gather (im2row) and GEMM (binary_gemm) clock sums, and the
// firing pass (thresholds) -- each once per conv step and call, and all
// three inside the step's own binary_conv timer. Inputs: µ-CNV trained at
// M = 3 served at cap 2, and the classic (M = 1) µ-CNV.
TEST(ObsStageProfiler, ResidualConvRecordsGemmAndThresholdSubphases) {
  obs::StageProfiler::global().set_enabled(true);
  struct Case {
    std::int64_t levels, cap;
    const char* key;
  };
  for (const Case& c : {Case{3, 2, "bcop_exec_b5_in32x32x3_l2_"},
                        Case{1, 0, "bcop_exec_b5_in32x32x3_"}}) {
    SCOPED_TRACE(c.key);
    nn::Sequential model =
        core::build_bnn(core::ArchitectureId::kMicroCnv, 5, c.levels);
    const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
    util::Rng rng(7);
    tensor::Tensor batch(tensor::Shape{5, 32, 32, 3});
    for (std::int64_t i = 0; i < batch.numel(); ++i)
      batch[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    const xnor::ExecutionPlan& plan = net.plan_for(batch.shape(), c.cap);
    const auto convs = static_cast<std::uint64_t>(
        std::count_if(plan.steps().begin(), plan.steps().end(),
                      [](const xnor::PlanStep& st) {
                        return st.kind == xnor::StepKind::kBinConv;
                      }));
    ASSERT_GT(convs, 0u);

    auto& reg = obs::Registry::global();
    const std::string key = c.key;
    obs::LatencyHistogram* conv = &reg.histogram(key + "binary_conv_ns");
    obs::LatencyHistogram* subs[] = {&reg.histogram(key + "im2row_ns"),
                                     &reg.histogram(key + "binary_gemm_ns"),
                                     &reg.histogram(key + "thresholds_ns")};
    const std::uint64_t conv0 = conv->count(), conv_ns0 = conv->sum();
    std::uint64_t count0[3], sum0[3];
    for (int i = 0; i < 3; ++i) {
      count0[i] = subs[i]->count();
      sum0[i] = subs[i]->sum();
    }

    net.forward_batch(batch, c.cap);

    EXPECT_EQ(conv->count() - conv0, convs);
    std::uint64_t sub_ns = 0;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(subs[i]->count() - count0[i], convs) << "sub-phase " << i;
      sub_ns += subs[i]->sum() - sum0[i];
    }
    // The sub-phases nest inside their step's timer.
    EXPECT_LE(sub_ns, conv->sum() - conv_ns0);
  }
}

// A batch fans out once over its images, and only the chunk holding
// image 0 records its steps (timed over that chunk's images), so no step
// or sub-phase slot can outgrow the whole-call `execute` wall time.
TEST(ObsStageProfiler, StepSlotsStayWithinExecuteAtBatch16) {
  obs::StageProfiler::global().set_enabled(true);
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 9);
  const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  util::Rng rng(10);
  tensor::Tensor batch(tensor::Shape{16, 32, 32, 3});
  for (std::int64_t i = 0; i < batch.numel(); ++i)
    batch[i] = static_cast<float>(rng.uniform());
  net.forward_batch(batch);  // compile outside the measured calls

  auto& reg = obs::Registry::global();
  std::vector<obs::LatencyHistogram*> slots;
  std::vector<std::uint64_t> sum0;
  for (int s = 0; s < xnor::detail::kObsSlotCount; ++s) {
    slots.push_back(&reg.histogram(std::string("bcop_exec_b16_in32x32x3_") +
                                   xnor::detail::kObsSlotNames[s] + "_ns"));
    sum0.push_back(slots.back()->sum());
  }
  for (int call = 0; call < 3; ++call) net.forward_batch(batch);

  const auto delta = [&](int s) {
    return slots[static_cast<std::size_t>(s)]->sum() -
           sum0[static_cast<std::size_t>(s)];
  };
  const std::uint64_t execute = delta(xnor::detail::kObsSlotExecute);
  EXPECT_GT(execute, 0u);
  for (int s = 0; s < xnor::detail::kObsSlotExecute; ++s)
    EXPECT_LE(delta(s), execute) << xnor::detail::kObsSlotNames[s];
}

TEST(ObsStageProfiler, DisableStopsRecording) {
  const core::Predictor p(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 6));
  tensor::Tensor batch(tensor::Shape{1, 32, 32, 3});
  auto& replays = obs::Registry::global().counter(
      "bcop_exec_b1_in32x32x3_replays_total");

  obs::StageProfiler::global().set_enabled(false);
  const std::uint64_t before = replays.value();
  p.network().forward_batch(batch);
  EXPECT_EQ(replays.value(), before);

  obs::StageProfiler::global().set_enabled(true);
  p.network().forward_batch(batch);
  EXPECT_EQ(replays.value(), before + 1);
}

// Synchronous server mode (workers=0) makes the serve-side metrics
// deterministic: every admission is one batch of one, and with no queue
// there is nothing to shed.
TEST(ObsServe, SynchronousServerCounts) {
  auto& reg = obs::Registry::global();
  obs::Counter& submitted = reg.counter("bcop_serve_submitted_total");
  obs::Counter& batches = reg.counter("bcop_serve_batches_total");
  obs::Counter& rejected = reg.counter("bcop_serve_rejected_total");
  obs::LatencyHistogram& batch_size = reg.histogram("bcop_serve_batch_size");
  obs::LatencyHistogram& e2e = reg.histogram("bcop_serve_e2e_latency_ns");
  const std::uint64_t submitted0 = submitted.value();
  const std::uint64_t batches0 = batches.value();
  const std::uint64_t rejected0 = rejected.value();
  const std::uint64_t sizes0 = batch_size.count();
  const std::uint64_t e2e0 = e2e.count();

  const core::Predictor p(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 7));
  serve::BatcherConfig cfg;
  cfg.workers = 0;
  serve::BatchingServer server(p, cfg);
  for (int i = 0; i < 5; ++i) {
    tensor::Tensor image(tensor::Shape{32, 32, 3});
    server.try_submit(image, /*max_depth=*/0).future.get();
  }

  EXPECT_EQ(submitted.value(), submitted0 + 5);
  EXPECT_EQ(batches.value(), batches0 + 5);
  EXPECT_EQ(rejected.value(), rejected0);
  EXPECT_EQ(batch_size.count(), sizes0 + 5);
  EXPECT_EQ(e2e.count(), e2e0 + 5);
  EXPECT_EQ(reg.gauge("bcop_serve_queue_depth").value(), 0);
}

// Golden check of docs/observability.md's "Server metrics" table: its
// first-column names and the bcop_serve_* series a tiered Router
// registers must match in both directions, the per-replica families
// collapsing to one bcop_serve_replica<N>_* row. A series added or
// renamed without its row (or a row left behind) fails here.
TEST(ObsDocs, ServerMetricTableMatchesLiveRegistry) {
  const core::Predictor p(core::build_bnn(core::ArchitectureId::kMicroCnv, 9,
                                          /*residual_levels=*/3));
  serve::RouterConfig cfg;
  cfg.replicas = 2;
  cfg.fast_replicas = 1;
  cfg.batcher.workers = 0;
  serve::Router router(p, cfg);
  auto future = router.try_submit(tensor::Tensor(tensor::Shape{32, 32, 3}));
  ASSERT_TRUE(future.has_value());
  future->get();

  const std::string replica_prefix = "bcop_serve_replica";
  std::set<std::string> live;
  const auto add = [&](const std::string& name) {
    if (name.rfind("bcop_serve_", 0) != 0) return;
    const bool per_replica =
        name.rfind(replica_prefix, 0) == 0 &&
        std::isdigit(static_cast<unsigned char>(name[replica_prefix.size()]));
    live.insert(per_replica ? replica_prefix + "<N>_*" : name);
  };
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  for (const auto& c : snap.counters) add(c.name);
  for (const auto& g : snap.gauges) add(g.name);
  for (const auto& h : snap.histograms) add(h.name);

  std::ifstream doc(BCOP_DOCS_DIR "/observability.md");
  ASSERT_TRUE(doc.good()) << "cannot read " BCOP_DOCS_DIR "/observability.md";
  std::set<std::string> documented;
  bool in_table = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("## ", 0) == 0) in_table = line == "## Server metrics";
    if (!in_table || line.rfind("| `", 0) != 0) continue;
    documented.insert(line.substr(3, line.find('`', 3) - 3));
  }
  ASSERT_FALSE(documented.empty()) << "no Server metrics table found";
  for (const std::string& name : live)
    EXPECT_EQ(documented.count(name), 1u)
        << name << " is registered but has no Server metrics row";
  for (const std::string& name : documented)
    EXPECT_EQ(live.count(name), 1u)
        << name << " is documented but no server registers it";
}

}  // namespace
