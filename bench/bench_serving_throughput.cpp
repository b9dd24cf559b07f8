// Serving-path throughput: batched bit-domain inference vs the single-image
// engine path, plus request-coalescing server latency percentiles.
//
// The paper's accelerator reaches its headline FPS (Table II) only with a
// full pipeline -- a stream of frames. This bench shows the CPU analogue:
// XnorNetwork::forward_batch amortizes packing and weight traffic over the
// batch, and the serve::BatchingServer turns independent requests into such
// batches under a bounded latency budget. Reported per prototype:
//   - single-image FPS (XnorNetwork::forward, the pre-batching baseline)
//   - batched FPS for batch sizes 1..32 (one XNOR GEMM per layer per batch)
//   - steady-state heap allocations per forward_batch call on the explicit
//     Workspace path (this binary links the operator-new interposer of
//     util/allocmeter.hpp; the engine's contract is exactly 0)
//   - server FPS with p50/p99 request latency
//   - the analytical accelerator FPS model for context
// A JSON artifact is written for trend tracking (default
// bench_artifacts/serving_throughput.json).
//
// Weights are untrained (timing is weight-independent); run with --full for
// larger sample counts. --check-allocs exits non-zero if any measured
// steady state allocates (the WORKSPACE_BENCH=1 stage of reproduce_all.sh).
//
// The obs registry is reset per prototype and snapshotted after the server
// phase, so the artifact carries the full per-stage telemetry (interpreter
// step/sub-phase histograms keyed by plan shape, server queue/batch/latency
// metrics) under a "metrics" key, and a per-stage breakdown table is
// printed. --metrics <path> additionally writes the final snapshot in
// Prometheus text format (the METRICS_BENCH=1 stage of reproduce_all.sh).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "deploy/performance.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/stage_profiler.hpp"
#include "serve/batcher.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "util/allocmeter.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xnor/plan.hpp"

using namespace bcop;
using Clock = std::chrono::steady_clock;

#ifndef BCOP_GIT_SHA
#define BCOP_GIT_SHA "unknown"
#endif

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

tensor::Tensor random_images(std::int64_t n, util::Rng& rng) {
  tensor::Tensor batch(tensor::Shape{n, 32, 32, 3});
  for (std::int64_t i = 0; i < batch.numel(); ++i)
    batch[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return batch;
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

struct BatchPoint {
  std::int64_t batch = 0;
  double fps = 0;
  double allocs_per_call = 0;  // steady-state heap allocations, ws path
};

/// Per-stage interpreter breakdown from the arch's metric snapshot: every
/// bcop_exec_* histogram, with time shares computed against the summed
/// whole-replay (`_execute_ns`) series so step rows and the finer
/// im2row/gemm/thresholds sub-phase rows are both readable.
void print_stage_breakdown(const bcop::obs::MetricsSnapshot& snap) {
  double execute_total_ns = 0;
  for (const auto& h : snap.histograms)
    if (h.name.find("bcop_exec_") == 0 &&
        h.name.find("_execute_ns") != std::string::npos)
      execute_total_ns += static_cast<double>(h.sum);
  util::AsciiTable t({"stage metric", "count", "p50 us", "p99 us",
                      "total ms", "share"});
  for (const auto& h : snap.histograms) {
    if (h.name.find("bcop_exec_") != 0 || h.count == 0) continue;
    const double share = execute_total_ns > 0
                             ? static_cast<double>(h.sum) / execute_total_ns
                             : 0;
    t.add_row({h.name, std::to_string(h.count), util::fmt(h.p50 * 1e-3, 1),
               util::fmt(h.p99 * 1e-3, 1),
               util::fmt(static_cast<double>(h.sum) * 1e-6, 2),
               util::fmt(share * 100.0, 1) + "%"});
  }
  std::printf("%s", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv, {"full", "check-allocs"});
    const bool full = args.get_flag("full");
    const bool check_allocs = args.get_flag("check-allocs");
    const std::string metrics_path = args.get("metrics", "");
    bool steady_state_allocated = false;
    const std::int64_t images_per_size = full ? 256 : 64;
    const std::int64_t server_requests = full ? 256 : 64;
    const std::string out_path =
        args.get("out", "bench_artifacts/serving_throughput.json");

    std::filesystem::create_directories(
        std::filesystem::path(out_path).parent_path());
    // The tier every plan in this run freezes: override/env/CPUID-resolved
    // once here, recorded in the artifact so FPS trend lines are
    // attributable to the kernel tier that produced them.
    const char* kernel_level = tensor::kernels::kernel_level_name(
        tensor::kernels::active_level());

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (!json) throw std::runtime_error("cannot write " + out_path);
    std::fprintf(json,
                 "{\n  \"full\": %s,\n  \"kernel_level\": \"%s\",\n"
                 "  \"git_sha\": \"%s\",\n  \"archs\": [",
                 full ? "true" : "false", kernel_level, BCOP_GIT_SHA);

    std::printf("Serving-path throughput (batched bit-domain engine vs "
                "single-image path)\nkernel dispatch tier: %s\n%s\n\n",
                kernel_level,
                full ? "full sample counts" : "quick mode (pass --full for larger samples)");
    util::AsciiTable t({"Config", "single FPS", "batch", "batched FPS",
                        "speedup", "allocs/call", "server FPS", "p50 ms",
                        "p99 ms", "accel FPS (model)"});

    const core::ArchitectureId archs[] = {core::ArchitectureId::kCnv,
                                          core::ArchitectureId::kNCnv,
                                          core::ArchitectureId::kMicroCnv};
    obs::StageProfiler::global().set_enabled(true);
    std::vector<std::pair<std::string, obs::MetricsSnapshot>> snapshots;
    bool first_arch = true;
    for (const auto arch : archs) {
      // Plan-shape metric keys collide across prototypes (all serve
      // 32x32x3), so the registry is zeroed per arch and snapshotted at
      // the end of the arch's phase.
      obs::Registry::global().reset_values();
      const core::Predictor predictor(core::build_bnn(arch, 7));
      const xnor::XnorNetwork& net = predictor.network();
      util::Rng rng(0xbeef);

      // Baseline: one image at a time through the single-image path.
      const tensor::Tensor warmup = random_images(1, rng);
      net.forward(warmup);
      net.forward_batch(warmup);
      const std::int64_t single_iters = std::max<std::int64_t>(
          8, images_per_size / 4);
      const auto t0 = Clock::now();
      for (std::int64_t i = 0; i < single_iters; ++i) net.forward(warmup);
      const double single_fps =
          static_cast<double>(single_iters) / seconds_since(t0);

      // Batched path across batch sizes. FPS is timed on the convenience
      // path (comparable across releases); the allocation count is measured
      // on the explicit Workspace path, whose steady-state contract is 0.
      std::vector<BatchPoint> points;
      xnor::Workspace ws;
      tensor::Tensor out;
      for (const std::int64_t b : {1, 2, 4, 8, 16, 32}) {
        const tensor::Tensor batch = random_images(b, rng);
        const std::int64_t reps =
            std::max<std::int64_t>(1, images_per_size / b);
        const auto tb = Clock::now();
        for (std::int64_t r = 0; r < reps; ++r) net.forward_batch(batch);
        const double fps = static_cast<double>(reps * b) / seconds_since(tb);

        net.forward_batch(batch, ws, out);  // warm plan + arena + out
        constexpr std::int64_t kAllocReps = 16;
        const std::uint64_t mark = util::alloc_count();
        for (std::int64_t r = 0; r < kAllocReps; ++r)
          net.forward_batch(batch, ws, out);
        const double allocs =
            static_cast<double>(util::alloc_count() - mark) / kAllocReps;
        if (allocs > 0) steady_state_allocated = true;
        points.push_back({b, fps, allocs});
      }

      // Coalescing server: back-to-back submissions, per-request latency.
      serve::BatcherConfig cfg;
      cfg.workers = 2;
      cfg.max_batch = 16;
      cfg.max_latency = std::chrono::microseconds(2000);
      cfg.queue_capacity = server_requests;  // the burst fits: nothing sheds
      double server_fps = 0, p50 = 0, p99 = 0;
      std::int64_t server_batches = 0;
      {
        serve::BatchingServer server(predictor, cfg);
        std::vector<std::future<core::Predictor::Result>> futures;
        std::vector<Clock::time_point> submitted;
        std::vector<double> latencies_ms;
        const auto ts = Clock::now();
        for (std::int64_t i = 0; i < server_requests; ++i) {
          submitted.push_back(Clock::now());
          tensor::Tensor image = warmup.reshaped(tensor::Shape{32, 32, 3});
          futures.push_back(server.try_submit(image).future);
        }
        for (std::int64_t i = 0; i < server_requests; ++i) {
          futures[static_cast<std::size_t>(i)].get();
          latencies_ms.push_back(
              seconds_since(submitted[static_cast<std::size_t>(i)]) * 1e3);
        }
        server_fps = static_cast<double>(server_requests) / seconds_since(ts);
        p50 = percentile(latencies_ms, 0.50);
        p99 = percentile(latencies_ms, 0.99);
        server_batches = server.stats().batches;
      }

      const double accel_fps =
          deploy::analyze_performance(core::layer_specs(arch)).fps();
      snapshots.emplace_back(core::arch_name(arch),
                             obs::Registry::global().snapshot());

      std::fprintf(json, "%s\n    {\"name\": \"%s\", \"single_image_fps\": %.1f,",
                   first_arch ? "" : ",", core::arch_name(arch),
                   single_fps);
      std::fprintf(json, "\n     \"batched\": [");
      for (std::size_t i = 0; i < points.size(); ++i)
        std::fprintf(json,
                     "%s{\"batch\": %lld, \"fps\": %.1f, "
                     "\"allocs_per_call\": %.2f}",
                     i ? ", " : "",
                     static_cast<long long>(points[i].batch), points[i].fps,
                     points[i].allocs_per_call);
      std::fprintf(json,
                   "],\n     \"server\": {\"workers\": %u, \"max_batch\": %lld, "
                   "\"max_latency_us\": %lld, \"fps\": %.1f, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f, \"batches\": %lld},\n"
                   "     \"accelerator_model_fps\": %.1f,\n"
                   "     \"metrics\": %s}",
                   cfg.workers, static_cast<long long>(cfg.max_batch),
                   static_cast<long long>(cfg.max_latency.count()), server_fps,
                   p50, p99, static_cast<long long>(server_batches), accel_fps,
                   obs::export_json(snapshots.back().second).c_str());
      first_arch = false;

      for (std::size_t i = 0; i < points.size(); ++i)
        t.add_row({i == 0 ? core::arch_name(arch) : "",
                   i == 0 ? util::fmt(single_fps, 1) : "",
                   std::to_string(points[i].batch), util::fmt(points[i].fps, 1),
                   util::fmt(points[i].fps / single_fps, 2) + "x",
                   util::fmt(points[i].allocs_per_call, 2),
                   i == 0 ? util::fmt(server_fps, 1) : "",
                   i == 0 ? util::fmt(p50, 2) : "",
                   i == 0 ? util::fmt(p99, 2) : "",
                   i == 0 ? util::fmt(accel_fps, 0) : ""});
    }

    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);

    std::printf("%s", t.render().c_str());
    std::printf("\nspeedup = batched FPS / single-image FPS (same host, same "
                "thread budget).\nallocs/call = steady-state heap "
                "allocations per forward_batch on the Workspace path "
                "(contract: 0).\nartifact: %s\n", out_path.c_str());

    for (const auto& [name, snap] : snapshots) {
      std::printf("\nper-stage interpreter breakdown: %s\n", name.c_str());
      print_stage_breakdown(snap);
    }
    if (!metrics_path.empty()) {
      const auto parent = std::filesystem::path(metrics_path).parent_path();
      if (!parent.empty()) std::filesystem::create_directories(parent);
      std::FILE* prom = std::fopen(metrics_path.c_str(), "w");
      if (!prom) throw std::runtime_error("cannot write " + metrics_path);
      const std::string text =
          bcop::obs::export_prometheus(snapshots.back().second);
      std::fwrite(text.data(), 1, text.size(), prom);
      std::fclose(prom);
      std::printf("\nPrometheus snapshot (%s, last prototype): %s\n",
                  snapshots.back().first.c_str(), metrics_path.c_str());
    }
    if (check_allocs && steady_state_allocated) {
      std::fprintf(stderr, "bench_serving_throughput: --check-allocs FAILED: "
                           "steady state performed heap allocations\n");
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serving_throughput: %s\n", e.what());
    return 1;
  }
}
