// Operating the batching server with the observability layer: the demo
// behind docs/observability.md.
//
// Drives a one-replica serve::Router with bursts of rendered faces and
// then reads the process-wide obs::Registry back out -- the same counters,
// gauges and latency histograms an operator would scrape in production
// (each bcop_serve_* series also has its bcop_serve_replica0_* twin):
//
//   bcop_serve_submitted_total / bcop_serve_batches_total   traffic
//   bcop_serve_queue_depth                                  backlog gauge
//   bcop_serve_batch_size                                   coalescing
//   bcop_serve_coalesce_wait_ns / bcop_serve_e2e_latency_ns latency
//   bcop_exec_<shape>_<stage>_ns                            per-stage time
//
// After each burst the example prints a compact summary table from a
// MetricsSnapshot; at the end it writes the full export in Prometheus
// text format or JSON (--format prom|json, --out <path>, default
// stdout). The model is untrained (build_bnn): latency is
// weight-independent, so the telemetry is representative without a
// training phase.
//
// Knobs: --arch cnv|ncnv|ucnv, --bursts N, --burst-size N, --workers N,
// --max-batch N (each >= 1), --max-latency-us N (>= 0; an out-of-range
// value is a usage error, exit 1). Try --max-latency-us 0 (no coalescing
// window: a batch ships as soon as a worker is free) against the default
// to see the coalescing histograms move.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/stage_profiler.hpp"
#include "serve/router.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace bcop;

namespace {

core::ArchitectureId parse_arch(const std::string& name) {
  if (name == "cnv") return core::ArchitectureId::kCnv;
  if (name == "ncnv") return core::ArchitectureId::kNCnv;
  if (name == "ucnv") return core::ArchitectureId::kMicroCnv;
  throw std::invalid_argument("unknown --arch '" + name +
                              "' (expected cnv|ncnv|ucnv)");
}

/// One histogram row per serve-side series, plus the headline counters:
/// the "glanceable" view an operator wants between full exports.
void print_burst_summary(const obs::MetricsSnapshot& snap) {
  util::AsciiTable counters({"counter / gauge", "value"});
  for (const auto& c : snap.counters)
    if (c.name.find("bcop_serve_") == 0)
      counters.add_row({c.name, std::to_string(c.value)});
  for (const auto& g : snap.gauges)
    counters.add_row({g.name, std::to_string(g.value)});
  std::printf("%s", counters.render().c_str());

  util::AsciiTable hist({"histogram", "count", "p50", "p90", "p99"});
  for (const auto& h : snap.histograms) {
    if (h.name.find("bcop_serve_") != 0) continue;
    const bool ns = h.name.find("_ns") != std::string::npos;
    const double scale = ns ? 1e-3 : 1.0;  // ns series shown in us
    hist.add_row({h.name + (ns ? " (us)" : ""), std::to_string(h.count),
                  util::fmt(h.p50 * scale, 1), util::fmt(h.p90 * scale, 1),
                  util::fmt(h.p99 * scale, 1)});
  }
  std::printf("%s", hist.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const auto arch = parse_arch(args.get("arch", "ncnv"));
    const int bursts = args.get_int_in("bursts", 3, 1);
    const int burst_size = args.get_int_in("burst-size", 32, 1);
    const std::string format = args.get("format", "prom");
    const std::string out_path = args.get("out", "");
    if (format != "prom" && format != "json")
      throw std::invalid_argument("--format must be prom or json");

    serve::RouterConfig rcfg;
    rcfg.replicas = 1;
    serve::BatcherConfig& cfg = rcfg.batcher;
    cfg.workers = static_cast<unsigned>(args.get_int_in("workers", 2, 1));
    cfg.max_batch = args.get_int_in("max-batch", 16, 1);
    cfg.max_latency =
        std::chrono::microseconds(args.get_int_in("max-latency-us", 2000, 0));
    // A whole burst fits in the queue, so try_submit never sheds here.
    cfg.queue_capacity = burst_size;

    // Untrained weights: the observability story is about timing, and the
    // plan interpreter's cost does not depend on the weight values.
    const core::Predictor predictor(core::build_bnn(arch, /*seed=*/7));
    obs::StageProfiler::global().set_enabled(true);
    serve::Router router(predictor, rcfg);

    util::Rng rng(0x0b5e);
    std::printf("serving %s: %d bursts x %d requests "
                "(workers=%u, max_batch=%lld, max_latency=%lldus)\n",
                core::arch_name(arch), bursts, burst_size, cfg.workers,
                static_cast<long long>(cfg.max_batch),
                static_cast<long long>(cfg.max_latency.count()));

    for (int burst = 0; burst < bursts; ++burst) {
      std::vector<std::future<core::Predictor::Result>> futures;
      futures.reserve(static_cast<std::size_t>(burst_size));
      for (int i = 0; i < burst_size; ++i) {
        const auto cls = static_cast<facegen::MaskClass>(
            rng.uniform_int(0, facegen::kNumClasses - 1));
        const auto rendered =
            facegen::render_face(facegen::sample_attributes(cls, rng));
        const tensor::Tensor image =
            facegen::MaskedFaceDataset::image_to_tensor(rendered.image);
        // One [S, S, C] request: drop image_to_tensor's batch axis.
        auto future = router.try_submit(image.reshaped(
            tensor::Shape{image.shape()[1], image.shape()[2],
                          image.shape()[3]}));
        if (!future) throw std::runtime_error("request shed");
        futures.push_back(std::move(*future));
      }
      for (auto& f : futures) f.get();
      std::printf("\n--- after burst %d/%d ---\n", burst + 1, bursts);
      print_burst_summary(obs::Registry::global().snapshot());
    }

    const auto snap = obs::Registry::global().snapshot();
    const std::string text = format == "prom" ? obs::export_prometheus(snap)
                                              : obs::export_json(snap);
    if (out_path.empty()) {
      std::printf("\n--- %s export ---\n%s",
                  format == "prom" ? "Prometheus" : "JSON", text.c_str());
    } else {
      const auto parent = std::filesystem::path(out_path).parent_path();
      if (!parent.empty()) std::filesystem::create_directories(parent);
      std::FILE* f = std::fopen(out_path.c_str(), "w");
      if (!f) throw std::runtime_error("cannot write " + out_path);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("\n%s export written to %s\n",
                  format == "prom" ? "Prometheus" : "JSON", out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_with_metrics: %s\n", e.what());
    return 1;
  }
}
