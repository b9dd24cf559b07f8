// SLO capacity sweep: how many req/s can each fleet shape sustain?
//
// The paper's FPGA numbers answer "how fast is one engine"; a deployment
// needs "how many cameras can this box serve at an acceptable tail". This
// bench answers it empirically: for every (replicas x workers) fleet
// shape in the sweep, it boots the full serving stack in-process
// (predictor -> serve::Router -> net::HttpServer) and probes increasing
// open-loop rates (net/loadgen.hpp, coordinated-omission safe) until the
// SLO breaks. A probe PASSES when
//
//   - accounting conserves with nothing lost, timed out or errored,
//   - the shed fraction stays under --max-shed (default 1%), and
//   - p99 latency (from *scheduled* arrival) <= --slo-ms (default 50 ms).
//
// The capacity of a shape is the highest passing offered rate; the search
// ramps geometrically (--rate-step, default 2x) from --rate-start and
// stops at the first failing probe or after --max-probes. Each shape gets
// a fresh Router so plan caches and queues never leak across configs.
//
// The JSON artifact (--out, default artifacts/capacity.json) records the
// sweep methodology (SLO, probe schedule), per-shape probe trails, the
// winning capacity per shape, and provenance (kernel tier, git SHA, CPU
// budget) so capacity numbers are comparable across commits and hosts --
// docs/benchmarks.md describes how to read it.
//
// Knobs: --slo-ms F --max-shed F --replicas-list a,b,.. --workers-list
// a,b,.. --rate-start R --rate-step F --max-probes N --duration-ms N
// --connections N --watermark N --http-workers N --seed S
// --out PATH --smoke (one 1x1 shape, 300 ms probes, for CI wiring).
#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "net/http_server.hpp"
#include "net/loadgen.hpp"
#include "serve/router.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "util/args.hpp"

using namespace bcop;

#ifndef BCOP_GIT_SHA
#define BCOP_GIT_SHA "unknown"
#endif

namespace {

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(std::stoi(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

struct Probe {
  double rate = 0;
  net::LoadGenReport report;
  bool pass = false;
};

struct ShapeResult {
  int replicas = 0;
  unsigned workers = 0;
  double capacity_rps = 0;  // highest passing offered rate (0 = none passed)
  double capacity_p99_ms = 0;
  std::vector<Probe> probes;
};

/// CPUs in this process's affinity mask (0 when it cannot be read).
int available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  return ::sched_getaffinity(0, sizeof(mask), &mask) == 0 ? CPU_COUNT(&mask)
                                                          : 0;
}

bool probe_passes(const net::LoadGenReport& r, double slo_ms,
                  double max_shed) {
  return r.conserved() && r.lost == 0 && r.timed_out == 0 && r.err_4xx == 0 &&
         r.err_5xx == 0 && r.shed_fraction <= max_shed && r.p99_ms <= slo_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, {"smoke"});
  const bool smoke = args.get_flag("smoke");
  const double slo_ms = args.get_double("slo-ms", 50.0);
  const double max_shed = args.get_double("max-shed", 0.01);
  const double rate_start = args.get_double("rate-start", smoke ? 200.0
                                                                : 1000.0);
  const double rate_step = args.get_double("rate-step", 2.0);
  const int max_probes = args.get_int("max-probes", smoke ? 2 : 6);
  const int duration_ms = args.get_int("duration-ms", smoke ? 300 : 2000);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::vector<int> replica_counts =
      parse_int_list(args.get("replicas-list", smoke ? "1" : "1,2,4"));
  const std::vector<int> worker_counts =
      parse_int_list(args.get("workers-list", smoke ? "1" : "1,2"));

  // Untrained weights: XNOR-popcount latency is weight-independent, so
  // capacity numbers are representative without a training phase.
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, seed));

  std::vector<ShapeResult> results;
  for (const int replicas : replica_counts) {
    for (const int workers : worker_counts) {
      ShapeResult shape;
      shape.replicas = replicas;
      shape.workers = static_cast<unsigned>(workers);
      // Fresh fleet per shape: plan caches, queues and counters' deltas
      // never bleed between sweep points.
      serve::RouterConfig rcfg;
      rcfg.replicas = replicas;
      rcfg.batcher.workers = shape.workers;
      serve::Router router(predictor, rcfg);
      net::HttpServerConfig hcfg;
      hcfg.workers = static_cast<unsigned>(args.get_int("http-workers", 2));
      hcfg.shed_watermark = args.get_int("watermark", 48);
      net::HttpServer http(router, hcfg);

      double rate = rate_start;
      for (int p = 0; p < max_probes; ++p) {
        net::LoadGenConfig cfg;
        cfg.port = http.port();
        cfg.rate = rate;
        cfg.duration = std::chrono::milliseconds(duration_ms);
        cfg.connections =
            static_cast<unsigned>(args.get_int("connections", 8));
        cfg.seed = seed + static_cast<std::uint64_t>(p);
        std::printf("[%dx%u] probing %.0f req/s ...\n", replicas,
                    shape.workers, rate);
        Probe probe;
        probe.rate = rate;
        probe.report = net::run_loadgen(cfg);
        probe.pass = probe_passes(probe.report, slo_ms, max_shed);
        std::printf("[%dx%u] %s p99=%.2fms shed=%.3f -> %s\n", replicas,
                    shape.workers, probe.pass ? "PASS" : "FAIL",
                    probe.report.p99_ms, probe.report.shed_fraction,
                    probe.pass ? "ramp" : "stop");
        if (probe.pass) {
          shape.capacity_rps = rate;
          shape.capacity_p99_ms = probe.report.p99_ms;
        }
        shape.probes.push_back(std::move(probe));
        if (!shape.probes.back().pass) break;  // SLO broke: capacity found
        rate *= rate_step;
      }
      results.push_back(std::move(shape));
    }
  }

  const std::string out = args.get("out", "bench_artifacts/capacity.json");
  const std::filesystem::path dir = std::filesystem::path(out).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"slo_p99_ms\": %.1f,\n  \"max_shed_fraction\": %.4f,\n"
               "  \"rate_start\": %.1f,\n  \"rate_step\": %.2f,\n"
               "  \"probe_duration_ms\": %d,\n"
               "  \"kernel_level\": \"%s\",\n  \"git_sha\": \"%s\",\n"
               "  \"available_cpus\": %d,\n  \"shapes\": [",
               slo_ms, max_shed, rate_start, rate_step, duration_ms,
               tensor::kernels::kernel_level_name(
                   tensor::kernels::active_level()),
               BCOP_GIT_SHA, available_cpus());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& s = results[i];
    std::fprintf(f,
                 "%s\n    {\"replicas\": %d, \"workers\": %u, "
                 "\"capacity_rps\": %.1f, \"capacity_p99_ms\": %.2f, "
                 "\"probes\": [",
                 i ? "," : "", s.replicas, s.workers, s.capacity_rps,
                 s.capacity_p99_ms);
    for (std::size_t p = 0; p < s.probes.size(); ++p)
      std::fprintf(f, "%s\n      {\"rate\": %.1f, \"pass\": %s, "
                      "\"report\": %s}",
                   p ? "," : "", s.probes[p].rate,
                   s.probes[p].pass ? "true" : "false",
                   s.probes[p].report.to_json().c_str());
    std::fprintf(f, "\n    ]}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("capacity report written to %s\n", out.c_str());

  // The sweep itself failing (no shape sustains even the starting rate
  // with clean accounting) is a regression signal for CI.
  for (const ShapeResult& s : results) {
    for (const Probe& p : s.probes) {
      if (!p.report.conserved() || p.report.lost || p.report.err_5xx) {
        std::fprintf(stderr, "FAIL: lost requests or broken conservation "
                             "in shape %dx%u -- see the artifact\n",
                     s.replicas, s.workers);
        return 1;
      }
    }
  }
  std::printf("OK: all probes accounted for every request\n");
  return 0;
}
