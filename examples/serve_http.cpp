// BinaryCoP as a network service: the full edge-deployment wire.
//
//   camera / curl --> net::HttpServer --> serve::Router --> replicas --> BNN
//
// Starts the HTTP/1.1 front-end (src/net) over a replica fleet (each
// replica: its own copy of the folded network, queue and worker pool; the
// Router places each request on the least-loaded serving replica) and
// serves until the requested duration elapses (or forever with
// --duration-s 0, until stdin closes). Endpoints, payload format and shedding semantics are
// documented in docs/networking.md; quick check:
//
//   # classify a raw 32x32x3 u8 image (3072 bytes)
//   head -c 3072 /dev/urandom > /tmp/img.raw
//   curl -s --data-binary @/tmp/img.raw http://127.0.0.1:8080/v1/classify
//   curl -s http://127.0.0.1:8080/healthz
//   curl -s http://127.0.0.1:8080/metrics | grep bcop_net
//
// Knobs: --port N (default 8080), --arch cnv|ncnv|ucnv, --untrained
// (skip load/quick-train; weights random, latency representative),
// --replicas N (1..64), --workers N (per replica, >= 1), --http-workers N
// (>= 1), --watermark N (503 above this per-replica queue depth; 0 sheds
// everything, -1 disables), --duration-s N. An out-of-range count or port
// is a usage error: a message naming the flag, exit 1.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "example_util.hpp"
#include "net/http_server.hpp"
#include "serve/router.hpp"
#include "util/args.hpp"

using namespace bcop;

namespace {

core::ArchitectureId parse_arch(const std::string& name) {
  if (name == "cnv") return core::ArchitectureId::kCnv;
  if (name == "ncnv") return core::ArchitectureId::kNCnv;
  if (name == "ucnv") return core::ArchitectureId::kMicroCnv;
  throw std::invalid_argument("unknown --arch '" + name +
                              "' (expected cnv|ncnv|ucnv)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv, {"untrained"});
    const auto arch = parse_arch(args.get("arch", "ucnv"));

    nn::Sequential model =
        args.get_flag("untrained")
            ? core::build_bnn(arch, /*seed=*/7)
            : examples::load_or_train(arch, examples::model_path(arch));
    const core::Predictor predictor(std::move(model));

    serve::RouterConfig rcfg;
    rcfg.replicas = args.get_int_in("replicas", 2, 1, 64);
    rcfg.batcher.workers =
        static_cast<unsigned>(args.get_int_in("workers", 2, 1));
    serve::Router router(predictor, rcfg);

    net::HttpServerConfig hcfg;
    hcfg.port = static_cast<std::uint16_t>(args.get_int_in("port", 8080, 0,
                                                           65535));
    hcfg.workers =
        static_cast<unsigned>(args.get_int_in("http-workers", 2, 1));
    hcfg.shed_watermark = args.get_int("watermark", 48);
    net::HttpServer http(router, hcfg);

    std::printf("serving on http://127.0.0.1:%u\n", http.port());
    std::printf("  POST /v1/classify  (3072 u8 or 12288 f32 bytes)\n");
    std::printf("  GET  /healthz      fleet + per-replica state\n");
    std::printf("  GET  /metrics      Prometheus export\n");
    std::printf("replicas: %d, workers/replica: %u, http workers: %u, "
                "shed watermark: %lld\n",
                rcfg.replicas, rcfg.batcher.workers, hcfg.workers,
                static_cast<long long>(hcfg.shed_watermark));

    const int duration_s = args.get_int("duration-s", 0);
    if (duration_s > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(duration_s));
    } else {
      std::printf("press Ctrl-D (EOF) to stop\n");
      while (std::getchar() != EOF) {
      }
    }
    std::printf("shutting down\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_http: %s\n", e.what());
    return 1;
  }
}
