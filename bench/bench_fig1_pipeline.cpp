// Reproduces Fig. 1: the structure of the Binary-CoP accelerator. Prints
// the streaming pipeline of each prototype (SWU + MVTU per layer, pool
// units, PE/SIMD dimensioning) and runs one image through the functional
// simulator to show the per-stage cycle accounting.
#include <cstdio>

#include "bench_util.hpp"
#include "core/fold.hpp"
#include "deploy/pipeline.hpp"
#include "facegen/renderer.hpp"
#include "util/table.hpp"

using namespace bcop;

int main() {
  try {
    util::Rng rng(1);
    const auto face = facegen::render_face(
        facegen::sample_attributes(facegen::MaskClass::kCorrect, rng));
    const auto x = facegen::MaskedFaceDataset::image_to_tensor(face.image);

    for (const auto arch :
         {core::ArchitectureId::kCnv, core::ArchitectureId::kNCnv,
          core::ArchitectureId::kMicroCnv}) {
      nn::Sequential model = core::build_bnn(arch, 7);
      xnor::XnorNetwork net = core::fold(model);
      deploy::StreamingPipeline pipeline(net, core::layer_specs(arch));
      std::printf("%s\n", pipeline.describe().c_str());

      const auto run = pipeline.run(x);
      util::AsciiTable t({"Stage", "compute cycles", "SWU stream cycles",
                          "effective", "share of II"});
      for (const auto& s : run.stages)
        t.add_row({s.name, std::to_string(s.compute_cycles),
                   std::to_string(s.stream_cycles),
                   std::to_string(s.effective()),
                   util::fmt(100.0 * static_cast<double>(s.effective()) /
                                 static_cast<double>(run.initiation_interval()),
                             1) +
                       "%"});
      std::printf("%s", t.render().c_str());
      std::printf("II = %lld cycles, single-image latency = %lld cycles "
                  "(%.2f ms @ 100 MHz)\n\n",
                  static_cast<long long>(run.initiation_interval()),
                  static_cast<long long>(run.latency_cycles()),
                  1e3 * static_cast<double>(run.latency_cycles()) / 100e6);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fig1: %s\n", e.what());
    return 1;
  }
}
