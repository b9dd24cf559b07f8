// Deployment artifact workflow: fold a trained model into a compact
// "bitstream" file (packed weights + integer thresholds only -- what the
// FPGA's on-chip memories hold), then load it back *without* the training
// graph and serve classifications from it. Demonstrates the memory
// footprint argument of the paper: the artifact fits comfortably in the
// Z7020's on-chip BRAM.
#include <cstdio>
#include <filesystem>

#include "core/fold.hpp"
#include "example_util.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "tensor/ops.hpp"
#include "util/args.hpp"
#include "xnor/bitstream.hpp"

using namespace bcop;

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const std::string artifact = args.get("out", "models/ncnv.bcbs");

    // 1. Fold the trained model and export the deployment artifact.
    nn::Sequential model = examples::load_or_train(
        core::ArchitectureId::kNCnv,
        examples::model_path(core::ArchitectureId::kNCnv));
    xnor::XnorNetwork folded = core::fold(model);
    const std::filesystem::path dir =
        std::filesystem::path(artifact).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
    xnor::save_bitstream(folded, artifact);
    const auto artifact_bytes = std::filesystem::file_size(artifact);
    std::printf("exported %s: %ju bytes (%.1f KiB); network payload %.1f "
                "KiB of weights+thresholds\n",
                artifact.c_str(), static_cast<std::uintmax_t>(artifact_bytes),
                static_cast<double>(artifact_bytes) / 1024.0,
                static_cast<double>(folded.weight_bits()) / 8.0 / 1024.0);
    std::printf("for scale: a Z7020 holds 280 BRAM18 = %.0f KiB on-chip\n",
                280.0 * 18.0 * 1024.0 / 8.0 / 1024.0);

    // 2. Cold-start an edge device: only the artifact is available.
    const xnor::XnorNetwork deployed = xnor::load_bitstream(artifact);
    util::Rng rng(123);
    int agree = 0;
    for (int i = 0; i < 8; ++i) {
      const auto cls = static_cast<facegen::MaskClass>(i % 4);
      const auto face = facegen::render_face(facegen::sample_attributes(cls, rng));
      const auto x = facegen::MaskedFaceDataset::image_to_tensor(face.image);
      const auto a = folded.predict(x)[0];
      const auto b = deployed.predict(x)[0];
      if (a == b) ++agree;
      std::printf("subject %d (%s): live=%s artifact=%s\n", i,
                  facegen::class_short_name(cls),
                  facegen::class_short_name(static_cast<facegen::MaskClass>(a)),
                  facegen::class_short_name(static_cast<facegen::MaskClass>(b)));
    }
    std::printf("%d/8 predictions identical between live fold and reloaded "
                "artifact (must be 8)\n",
                agree);
    return agree == 8 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bitstream_deploy: %s\n", e.what());
    return 1;
  }
}
