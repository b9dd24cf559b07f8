// Train a Binary-CoP prototype on the synthetic MaskedFace-Net substitute
// and save the model for the benchmarks and examples.
//
//   train_binarycop --arch ncnv --per-class 1500 --epochs 20
//                   --out models/ncnv.bcop
//
// Arches: cnv | ncnv | ucnv | fp32 (the FP32 CNV Grad-CAM baseline).
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/architecture.hpp"
#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "facegen/dataset.hpp"
#include "util/args.hpp"
#include "util/log.hpp"

using namespace bcop;

namespace {

nn::Sequential build(const std::string& arch, std::uint64_t seed) {
  if (arch == "cnv") return core::build_bnn(core::ArchitectureId::kCnv, seed);
  if (arch == "ncnv") return core::build_bnn(core::ArchitectureId::kNCnv, seed);
  if (arch == "ucnv")
    return core::build_bnn(core::ArchitectureId::kMicroCnv, seed);
  if (arch == "fp32") return core::build_fp32_cnv(seed);
  throw std::invalid_argument("unknown --arch '" + arch +
                              "' (want cnv|ncnv|ucnv|fp32)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const std::string arch = args.get("arch", "ncnv");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int("seed", 7));

    facegen::DatasetConfig dcfg;
    dcfg.per_class_train = args.get_int("per-class", 1200);
    dcfg.per_class_test = args.get_int("test-per-class", 400);
    dcfg.seed = static_cast<std::uint64_t>(args.get_int("data-seed", 0xb1a5));
    util::log_info("generating dataset: ", dcfg.per_class_train,
                   "/class train, ", dcfg.per_class_test, "/class test");
    const auto dataset = facegen::MaskedFaceDataset::generate(dcfg);

    nn::Sequential model = build(arch, seed);
    util::log_info("training ", model.name(), " (",
                   model.parameter_count(), " parameters)");

    core::TrainConfig tcfg;
    tcfg.epochs = args.get_int("epochs", 15);
    tcfg.batch_size = args.get_int("batch", 50);
    tcfg.lr_start = static_cast<float>(args.get_double("lr", 3e-3));
    tcfg.lr_end = static_cast<float>(args.get_double("lr-end", 1e-4));
    tcfg.seed = seed;
    tcfg.eval_every = args.get_int("eval-every", 5);

    core::Trainer trainer(model, tcfg);
    trainer.fit(dataset.train(), dataset.test());

    const auto cm = core::Evaluator::evaluate_model(model, dataset.test());
    std::printf("%s\n", cm.render().c_str());
    std::printf("final test accuracy: %.2f%%\n", 100.0 * cm.accuracy());

    const std::string out = args.get("out", "models/" + arch + ".bcop");
    const std::filesystem::path dir = std::filesystem::path(out).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
    model.save(out);
    util::log_info("saved model to ", out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "train_binarycop: %s\n", e.what());
    return 1;
  }
}
