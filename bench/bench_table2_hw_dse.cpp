// Reproduces Table II: hardware results of the design space exploration --
// LUT / BRAM / DSP from the calibrated resource model and test accuracy of
// the trained prototypes (evaluated through the folded XNOR network, i.e.
// exactly what the FPGA would compute). Also reports the "hard" evaluation
// split (heavily augmented), which separates model capacities the way the
// real MaskedFace-Net separates them (see EXPERIMENTS.md).
#include <cstdio>

#include "bench_util.hpp"
#include "core/evaluator.hpp"
#include "core/fold.hpp"
#include "deploy/resource.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "xnor/engine.hpp"

using namespace bcop;

namespace {
struct PaperRow {
  const char* name;
  double lut, bram, dsp, acc;
};
constexpr PaperRow kPaper[] = {
    {"CNV", 26060, 124, 24, 98.10},
    {"n-CNV", 20425, 10.5, 14, 93.94},
    {"u-CNV", 11738, 14, 27, 93.78},
};
}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const int per_class = args.get_int("test-per-class", 400);
    const auto eval_set = bench::make_eval_set(per_class);
    const auto hard_set = bench::make_hard_eval_set(per_class);

    std::printf("TABLE II: Hardware results of design space exploration\n");
    std::printf("(paper values in parentheses; accuracy measured on %d "
                "synthetic test samples via the folded XNOR network)\n\n",
                4 * per_class);

    util::AsciiTable t({"Configuration", "LUT", "BRAM18", "DSP", "Acc. %",
                        "Hard-set Acc. %", "Target part"});
    const core::ArchitectureId arches[] = {core::ArchitectureId::kCnv,
                                           core::ArchitectureId::kNCnv,
                                           core::ArchitectureId::kMicroCnv};
    for (int i = 0; i < 3; ++i) {
      const auto arch = arches[i];
      const bool offload = arch == core::ArchitectureId::kMicroCnv;
      const auto est =
          deploy::estimate_resources(core::layer_specs(arch), offload);

      nn::Sequential model = bench::load_model(arch);
      xnor::XnorNetwork net = core::fold(model);
      const double acc =
          core::Evaluator::evaluate_xnor(net, eval_set).accuracy();
      const double hard_acc =
          core::Evaluator::evaluate_xnor(net, hard_set).accuracy();

      const auto part = offload ? deploy::z7010() : deploy::z7020();
      t.add_row({std::string(core::arch_name(arch)),
                 std::to_string(est.lut) + " (" + util::fmt(kPaper[i].lut, 0) + ")",
                 util::fmt(est.bram18, 1) + " (" + util::fmt(kPaper[i].bram, 1) + ")",
                 std::to_string(est.dsp) + " (" + util::fmt(kPaper[i].dsp, 0) + ")",
                 util::fmt(100 * acc, 2) + " (" + util::fmt(kPaper[i].acc, 2) + ")",
                 util::fmt(100 * hard_acc, 2),
                 part.name + (est.fits(part.lut, part.bram18, part.dsp)
                                  ? " [fits]"
                                  : " [DOES NOT FIT]")});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nu-CNV uses the OrthrusPE-style DSP offloading of XNOR "
                "compute [27], which is what makes it synthesizable on the "
                "Z7010's %lld LUTs.\n",
                static_cast<long long>(deploy::z7010().lut));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table2: %s\n", e.what());
    return 1;
  }
}
