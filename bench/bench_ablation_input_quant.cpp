// Ablation (DESIGN.md #3): first-layer input bit-width. FINN-style
// accelerators feed the first MVTU fixed-point pixels; this sweep
// re-quantizes the test images to 1..8 bits per channel and measures the
// folded n-CNV's accuracy, showing why 8-bit input costs nothing while
// 1-2 bit input visibly hurts.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/evaluator.hpp"
#include "core/fold.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "xnor/engine.hpp"

using namespace bcop;

namespace {

std::vector<facegen::Sample> requantize(std::vector<facegen::Sample> set,
                                        int bits) {
  const float levels = static_cast<float>((1 << bits) - 1);
  for (auto& s : set)
    for (auto& v : s.image.data())
      v = std::round(v * levels) / levels;
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const int per_class = args.get_int("test-per-class", 250);

    nn::Sequential model = bench::load_model(core::ArchitectureId::kNCnv);
    xnor::XnorNetwork net = core::fold(model);
    const auto eval_set = bench::make_eval_set(per_class);

    std::printf("Ablation: input quantization bit-width (n-CNV, %d test "
                "samples)\n\n",
                4 * per_class);
    util::AsciiTable t({"input bits", "accuracy %"});
    for (const int bits : {1, 2, 3, 4, 6, 8}) {
      const auto quantized = requantize(eval_set, bits);
      const double acc =
          core::Evaluator::evaluate_xnor(net, quantized).accuracy();
      t.add_row({std::to_string(bits), util::fmt(100 * acc, 2)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(8 bits is the deployed configuration; training consumed "
                "8-bit-gridded pixels, so that row is the reference.)\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ablation_input_quant: %s\n", e.what());
    return 1;
  }
}
