// Reproduces Fig. 2: the confusion matrix of Binary-CoP-CNV on the test
// set. The paper reports ~98% on each diagonal entry after balancing.
#include <cstdio>

#include "bench_util.hpp"
#include "core/evaluator.hpp"
#include "core/fold.hpp"
#include "util/args.hpp"
#include "xnor/engine.hpp"

using namespace bcop;

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const int per_class = args.get_int("test-per-class", 500);

    nn::Sequential model = bench::load_model(core::ArchitectureId::kCnv);
    xnor::XnorNetwork net = core::fold(model);
    const auto eval_set = bench::make_eval_set(per_class);
    const auto cm = core::Evaluator::evaluate_xnor(net, eval_set);

    std::printf("FIG. 2: Confusion matrix of Binary-CoP-CNV on the test set "
                "(%d samples/class)\n\n%s\n",
                per_class, cm.render().c_str());
    std::printf("overall accuracy: %.2f%% (paper: 98.10%%)\n",
                100.0 * cm.accuracy());
    for (int c = 0; c < facegen::kNumClasses; ++c)
      std::printf("  recall %-8s %.1f%% (paper: ~98%%)\n",
                  facegen::class_short_name(static_cast<facegen::MaskClass>(c)),
                  100.0 * cm.recall(c));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fig2: %s\n", e.what());
    return 1;
  }
}
