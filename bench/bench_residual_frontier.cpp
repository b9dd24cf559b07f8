// Residual binarization accuracy/FPS frontier (docs/residual-binarization.md).
//
// ReBNet-style residual binarization trains ONE model at M = 3 levels and
// serves it at any truncated depth M in {1, 2, 3}: each extra level adds
// one more XNOR-popcount GEMM pass (and its pattern threshold banks) in
// exchange for a closer approximation of the float activations. This
// bench measures that trade empirically per prototype:
//
//   for each architecture:   train once at M = 3, fold once
//     for each level cap M:  accuracy on a held-out facegen test set
//                            + steady-state batched FPS at that cap
//
// Accuracy uses core::Evaluator::evaluate_xnor at the cap; FPS times the
// allocation-free forward_batch(x, ws, out, M) serving path after a warm
// call, so the numbers are the same path a tiered serve::Router pays for
// its fast and full-depth replicas. All caps run against the SAME folded
// network and plan cache -- the frontier isolates the cost of depth,
// nothing else.
//
// The JSON artifact (--out, default bench_artifacts/residual_frontier.json)
// records per-point accuracy, FPS and the mean softmax margin (the
// escalation-threshold tuning signal), plus provenance (git SHA, kernel
// tier, dataset/training shape) -- docs/benchmarks.md describes how to
// read it.
//
// Knobs: --arch-list cnv,ncnv,ucnv --levels-list 1,2,3 --epochs N
// --per-class-train N --per-class-test N --batch N --reps N --seed S
// --out PATH --smoke (uCNV only, tiny dataset/reps, for CI wiring).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "facegen/dataset.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "util/args.hpp"
#include "xnor/engine.hpp"
#include "xnor/plan.hpp"

using namespace bcop;

#ifndef BCOP_GIT_SHA
#define BCOP_GIT_SHA "unknown"
#endif

namespace {

struct FrontierPoint {
  std::int64_t levels = 0;
  double accuracy = 0;
  double fps = 0;
  double mean_margin = 0;  // mean softmax top1-top2 gap on the test set
};

struct ArchResult {
  std::string arch;
  std::int64_t weight_bits = 0;
  std::vector<FrontierPoint> points;
};

core::ArchitectureId parse_arch(const std::string& name) {
  if (name == "cnv") return core::ArchitectureId::kCnv;
  if (name == "ncnv") return core::ArchitectureId::kNCnv;
  if (name == "ucnv") return core::ArchitectureId::kMicroCnv;
  throw std::invalid_argument("unknown architecture: " + name);
}

std::vector<std::string> parse_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Steady-state batched FPS at one level cap: warm call compiles the
/// capped plan and grows the arena, then `reps` timed calls reuse both.
double measure_fps(const xnor::XnorNetwork& net, const tensor::Tensor& x,
                   std::int64_t levels, int reps) {
  xnor::Workspace ws;
  tensor::Tensor out;
  net.forward_batch(x, ws, out, levels);  // warm
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) net.forward_batch(x, ws, out, levels);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double images = static_cast<double>(reps) *
                        static_cast<double>(x.shape()[0]);
  return seconds > 0 ? images / seconds : 0.0;
}

/// Mean softmax top1-top2 margin over the test set at one level cap --
/// the distribution RouterConfig::margin_threshold cuts.
double mean_margin(const xnor::XnorNetwork& net,
                   const std::vector<facegen::Sample>& samples,
                   std::int64_t levels) {
  double total = 0;
  std::int64_t n = 0;
  tensor::Tensor x(tensor::Shape{1, 32, 32, 3});
  for (const auto& s : samples) {
    const tensor::Tensor img =
        facegen::MaskedFaceDataset::image_to_tensor(s.image);
    const tensor::Tensor logits = net.forward_batch(img, levels);
    const std::int64_t classes = logits.shape()[1];
    // Softmax margin straight from the logits (monotone transform).
    float mx = logits[0];
    for (std::int64_t c = 1; c < classes; ++c)
      mx = std::max(mx, logits[c]);
    double sum = 0, top1 = 0, top2 = 0;
    for (std::int64_t c = 0; c < classes; ++c) {
      const double p = std::exp(static_cast<double>(logits[c] - mx));
      sum += p;
      if (p > top1) {
        top2 = top1;
        top1 = p;
      } else if (p > top2) {
        top2 = p;
      }
    }
    total += (top1 - top2) / sum;
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv, {"smoke"});
    const bool smoke = args.get_flag("smoke");
    const int epochs = args.get_int("epochs", smoke ? 1 : 8);
    const int per_class_train =
        args.get_int("per-class-train", smoke ? 24 : 400);
    const int per_class_test = args.get_int("per-class-test", smoke ? 8 : 80);
    const std::int64_t batch =
        static_cast<std::int64_t>(args.get_int("batch", smoke ? 4 : 32));
    const int reps = args.get_int("reps", smoke ? 3 : 20);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int("seed", 7));
    const std::vector<std::string> arch_names =
        parse_list(args.get("arch-list", smoke ? "ucnv" : "ncnv,ucnv"));
    const std::vector<std::string> level_names =
        parse_list(args.get("levels-list", "1,2,3"));

    facegen::DatasetConfig dcfg;
    dcfg.per_class_train = per_class_train;
    dcfg.per_class_test = per_class_test;
    dcfg.seed = seed;
    const auto ds = facegen::MaskedFaceDataset::generate(dcfg);

    std::vector<ArchResult> results;
    for (const std::string& arch_name : arch_names) {
      const core::ArchitectureId arch = parse_arch(arch_name);
      // One model, trained once at the FULL residual depth; every sweep
      // point below is a truncation of this same network.
      nn::Sequential model =
          core::build_bnn(arch, seed, /*residual_levels=*/3);
      core::TrainConfig tcfg;
      tcfg.epochs = epochs;
      tcfg.eval_every = 0;
      core::Trainer(model, tcfg).fit(ds.train(), {});
      const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);

      ArchResult ar;
      ar.arch = core::arch_name(arch);
      ar.weight_bits = net.weight_bits();
      // Timing input: one fixed batch of test images.
      tensor::Tensor x(tensor::Shape{batch, 32, 32, 3});
      for (std::int64_t i = 0; i < batch; ++i) {
        const auto& s = ds.test()[static_cast<std::size_t>(i) %
                                  ds.test().size()];
        const tensor::Tensor img =
            facegen::MaskedFaceDataset::image_to_tensor(s.image);
        for (std::int64_t j = 0; j < img.numel(); ++j)
          x[i * img.numel() + j] = img[j];
      }

      for (const std::string& level_name : level_names) {
        FrontierPoint pt;
        pt.levels = std::stoll(level_name);
        pt.accuracy = core::Evaluator::evaluate_xnor(net, ds.test(),
                                                     /*batch_size=*/64,
                                                     pt.levels)
                          .accuracy();
        pt.fps = measure_fps(net, x, pt.levels, reps);
        pt.mean_margin = mean_margin(net, ds.test(), pt.levels);
        std::printf("%s M=%lld: accuracy %.4f | %.0f FPS | mean margin "
                    "%.3f\n",
                    ar.arch.c_str(), static_cast<long long>(pt.levels),
                    pt.accuracy, pt.fps, pt.mean_margin);
        ar.points.push_back(pt);
      }
      results.push_back(std::move(ar));
    }

    const std::string out =
        args.get("out", "bench_artifacts/residual_frontier.json");
    const std::filesystem::path dir = std::filesystem::path(out).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
    FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"trained_levels\": 3,\n  \"epochs\": %d,\n"
                 "  \"per_class_train\": %d,\n  \"per_class_test\": %d,\n"
                 "  \"timing_batch\": %lld,\n  \"timing_reps\": %d,\n"
                 "  \"kernel_level\": \"%s\",\n  \"git_sha\": \"%s\",\n"
                 "  \"archs\": [",
                 epochs, per_class_train, per_class_test,
                 static_cast<long long>(batch), reps,
                 tensor::kernels::kernel_level_name(
                     tensor::kernels::active_level()),
                 BCOP_GIT_SHA);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ArchResult& ar = results[i];
      std::fprintf(f,
                   "%s\n    {\"arch\": \"%s\", \"weight_bits\": %lld, "
                   "\"points\": [",
                   i ? "," : "", ar.arch.c_str(),
                   static_cast<long long>(ar.weight_bits));
      for (std::size_t p = 0; p < ar.points.size(); ++p)
        std::fprintf(f,
                     "%s\n      {\"levels\": %lld, \"accuracy\": %.6f, "
                     "\"fps\": %.1f, \"mean_margin\": %.6f}",
                     p ? "," : "",
                     static_cast<long long>(ar.points[p].levels),
                     ar.points[p].accuracy, ar.points[p].fps,
                     ar.points[p].mean_margin);
      std::fprintf(f, "\n    ]}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("frontier artifact written to %s\n", out.c_str());

    // Regression gate for CI: each sweep must produce one point per
    // requested level with sane values (accuracy is a probability, FPS is
    // positive). Accuracy ORDERING across levels is noisy on smoke-sized
    // training runs, so it is reported, not asserted.
    for (const ArchResult& ar : results) {
      if (ar.points.size() != level_names.size()) {
        std::fprintf(stderr, "FAIL: %s produced %zu of %zu points\n",
                     ar.arch.c_str(), ar.points.size(), level_names.size());
        return 1;
      }
      for (const FrontierPoint& pt : ar.points) {
        if (pt.accuracy < 0 || pt.accuracy > 1 || pt.fps <= 0) {
          std::fprintf(stderr, "FAIL: %s M=%lld has invalid point\n",
                       ar.arch.c_str(), static_cast<long long>(pt.levels));
          return 1;
        }
      }
    }
    std::printf("OK: frontier complete\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_residual_frontier: %s\n", e.what());
    return 1;
  }
}
