// Measures the engine's zero-allocation steady-state contract end to end.
//
// This binary links bcop_allocmeter, replacing the global operator new
// with a counting interposer (util/allocmeter.hpp). After one warm call,
// XnorNetwork::forward_batch(input, ws, out) against a prepared Workspace
// must perform ZERO heap allocations for all three Table I prototypes --
// the plan is cached, the arena is grown, the output tensor is reused, so
// nothing in the interpreter path may touch the allocator (lint rule R6
// enforces the same property statically on src/xnor/exec.cpp).
//
// The stage profiler is explicitly ENABLED here: per-stage telemetry
// recording (obs/metrics.hpp, rule R7) must ride the interpreter without
// costing a single allocation, so the contract is measured in the
// worst-case (instrumented) configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/architecture.hpp"
#include "core/fold.hpp"
#include "core/predictor.hpp"
#include "obs/stage_profiler.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/allocmeter.hpp"
#include "util/rng.hpp"
#include "xnor/engine.hpp"
#include "xnor/plan.hpp"

namespace {

using namespace bcop;
using core::ArchitectureId;
using tensor::Shape;
using tensor::Tensor;

Tensor random_images(std::int64_t n, std::uint64_t seed) {
  Tensor x(Shape{n, 32, 32, 3});
  util::Rng rng(seed);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform());
  return x;
}

TEST(ZeroAlloc, InterposerIsLive) {
  // Guard against a silent link regression: if the counting operator new
  // ever stops being the one in this binary, every zero-allocation
  // assertion below becomes vacuous.
  const std::uint64_t before = util::alloc_count();
  auto p = std::make_unique<std::uint64_t>(42);
  ASSERT_EQ(*p, 42u);
  EXPECT_GT(util::alloc_count(), before);
}

class ZeroAllocPrototype : public ::testing::TestWithParam<ArchitectureId> {};

TEST_P(ZeroAllocPrototype, ForwardBatchSteadyStateIsAllocationFree) {
  obs::StageProfiler::global().set_enabled(true);
  nn::Sequential model = core::build_bnn(GetParam(), 29);
  const xnor::XnorNetwork net = core::fold(model);

  // The contract holds on EVERY kernel dispatch tier this host can run,
  // not just the detected best: a SIMD tier that allocates (or a scalar
  // fallback that regresses) must fail here the same way.
  namespace kn = tensor::kernels;
  for (int lvl = 0; lvl < kn::kKernelLevelCount; ++lvl) {
    const auto level = static_cast<kn::KernelLevel>(lvl);
    if (!kn::level_available(level)) continue;
    kn::set_level_override(level);
    for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{4}}) {
      const Tensor x =
          random_images(batch, 1000 + static_cast<std::uint64_t>(batch));
      xnor::Workspace ws;
      Tensor out;
      net.forward_batch(x, ws, out);  // warm: compiles plan, grows arena
      const Tensor expected = out;

      const std::uint64_t mark = util::alloc_count();
      net.forward_batch(x, ws, out);
      net.forward_batch(x, ws, out);
      const std::uint64_t allocs = util::alloc_count() - mark;
      EXPECT_EQ(allocs, 0u)
          << core::arch_name(GetParam()) << " batch " << batch << " tier "
          << kn::kernel_level_name(level)
          << ": steady-state forward_batch allocated";

      for (std::int64_t i = 0; i < out.numel(); ++i)
        ASSERT_EQ(out[i], expected[i]) << "logit drift at " << i;
    }
  }
  kn::clear_level_override();
}

// The contract extends to ReBNet residual plans: multi-level GEMM passes,
// pattern-bank firing and the lexicographic pool all run out of the same
// arena (exec_residual.cpp is in the same R6 allocation-free zone), at
// the full trained depth and at every truncated level cap.
TEST_P(ZeroAllocPrototype, ResidualForwardBatchSteadyStateIsAllocationFree) {
  obs::StageProfiler::global().set_enabled(true);
  nn::Sequential model = core::build_bnn(GetParam(), 29, /*residual_levels=*/3);
  const xnor::XnorNetwork net = core::fold(model);

  const Tensor x = random_images(2, 555);
  for (std::int64_t cap = 0; cap <= 3; ++cap) {
    xnor::Workspace ws;
    Tensor out;
    net.forward_batch(x, ws, out, cap);  // warm
    const Tensor expected = out;

    const std::uint64_t mark = util::alloc_count();
    net.forward_batch(x, ws, out, cap);
    net.forward_batch(x, ws, out, cap);
    EXPECT_EQ(util::alloc_count() - mark, 0u)
        << core::arch_name(GetParam()) << " level cap " << cap
        << ": steady-state residual forward_batch allocated";
    for (std::int64_t i = 0; i < out.numel(); ++i)
      ASSERT_EQ(out[i], expected[i]) << "logit drift at " << i;
  }
}

TEST_P(ZeroAllocPrototype, PredictorClassifyBatchSteadyStateIsAllocationFree) {
  obs::StageProfiler::global().set_enabled(true);
  const core::Predictor predictor(core::build_bnn(GetParam(), 31));

  const Tensor x = random_images(4, 77);
  xnor::Workspace ws;
  Tensor logits;
  std::vector<core::Predictor::Result> results;
  predictor.classify_batch(x, ws, logits, results);  // warm
  ASSERT_EQ(results.size(), 4u);

  const std::uint64_t mark = util::alloc_count();
  predictor.classify_batch(x, ws, logits, results);
  EXPECT_EQ(util::alloc_count() - mark, 0u)
      << core::arch_name(GetParam())
      << ": steady-state classify_batch allocated";
}

INSTANTIATE_TEST_SUITE_P(Prototypes, ZeroAllocPrototype,
                         ::testing::Values(ArchitectureId::kCnv,
                                           ArchitectureId::kNCnv,
                                           ArchitectureId::kMicroCnv),
                         [](const auto& info) {
                           switch (info.param) {
                             case ArchitectureId::kCnv: return "CNV";
                             case ArchitectureId::kNCnv: return "nCNV";
                             default: return "uCNV";
                           }
                         });

}  // namespace
