// Prototype-scale residual exactness. The random-topology harness
// (test_xnor_vs_float) draws first-conv widths of 4-24 channels and short
// patch rows, so it never runs CNV's co = 64 residual first conv through
// the 4-pixel kernel with its int32-store epilogue, nor a 2304-bit patch
// row through the plane-fused GEMM at M > 1. Here the three paper
// prototypes, built and briefly trained at M = 3, must fold to logits
// bit-equal to the float graph on +-1 inputs -- the same method as
// expect_all_paths_agree. Batch 3 leaves the 30-pixel first-conv rows with
// a 2-pixel tail behind the 4-pixel groups, so both kernel bodies run.
//
// The kernel tier is whatever dispatch picks; CI re-runs this binary with
// BCOP_KERNEL_LEVEL forced to scalar, avx2 and avx512.
#include <gtest/gtest.h>

#include "core/architecture.hpp"
#include "test_random_arch.hpp"
#include "xnor/engine.hpp"

namespace {

using namespace bcop;
using core::ArchitectureId;
using tensor::Shape;
using tensor::Tensor;

class XnorResidualPrototype : public ::testing::TestWithParam<ArchitectureId> {
};

TEST_P(XnorResidualPrototype, FoldedM3LogitsMatchFloatGraph) {
  testhelpers::RandomArch arch{core::build_bnn(GetParam(), 17, 3), 32, 3};
  util::Rng rng(2024);
  testhelpers::briefly_train(arch, rng, 2);
  const xnor::XnorNetwork net = xnor::XnorNetwork::fold(arch.model);
  ASSERT_EQ(net.max_levels(), 3);

  Tensor x(Shape{3, 32, 32, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;

  const Tensor ref = arch.model.forward(x, false);
  const Tensor got = net.forward_batch(x);
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_EQ(got[i], ref[i]) << core::arch_name(GetParam()) << " logit " << i;
}

INSTANTIATE_TEST_SUITE_P(Prototypes, XnorResidualPrototype,
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
