// Prototype-scale exactness. The random-topology harness
// (test_xnor_vs_float) draws first-conv widths of 4-24 channels and short
// patch rows, so it never runs the co = 16 / co = 64 first conv through
// the 4-pixel kernel, nor a 2304-bit patch row through the GEMM. Here the
// three paper prototypes, built and briefly trained at M = 3 (the
// residual first conv stores int32 accumulators for the pattern banks)
// and at M = 1 (the classic first conv fires its stack tiles through the
// threshold kernel), must fold to logits bit-equal to the float graph on
// +-1 inputs -- the same method as expect_all_paths_agree. The 30-pixel
// first-conv rows leave a 2-pixel tail behind the 4-pixel groups, so both
// kernel bodies run, and batch 3 on a multi-core pool replays one-image
// chunks beside each other.
//
// The kernel tier is whatever dispatch picks; CI re-runs this binary with
// BCOP_KERNEL_LEVEL forced to scalar, avx2 and avx512.
#include <gtest/gtest.h>

#include "core/architecture.hpp"
#include "core/fold.hpp"
#include "test_random_arch.hpp"
#include "xnor/engine.hpp"

namespace {

using namespace bcop;
using core::ArchitectureId;
using tensor::Shape;
using tensor::Tensor;

class XnorResidualPrototype : public ::testing::TestWithParam<ArchitectureId> {
};

/// Build `id` at `levels`, train it briefly, and require the folded
/// network's logits on a batch of 3 +-1 images to equal the float graph's.
void expect_folded_matches_float(ArchitectureId id, std::int64_t levels) {
  testhelpers::RandomArch arch{core::build_bnn(id, 17, levels), 32, 3};
  util::Rng rng(2024);
  testhelpers::briefly_train(arch, rng, 2);
  const xnor::XnorNetwork net = core::fold(arch.model);
  ASSERT_EQ(net.max_levels(), levels);

  Tensor x(Shape{3, 32, 32, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;

  const Tensor ref = arch.model.forward(x, false);
  const Tensor got = net.forward_batch(x);
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_EQ(got[i], ref[i]) << core::arch_name(id) << " M = " << levels
                              << " logit " << i;
}

TEST_P(XnorResidualPrototype, FoldedM3LogitsMatchFloatGraph) {
  expect_folded_matches_float(GetParam(), 3);
}

TEST_P(XnorResidualPrototype, FoldedM1LogitsMatchFloatGraph) {
  expect_folded_matches_float(GetParam(), 1);
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
