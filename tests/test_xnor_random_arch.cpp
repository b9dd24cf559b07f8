// Property test: folding correctness must hold for *any* supported BNN
// topology, not just the three paper prototypes. Random architectures
// (from test_random_arch.hpp) are generated, lightly trained so BN state
// is non-trivial, folded, and checked bit-exactly against the float graph
// on bipolar inputs.
#include <gtest/gtest.h>

#include "core/fold.hpp"
#include "test_random_arch.hpp"
#include "xnor/engine.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;
using testhelpers::RandomArch;
using testhelpers::make_random_arch;

class RandomArchFolding : public ::testing::TestWithParam<int> {};

TEST_P(RandomArchFolding, EngineMatchesGraphBitExactly) {
  RandomArch arch = make_random_arch(static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 77);

  // Brief training to give BN layers non-trivial state.
  testhelpers::briefly_train(arch, rng);

  xnor::XnorNetwork net = core::fold(arch.model);
  for (int trial = 0; trial < 3; ++trial) {
    Tensor x(Shape{2, arch.input_size, arch.input_size, arch.input_channels});
    for (std::int64_t i = 0; i < x.numel(); ++i)
      x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;
    const Tensor ref = arch.model.forward(x, false);
    const Tensor got = net.forward(x);
    ASSERT_EQ(got.shape(), ref.shape());
    for (std::int64_t i = 0; i < ref.numel(); ++i)
      ASSERT_FLOAT_EQ(got[i], ref[i])
          << arch.model.name() << " trial " << trial << " logit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomArchFolding, ::testing::Range(0, 12));

}  // namespace
