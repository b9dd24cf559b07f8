// Differential float<->xnor harness: for 100 randomized architectures the
// three inference paths must agree --
//   (a) the float nn::Sequential graph (reference semantics),
//   (b) the single-image XNOR engine path (XnorNetwork::forward),
//   (c) the batched bit-domain path (XnorNetwork::forward_batch).
// Logits are compared bit-exactly ((b) and (c) fold to the same integer
// arithmetic as (a) on bipolar inputs), and the per-image argmax -- the
// classification the serving layer acts on -- must match for every image
// in the batch.
//
// The residual suites (M in {2, 3}) hold ReBNet-folded networks to the
// same bit-exact standard: the dyadic scale grid makes every float partial
// sum in (a) a multiple of 2^-8 far below 2^24, so float addition is exact
// in any order and the integer path A = sum_m g_m * acc_m must reproduce
// the float logits to the last bit (docs/residual-binarization.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/fold.hpp"
#include "test_random_arch.hpp"
#include "xnor/engine.hpp"
#include "xnor/plan.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;
using testhelpers::RandomArch;
using testhelpers::make_random_arch;

std::int64_t argmax_row(const Tensor& logits, std::int64_t row) {
  std::int64_t best = 0;
  for (std::int64_t c = 1; c < logits.shape()[1]; ++c)
    if (logits.at2(row, c) > logits.at2(row, best)) best = c;
  return best;
}

class XnorVsFloat : public ::testing::TestWithParam<int> {};

void expect_all_paths_agree(std::uint64_t seed, std::int64_t levels) {
  RandomArch arch = make_random_arch(seed * 9176 + 11, levels);
  util::Rng rng(seed + 123);
  testhelpers::briefly_train(arch, rng);

  const xnor::XnorNetwork net = core::fold(arch.model);
  ASSERT_EQ(net.max_levels(), levels);

  const std::int64_t kBatch = 5;
  Tensor x(Shape{kBatch, arch.input_size, arch.input_size,
                 arch.input_channels});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;

  const Tensor ref = arch.model.forward(x, false);
  const Tensor batched = net.forward_batch(x);
  ASSERT_EQ(batched.shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_FLOAT_EQ(batched[i], ref[i])
        << arch.model.name() << " flat logit " << i;

  const std::int64_t stride = x.numel() / kBatch;
  for (std::int64_t n = 0; n < kBatch; ++n) {
    Tensor xi(Shape{1, arch.input_size, arch.input_size,
                    arch.input_channels});
    std::memcpy(xi.data(), x.data() + n * stride,
                static_cast<std::size_t>(stride) * sizeof(float));
    const Tensor single = net.forward(xi);
    ASSERT_EQ(single.shape(), (Shape{1, ref.shape()[1]}));
    for (std::int64_t c = 0; c < ref.shape()[1]; ++c)
      ASSERT_FLOAT_EQ(single.at2(0, c), batched.at2(n, c))
          << arch.model.name() << " image " << n << " logit " << c;
    EXPECT_EQ(argmax_row(batched, n), argmax_row(ref, n)) << " image " << n;
    EXPECT_EQ(argmax_row(single, 0), argmax_row(ref, n)) << " image " << n;
  }
}

TEST_P(XnorVsFloat, AllThreePathsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  RandomArch arch = make_random_arch(seed * 9176 + 11);
  util::Rng rng(seed + 123);
  testhelpers::briefly_train(arch, rng);

  const xnor::XnorNetwork net = core::fold(arch.model);

  const std::int64_t kBatch = 5;
  Tensor x(Shape{kBatch, arch.input_size, arch.input_size,
                 arch.input_channels});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;

  const Tensor ref = arch.model.forward(x, false);
  const Tensor batched = net.forward_batch(x);
  ASSERT_EQ(batched.shape(), ref.shape());

  // (c) vs (a): bit-exact logits for the whole batch.
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_FLOAT_EQ(batched[i], ref[i])
        << arch.model.name() << " flat logit " << i;

  const std::int64_t stride = x.numel() / kBatch;
  for (std::int64_t n = 0; n < kBatch; ++n) {
    // (b): run image n alone through the single-image engine path.
    Tensor xi(Shape{1, arch.input_size, arch.input_size,
                    arch.input_channels});
    std::memcpy(xi.data(), x.data() + n * stride,
                static_cast<std::size_t>(stride) * sizeof(float));
    const Tensor single = net.forward(xi);
    ASSERT_EQ(single.shape(), (Shape{1, ref.shape()[1]}));
    for (std::int64_t c = 0; c < ref.shape()[1]; ++c)
      ASSERT_FLOAT_EQ(single.at2(0, c), batched.at2(n, c))
          << arch.model.name() << " image " << n << " logit " << c;

    // Argmax (the served classification) agrees across all three paths.
    const std::int64_t want = argmax_row(ref, n);
    EXPECT_EQ(argmax_row(batched, n), want) << " image " << n;
    EXPECT_EQ(argmax_row(single, 0), want) << " image " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XnorVsFloat, ::testing::Range(0, 100));

// ReBNet residual binarization, M = 2 and M = 3: the same 100-seed
// topology sweep, every activation replaced by a ResidualSign. Logits
// must still be bit-exact against the float graph.
class XnorVsFloatM2 : public ::testing::TestWithParam<int> {};
TEST_P(XnorVsFloatM2, AllThreePathsAgree) {
  expect_all_paths_agree(static_cast<std::uint64_t>(GetParam()), 2);
}
INSTANTIATE_TEST_SUITE_P(Seeds, XnorVsFloatM2, ::testing::Range(0, 100));

class XnorVsFloatM3 : public ::testing::TestWithParam<int> {};
TEST_P(XnorVsFloatM3, AllThreePathsAgree) {
  expect_all_paths_agree(static_cast<std::uint64_t>(GetParam()), 3);
}
INSTANTIATE_TEST_SUITE_P(Seeds, XnorVsFloatM3, ::testing::Range(0, 100));

// Truncated serving: an M = 3 network evaluated with a level cap of Lo
// must match, bit for bit, the network whose residual descriptors are
// hand-truncated to Lo levels (drop the deeper planes, keep the strict
// prefix of pattern banks). This is the invariant that lets one trained
// artifact serve the whole accuracy/latency frontier.
TEST(XnorVsFloatTruncated, LevelCapMatchesHandTruncatedNetwork) {
  for (int seed = 0; seed < 12; ++seed) {
    RandomArch arch = make_random_arch(static_cast<std::uint64_t>(seed) * 131 + 7, 3);
    util::Rng rng(static_cast<std::uint64_t>(seed) + 77);
    testhelpers::briefly_train(arch, rng);
    const xnor::XnorNetwork net = core::fold(arch.model);

    Tensor x(Shape{3, arch.input_size, arch.input_size,
                   arch.input_channels});
    for (std::int64_t i = 0; i < x.numel(); ++i)
      x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;

    for (std::int64_t cap = 1; cap <= 2; ++cap) {
      std::vector<xnor::Stage> truncated = net.stages();
      for (xnor::Stage& stage : truncated) {
        auto* spec = const_cast<xnor::ResidualSpec*>(xnor::stage_residual(stage));
        if (spec == nullptr || spec->levels <= cap) continue;
        spec->levels = cap;
        spec->scale_bits.resize(static_cast<std::size_t>(cap));
        spec->extra_banks.resize(
            static_cast<std::size_t>((std::int64_t{1} << cap) - 2));
      }
      const xnor::XnorNetwork hand(net.name(), std::move(truncated));
      const Tensor capped = net.forward_batch(x, cap);
      const Tensor want = hand.forward_batch(x);
      ASSERT_EQ(capped.shape(), want.shape());
      for (std::int64_t i = 0; i < want.numel(); ++i)
        ASSERT_FLOAT_EQ(capped[i], want[i])
            << "seed " << seed << " cap " << cap << " flat logit " << i;
    }

    // A cap at or above the trained depth normalizes to the full plan.
    const Tensor full = net.forward_batch(x);
    const Tensor at3 = net.forward_batch(x, 3);
    for (std::int64_t i = 0; i < full.numel(); ++i)
      ASSERT_FLOAT_EQ(at3[i], full[i]) << "seed " << seed;
  }
}

// The allocation-free serving form must agree bit-for-bit with the
// convenience path while one Workspace and one output tensor are reused
// across networks and batch sizes (the arena is grow-only and the plan
// carries all geometry, so nothing may leak state between calls).
TEST(XnorVsFloatWorkspace, SharedWorkspaceReuseStaysBitExact) {
  xnor::Workspace ws;  // deliberately shared across everything below
  Tensor out;
  for (int seed = 0; seed < 8; ++seed) {
    RandomArch arch = make_random_arch(static_cast<std::uint64_t>(seed) * 977 + 5);
    util::Rng rng(static_cast<std::uint64_t>(seed) + 321);
    testhelpers::briefly_train(arch, rng);
    const xnor::XnorNetwork net = core::fold(arch.model);

    for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{6}}) {
      Tensor x(Shape{batch, arch.input_size, arch.input_size,
                     arch.input_channels});
      for (std::int64_t i = 0; i < x.numel(); ++i)
        x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;

      const Tensor ref = arch.model.forward(x, false);
      net.forward_batch(x, ws, out);
      ASSERT_EQ(out.shape(), ref.shape());
      for (std::int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_FLOAT_EQ(out[i], ref[i])
            << arch.model.name() << " batch " << batch << " flat logit " << i;
    }
  }
}

}  // namespace
