// Folded XNOR engine vs. the float training graph.
//
// For {-1,+1} inputs the two must agree *bit-exactly*: every hidden value
// is an integer and the folded thresholds are exact by construction. For
// 8-bit-quantized image inputs the first layer introduces one rounding
// boundary, so we require prediction agreement instead.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/architecture.hpp"
#include "core/fold.hpp"
#include "facegen/dataset.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax_xent.hpp"
#include "test_helpers.hpp"
#include "tensor/ops.hpp"
#include "xnor/engine.hpp"

namespace {

using namespace bcop;
using bcop::tensor::Shape;
using bcop::tensor::Tensor;
using bcop::testhelpers::random_tensor;

// A few optimizer steps on random data give the BatchNorms non-trivial
// gamma/beta/running statistics -- fresh layers fold trivially.
void randomize_bn_state(nn::Sequential& model, std::uint64_t seed,
                        const Shape& input_shape) {
  util::Rng rng(seed);
  nn::Adam opt(model, 1e-2f);
  nn::SoftmaxCrossEntropy head;
  for (int i = 0; i < 5; ++i) {
    const Tensor x = random_tensor(input_shape, rng);
    std::vector<std::int64_t> y(static_cast<std::size_t>(input_shape[0]));
    for (auto& v : y) v = rng.uniform_int(0, 3);
    head.forward(model.forward(x, true), y);
    model.backward(head.backward());
    opt.step();
  }
}

Tensor bipolar_input(const Shape& s, util::Rng& rng) {
  Tensor x(s);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = rng.bernoulli(0.5) ? 1.f : -1.f;
  return x;
}

class EngineExactness : public ::testing::TestWithParam<int> {};

TEST_P(EngineExactness, BitExactOnBipolarInputsMicroCnv) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv,
                                         static_cast<std::uint64_t>(GetParam()));
  randomize_bn_state(model, 50 + static_cast<std::uint64_t>(GetParam()),
                     Shape{4, 32, 32, 3});
  xnor::XnorNetwork net = core::fold(model);

  util::Rng rng(99 + static_cast<std::uint64_t>(GetParam()));
  const Tensor x = bipolar_input(Shape{3, 32, 32, 3}, rng);
  const Tensor ref = model.forward(x, false);
  const Tensor got = net.forward(x);
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    ASSERT_FLOAT_EQ(got[i], ref[i]) << "logit " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineExactness, ::testing::Range(0, 4));

TEST(Engine, PredictionAgreementOnQuantizedFaces) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 3);
  randomize_bn_state(model, 4, Shape{4, 32, 32, 3});
  xnor::XnorNetwork net = core::fold(model);

  facegen::DatasetConfig cfg;
  cfg.per_class_train = 10;
  cfg.per_class_test = 20;
  const auto ds = facegen::MaskedFaceDataset::generate(cfg);
  std::vector<std::int64_t> indices(ds.test().size());
  std::iota(indices.begin(), indices.end(), 0);
  Tensor x;
  std::vector<std::int64_t> y;
  facegen::MaskedFaceDataset::to_batch(ds.test(), indices, 0, indices.size(),
                                       x, y);

  const auto ref = tensor::argmax_rows(model.forward(x, false));
  const auto got = net.predict(x);
  ASSERT_EQ(ref.size(), got.size());
  std::int64_t agree = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (ref[i] == got[i]) ++agree;
  // The first-layer quantization boundary may flip rare borderline bits;
  // prediction agreement must still be near-perfect.
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(ref.size()), 0.95);
}

TEST(Engine, LogitsAreIntegers) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 5);
  randomize_bn_state(model, 6, Shape{4, 32, 32, 3});
  const xnor::XnorNetwork net = core::fold(model);
  util::Rng rng(7);
  const Tensor logits = net.forward(bipolar_input(Shape{2, 32, 32, 3}, rng));
  for (std::int64_t i = 0; i < logits.numel(); ++i)
    EXPECT_FLOAT_EQ(logits[i], std::round(logits[i]));
}

TEST(Engine, StageSequenceMatchesArchitecture) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 8);
  const xnor::XnorNetwork net = core::fold(model);
  std::vector<std::string> kinds;
  for (const auto& s : net.stages()) kinds.push_back(xnor::stage_kind(s));
  const std::vector<std::string> expected{
      "FirstConv", "BinConv", "Pool", "BinConv", "BinConv", "Pool",
      "BinConv",   "BinConv", "Flatten", "BinDense", "BinDense", "BinDense"};
  EXPECT_EQ(kinds, expected);
}

TEST(Engine, FoldRejectsFp32Models) {
  nn::Sequential model = core::build_fp32_cnv(1);
  EXPECT_THROW(core::fold(model), std::runtime_error);
}

TEST(Engine, FoldRejectsEmptyModel) {
  nn::Sequential model;
  EXPECT_THROW(core::fold(model), std::runtime_error);
}

TEST(Engine, WeightBitsMatchHandCount) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 9);
  const xnor::XnorNetwork net = core::fold(model);
  // Weights: conv 27*16 + 144*16 + 144*32 + 288*32 + 288*64, FC 576*128 + 128*4.
  const std::int64_t weights = 27 * 16 + 144 * 16 + 144 * 32 + 288 * 32 +
                               288 * 64 + 576 * 128 + 128 * 4;
  // Thresholds: 24 bits per thresholded output channel (all but FC.2).
  const std::int64_t thresholds = 24 * (16 + 16 + 32 + 32 + 64 + 128);
  EXPECT_EQ(net.weight_bits(), weights + thresholds);
}

TEST(Engine, FoldedModelSmallerThanFloat32) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 10);
  const xnor::XnorNetwork net = core::fold(model);
  const std::int64_t float_bits = model.parameter_count() * 32;
  // The paper's ~x32 compression claim (Sec. II-B), minus threshold words.
  EXPECT_LT(net.weight_bits(), float_bits / 16);
}

}  // namespace
