#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/architecture.hpp"
#include "core/fold.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax_xent.hpp"
#include "test_helpers.hpp"
#include "xnor/bitstream.hpp"

namespace {

using namespace bcop;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

xnor::XnorNetwork trained_ish_network(std::uint64_t seed) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, seed);
  util::Rng rng(seed + 1);
  nn::Adam opt(model, 1e-2f);
  nn::SoftmaxCrossEntropy head;
  for (int i = 0; i < 4; ++i) {
    const auto x =
        bcop::testhelpers::random_tensor(tensor::Shape{3, 32, 32, 3}, rng);
    head.forward(model.forward(x, true), {0, 1, 2});
    model.backward(head.backward());
    opt.step();
  }
  return core::fold(model);
}

TEST(Bitstream, RoundTripPreservesLogitsExactly) {
  const xnor::XnorNetwork net = trained_ish_network(1);
  const std::string path = temp_path("bcop_test.bcbs");
  xnor::save_bitstream(net, path);
  const xnor::XnorNetwork loaded = xnor::load_bitstream(path);

  EXPECT_EQ(loaded.name(), net.name());
  ASSERT_EQ(loaded.stages().size(), net.stages().size());
  for (std::size_t i = 0; i < net.stages().size(); ++i)
    EXPECT_EQ(xnor::stage_kind(loaded.stages()[i]),
              xnor::stage_kind(net.stages()[i]));

  util::Rng rng(2);
  for (int trial = 0; trial < 4; ++trial) {
    const auto attrs = facegen::sample_attributes(
        static_cast<facegen::MaskClass>(trial), rng);
    const auto x = facegen::MaskedFaceDataset::image_to_tensor(
        facegen::render_face(attrs).image);
    const auto a = net.forward(x);
    const auto b = loaded.forward(x);
    for (std::int64_t j = 0; j < a.numel(); ++j)
      ASSERT_FLOAT_EQ(a[j], b[j]);
  }
  std::remove(path.c_str());
}

// v2 bitstreams carry the ReBNet residual descriptors (levels, dyadic
// scale bits, pattern threshold banks); a reloaded M = 3 network must
// serve identical logits at the full depth AND at every truncated cap.
TEST(Bitstream, ResidualRoundTripPreservesLogitsAtEveryLevelCap) {
  nn::Sequential model =
      core::build_bnn(core::ArchitectureId::kMicroCnv, 6, /*residual_levels=*/3);
  util::Rng rng(7);
  nn::Adam opt(model, 1e-2f);
  nn::SoftmaxCrossEntropy head;
  for (int i = 0; i < 4; ++i) {
    const auto xt =
        bcop::testhelpers::random_tensor(tensor::Shape{3, 32, 32, 3}, rng);
    head.forward(model.forward(xt, true), {0, 1, 2});
    model.backward(head.backward());
    opt.step();
  }
  const xnor::XnorNetwork net = core::fold(model);
  ASSERT_EQ(net.max_levels(), 3);

  const std::string path = temp_path("bcop_residual.bcbs");
  xnor::save_bitstream(net, path);
  const xnor::XnorNetwork loaded = xnor::load_bitstream(path);
  EXPECT_EQ(loaded.max_levels(), 3);
  EXPECT_EQ(loaded.weight_bits(), net.weight_bits());

  const auto x = bcop::testhelpers::random_tensor(
      tensor::Shape{2, 32, 32, 3}, rng);
  for (std::int64_t cap = 0; cap <= 3; ++cap) {
    const auto a = net.forward_batch(x, cap);
    const auto b = loaded.forward_batch(x, cap);
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t j = 0; j < a.numel(); ++j)
      ASSERT_FLOAT_EQ(a[j], b[j]) << "cap " << cap << " logit " << j;
  }
  std::remove(path.c_str());
}

TEST(Bitstream, WeightBitsSurviveRoundTrip) {
  const xnor::XnorNetwork net = trained_ish_network(3);
  const std::string path = temp_path("bcop_bits.bcbs");
  xnor::save_bitstream(net, path);
  const xnor::XnorNetwork loaded = xnor::load_bitstream(path);
  EXPECT_EQ(loaded.weight_bits(), net.weight_bits());
}

TEST(Bitstream, ArtifactIsCompact) {
  const xnor::XnorNetwork net = trained_ish_network(4);
  const std::string path = temp_path("bcop_size.bcbs");
  xnor::save_bitstream(net, path);
  const auto bytes = std::filesystem::file_size(path);
  // Packed weights + 64-bit thresholds; must be well under the float model.
  EXPECT_LT(bytes, static_cast<std::uintmax_t>(net.weight_bits() / 8 * 6));
  EXPECT_GT(bytes, static_cast<std::uintmax_t>(net.weight_bits() / 8));
  std::remove(path.c_str());
}

TEST(Bitstream, CorruptMagicRejected) {
  const std::string path = temp_path("bcop_corrupt.bcbs");
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKJUNKJUNKJUNK";
  }
  EXPECT_THROW(xnor::load_bitstream(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Bitstream, TruncationRejected) {
  const xnor::XnorNetwork net = trained_ish_network(5);
  const std::string path = temp_path("bcop_trunc.bcbs");
  xnor::save_bitstream(net, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 3);
  EXPECT_THROW(xnor::load_bitstream(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Bitstream, EmptyNetworkRejected) {
  EXPECT_THROW(xnor::XnorNetwork("empty", {}), std::invalid_argument);
}

}  // namespace
