#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include <algorithm>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"

namespace {

using namespace bcop;

core::Predictor make_predictor(std::uint64_t seed) {
  return core::Predictor(core::build_bnn(core::ArchitectureId::kMicroCnv, seed));
}

util::Image test_face(std::uint64_t seed, facegen::MaskClass cls) {
  util::Rng rng(seed);
  return facegen::render_face(facegen::sample_attributes(cls, rng)).image;
}

TEST(Predictor, ClassifyReturnsValidResult) {
  const core::Predictor p = make_predictor(1);
  const auto r = p.classify(test_face(2, facegen::MaskClass::kCorrect));
  EXPECT_GE(static_cast<int>(r.label), 0);
  EXPECT_LT(static_cast<int>(r.label), 4);
  float sum = 0;
  for (const float s : r.scores) {
    EXPECT_GE(s, 0.f);
    EXPECT_LE(s, 1.f);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.f, 1e-4f);
  // The winning class carries the highest score.
  EXPECT_EQ(static_cast<std::size_t>(r.label),
            static_cast<std::size_t>(
                std::max_element(r.scores.begin(), r.scores.end()) -
                r.scores.begin()));
}

TEST(Predictor, MarginIsTopTwoSoftmaxGap) {
  const core::Predictor p = make_predictor(1);
  const auto r = p.classify(test_face(3, facegen::MaskClass::kNoseExposed));
  auto sorted = r.scores;
  std::sort(sorted.begin(), sorted.end(), std::greater<float>());
  EXPECT_FLOAT_EQ(r.margin, sorted[0] - sorted[1]);
  EXPECT_GE(r.margin, 0.f);
  EXPECT_LE(r.margin, 1.f);
}

// serve_levels caps the residual depth every classify call evaluates and
// survives replicate() -- the contract a tiered serve::Router builds its
// fast replicas on.
TEST(Predictor, ServeLevelsCapReplicatesAndMatchesEngineCap) {
  core::Predictor p(core::build_bnn(core::ArchitectureId::kMicroCnv, 9,
                                    /*residual_levels=*/2));
  EXPECT_EQ(p.serve_levels(), 0);
  EXPECT_DEATH(p.set_serve_levels(3), "serve_levels");
  p.set_serve_levels(1);
  core::Predictor clone = p.replicate();
  EXPECT_EQ(clone.serve_levels(), 1);

  util::Rng rng(10);
  tensor::Tensor batch(tensor::Shape{2, 32, 32, 3});
  for (std::int64_t i = 0; i < batch.numel(); ++i)
    batch[i] = static_cast<float>(rng.uniform());
  const auto capped = clone.classify_batch(batch);
  // Ground truth straight from the engine at the same cap.
  const auto logits = p.network().forward_batch(batch, /*levels=*/1);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    const float* row = logits.data() + static_cast<std::int64_t>(i) * 4;
    EXPECT_EQ(static_cast<std::int64_t>(capped[i].label),
              std::max_element(row, row + 4) - row)
        << "row " << i;
  }
}

TEST(Predictor, AdmitOnlyForCorrectClass) {
  core::Predictor::Result r;
  r.label = facegen::MaskClass::kCorrect;
  EXPECT_TRUE(r.admit());
  for (const auto bad :
       {facegen::MaskClass::kNoseExposed, facegen::MaskClass::kNoseMouthExposed,
        facegen::MaskClass::kChinExposed}) {
    r.label = bad;
    EXPECT_FALSE(r.admit());
  }
}

TEST(Predictor, BatchAndSingleAgree) {
  const core::Predictor p = make_predictor(3);
  util::Rng rng(4);
  tensor::Tensor batch(tensor::Shape{4, 32, 32, 3});
  std::vector<util::Image> faces;
  for (int i = 0; i < 4; ++i) {
    faces.push_back(test_face(static_cast<std::uint64_t>(10 + i),
                              static_cast<facegen::MaskClass>(i)));
    const auto t = facegen::MaskedFaceDataset::image_to_tensor(faces.back());
    std::copy(t.data(), t.data() + t.numel(),
              batch.data() + static_cast<std::int64_t>(i) * t.numel());
  }
  const auto batched = p.classify_batch(batch);
  ASSERT_EQ(batched.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto single = p.classify(faces[static_cast<std::size_t>(i)]);
    EXPECT_EQ(single.label, batched[static_cast<std::size_t>(i)].label);
  }
}

TEST(Predictor, NonSquareImageThrows) {
  const core::Predictor p = make_predictor(5);
  EXPECT_THROW(p.classify(util::Image(32, 16)), std::invalid_argument);
}

TEST(Predictor, FromFileRoundTrips) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 6);
  const auto path =
      (std::filesystem::temp_directory_path() / "bcop_pred.bcop").string();
  model.save(path);

  const core::Predictor a(core::build_bnn(core::ArchitectureId::kMicroCnv, 6));
  const core::Predictor b = core::Predictor::from_file(path);
  const auto face = test_face(7, facegen::MaskClass::kNoseExposed);
  EXPECT_EQ(a.classify(face).label, b.classify(face).label);
  std::remove(path.c_str());
}

TEST(Predictor, ExposesModelAndNetwork) {
  const core::Predictor p = make_predictor(8);
  EXPECT_EQ(p.model().name(), "u-CNV");
  EXPECT_EQ(p.network().name(), "u-CNV");
  EXPECT_FALSE(p.network().stages().empty());
}

TEST(Predictor, RejectsFp32Model) {
  EXPECT_THROW(core::Predictor(core::build_fp32_cnv(9)), std::runtime_error);
}

}  // namespace
