#include <gtest/gtest.h>

#include "core/architecture.hpp"
#include "core/evaluator.hpp"
#include "core/fold.hpp"
#include "facegen/dataset.hpp"

namespace {

using namespace bcop;
using core::ConfusionMatrix;

TEST(ConfusionMatrix, AccuracyAndRecall) {
  ConfusionMatrix cm;
  // Class 0: 3 right, 1 confused as 2. Class 1: 2 right.
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 2);
  cm.add(1, 1);
  cm.add(1, 1);
  EXPECT_EQ(cm.total(), 6);
  EXPECT_NEAR(cm.accuracy(), 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(cm.recall(0), 0.75, 1e-12);
  EXPECT_NEAR(cm.recall(1), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(cm.recall(3), 0.0);  // empty row
}

TEST(ConfusionMatrix, EmptyMatrix) {
  const ConfusionMatrix cm;
  EXPECT_EQ(cm.total(), 0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
}

TEST(ConfusionMatrix, OutOfRangeThrows) {
  ConfusionMatrix cm;
  EXPECT_THROW(cm.add(4, 0), std::invalid_argument);
  EXPECT_THROW(cm.add(0, -1), std::invalid_argument);
}

TEST(ConfusionMatrix, RenderShowsCountsAndPercentages) {
  ConfusionMatrix cm;
  for (int i = 0; i < 98; ++i) cm.add(0, 0);
  for (int i = 0; i < 2; ++i) cm.add(0, 1);
  const std::string s = cm.render();
  EXPECT_NE(s.find("Correct"), std::string::npos);
  EXPECT_NE(s.find("N+M"), std::string::npos);
  EXPECT_NE(s.find("98 (98%)"), std::string::npos);
  EXPECT_NE(s.find("2 (2%)"), std::string::npos);
}

TEST(Evaluator, ModelAndXnorAgreeOnTheSameNetwork) {
  facegen::DatasetConfig cfg;
  cfg.per_class_train = 5;
  cfg.per_class_test = 10;
  const auto ds = facegen::MaskedFaceDataset::generate(cfg);

  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 3);
  const auto cm_model = core::Evaluator::evaluate_model(model, ds.test(), 16);
  xnor::XnorNetwork net = core::fold(model);
  const auto cm_xnor = core::Evaluator::evaluate_xnor(net, ds.test(), 16);

  EXPECT_EQ(cm_model.total(), 40);
  EXPECT_EQ(cm_xnor.total(), 40);
  // Same network, two execution paths: accuracies must be very close
  // (first-layer quantization may flip rare borderline samples).
  EXPECT_NEAR(cm_model.accuracy(), cm_xnor.accuracy(), 0.1);
}

TEST(Evaluator, UnevenFinalBatchIsHandled) {
  facegen::DatasetConfig cfg;
  cfg.per_class_train = 5;
  cfg.per_class_test = 7;  // 28 samples, batch 16 -> 16 + 12
  const auto ds = facegen::MaskedFaceDataset::generate(cfg);
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 4);
  const auto cm = core::Evaluator::evaluate_model(model, ds.test(), 16);
  EXPECT_EQ(cm.total(), 28);
}

TEST(Evaluator, InvalidArgumentsThrow) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 5);
  EXPECT_THROW(core::Evaluator::evaluate_model(model, {}, 16),
               std::invalid_argument);
  facegen::DatasetConfig cfg;
  cfg.per_class_train = 2;
  cfg.per_class_test = 2;
  const auto ds = facegen::MaskedFaceDataset::generate(cfg);
  EXPECT_THROW(core::Evaluator::evaluate_model(model, ds.test(), 0),
               std::invalid_argument);
}

}  // namespace
