// Threshold folding must reproduce sign(BatchNorm(x)) for *every* integer
// accumulator value, including negative-gamma and zero-gamma channels --
// this is the exactness the paper's hardware relies on (Sec. III-A).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>

#include "core/fold.hpp"
#include "nn/batchnorm.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "xnor/folding.hpp"

namespace {

using namespace bcop;
using core::bn_sign_predicate;
using core::fold_batchnorm;
using xnor::PreparedThresholds;
using xnor::ThresholdSpec;

// Build a BatchNorm with explicit gamma/beta/running stats.
nn::BatchNorm make_bn(const std::vector<float>& gamma,
                      const std::vector<float>& beta,
                      const std::vector<float>& mean,
                      const std::vector<float>& var) {
  // Running statistics have no public setter (they are training state), so
  // build the layer through its serialized form. ctest runs each case as
  // its own process in parallel, so the file is private to this process
  // and test.
  std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bcop_test_bn_" + std::to_string(::getpid()) + "_" + test + ".bin"))
          .string();
  util::BinaryWriter w(path);
  w.write_tag("BNRM");
  w.write_u64(gamma.size());
  w.write_f32(1e-5f);
  w.write_f32(0.9f);
  w.write_f32_array(gamma);
  w.write_f32_array(beta);
  w.write_f32_array(mean);
  w.write_f32_array(var);
  w.close();
  nn::BatchNorm out;
  {
    util::BinaryReader r(path);
    out.load(r);
  }
  std::filesystem::remove(path);
  return out;
}

void expect_fold_exact(const nn::BatchNorm& bn, std::int64_t acc_min,
                       std::int64_t acc_max, double scale) {
  const ThresholdSpec spec = fold_batchnorm(bn, acc_min, acc_max, scale);
  for (std::int64_t c = 0; c < bn.channels(); ++c)
    for (std::int64_t acc = acc_min; acc <= acc_max; ++acc)
      ASSERT_EQ(spec.fire(acc, c), bn_sign_predicate(bn, c, acc, scale))
          << "channel " << c << " acc " << acc;
}

TEST(Folding, PositiveGamma) {
  const auto bn = make_bn({1.5f}, {0.3f}, {2.0f}, {4.0f});
  expect_fold_exact(bn, -27, 27, 1.0);
}

TEST(Folding, NegativeGammaFlipsComparison) {
  const auto bn = make_bn({-0.8f}, {0.1f}, {-1.0f}, {2.0f});
  const ThresholdSpec spec = fold_batchnorm(bn, -27, 27, 1.0);
  EXPECT_TRUE(spec.flip[0]);
  expect_fold_exact(bn, -27, 27, 1.0);
}

TEST(Folding, ZeroGammaIsConstant) {
  const auto bn_pos = make_bn({0.f}, {0.5f}, {0.f}, {1.0f});
  const ThresholdSpec always = fold_batchnorm(bn_pos, -10, 10, 1.0);
  for (std::int64_t acc = -10; acc <= 10; ++acc)
    EXPECT_TRUE(always.fire(acc, 0));

  const auto bn_neg = make_bn({0.f}, {-0.5f}, {0.f}, {1.0f});
  const ThresholdSpec never = fold_batchnorm(bn_neg, -10, 10, 1.0);
  for (std::int64_t acc = -10; acc <= 10; ++acc)
    EXPECT_FALSE(never.fire(acc, 0));
}

TEST(Folding, ThresholdOutsideRangeSaturates) {
  // Huge positive mean: predicate never fires within the range.
  const auto bn = make_bn({1.f}, {0.f}, {1e6f}, {1.0f});
  const ThresholdSpec spec = fold_batchnorm(bn, -27, 27, 1.0);
  for (std::int64_t acc = -27; acc <= 27; ++acc)
    EXPECT_FALSE(spec.fire(acc, 0));
}

TEST(Folding, FirstLayerScaleDomain) {
  const auto bn = make_bn({0.7f, -1.2f}, {0.2f, 0.4f}, {3.0f, -2.0f},
                          {9.0f, 0.25f});
  expect_fold_exact(bn, -600, 600, 1.0 / 255.0);
}

class FoldingRandom : public ::testing::TestWithParam<int> {};

TEST_P(FoldingRandom, RandomBnParamsFoldExactly) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717);
  const int C = 8;
  std::vector<float> gamma(C), beta(C), mean(C), var(C);
  for (int c = 0; c < C; ++c) {
    gamma[static_cast<std::size_t>(c)] =
        static_cast<float>(rng.uniform(-2.0, 2.0));
    if (rng.bernoulli(0.1)) gamma[static_cast<std::size_t>(c)] = 0.f;
    beta[static_cast<std::size_t>(c)] = static_cast<float>(rng.uniform(-1, 1));
    mean[static_cast<std::size_t>(c)] = static_cast<float>(rng.uniform(-20, 20));
    var[static_cast<std::size_t>(c)] = static_cast<float>(rng.uniform(0.01, 50));
  }
  const auto bn = make_bn(gamma, beta, mean, var);
  expect_fold_exact(bn, -144, 144, 1.0);  // conv fan-in 144 (n-CNV conv1.2)
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldingRandom, ::testing::Range(0, 10));

TEST(Folding, EmptyRangeThrows) {
  const auto bn = make_bn({1.f}, {0.f}, {0.f}, {1.f});
  EXPECT_THROW(fold_batchnorm(bn, 5, 4, 1.0), std::invalid_argument);
}

TEST(PreparedThresholdsTest, MatchesFireForRandomSpecs) {
  util::Rng rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    ThresholdSpec spec;
    const int C = 1 + static_cast<int>(rng.uniform_int(0, 70));
    for (int c = 0; c < C; ++c) {
      spec.t.push_back(rng.uniform_int(-7000, 7000));
      spec.flip.push_back(static_cast<std::uint8_t>(rng.bernoulli(0.5)));
    }
    const PreparedThresholds prep(spec);
    for (std::int64_t c = 0; c < C; ++c) {
      for (int s = 0; s < 20; ++s) {
        const std::int64_t acc = rng.uniform_int(-6885, 6885);
        EXPECT_EQ(spec.fire(acc, c),
                  static_cast<bool>(
                      (acc >= prep.thr[static_cast<std::size_t>(c)]) ^
                      prep.inv[static_cast<std::size_t>(c)]))
            << "t=" << spec.t[static_cast<std::size_t>(c)]
            << " flip=" << int(spec.flip[static_cast<std::size_t>(c)])
            << " acc=" << acc;
      }
      // Threshold boundary and its neighbours are the interesting accs.
      for (std::int64_t d = -1; d <= 1; ++d) {
        const std::int64_t acc = spec.t[static_cast<std::size_t>(c)] + d;
        if (std::abs(acc) > PreparedThresholds::kAccBound) continue;
        EXPECT_EQ(spec.fire(acc, c),
                  static_cast<bool>(
                      (acc >= prep.thr[static_cast<std::size_t>(c)]) ^
                      prep.inv[static_cast<std::size_t>(c)]));
      }
    }
  }
}

TEST(PreparedThresholdsTest, SaturatedSentinelsKeepMeaning) {
  // fold_batchnorm encodes always-fire as INT64_MIN+1 and never-fire as
  // INT64_MAX; the clamped form must preserve both over the whole
  // accumulator range, and a flipped saturated threshold must not overflow.
  ThresholdSpec spec;
  spec.t = {std::numeric_limits<std::int64_t>::min() + 1,
            std::numeric_limits<std::int64_t>::max(),
            std::numeric_limits<std::int64_t>::max(),
            std::numeric_limits<std::int64_t>::min() + 1};
  spec.flip = {0, 0, 1, 1};
  const PreparedThresholds prep(spec);
  for (const std::int64_t acc :
       {static_cast<std::int64_t>(-PreparedThresholds::kAccBound),
        std::int64_t{-6885}, std::int64_t{0}, std::int64_t{6885},
        static_cast<std::int64_t>(PreparedThresholds::kAccBound)}) {
    for (std::int64_t c = 0; c < 4; ++c)
      EXPECT_EQ(spec.fire(acc, c),
                static_cast<bool>(
                    (acc >= prep.thr[static_cast<std::size_t>(c)]) ^
                    prep.inv[static_cast<std::size_t>(c)]))
          << "c=" << c << " acc=" << acc;
  }
}

}  // namespace
