#include "core/fold.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/binary_conv2d.hpp"
#include "nn/binary_dense.hpp"
#include "nn/flatten.hpp"
#include "nn/maxpool.hpp"
#include "nn/residual_sign.hpp"
#include "nn/sign_activation.hpp"
#include "util/check.hpp"

namespace bcop::core {

using tensor::BitMatrix;
using tensor::Tensor;
using xnor::ResidualSpec;
using xnor::ThresholdSpec;

namespace {

// Pixel values are odd integers k' in [-255, 255] divided by 255
// (facegen::MaskedFaceDataset::quantize_pixel); the first-layer accumulator
// works directly on k'.
constexpr double kPixelScale = 1.0 / 255.0;
constexpr std::int64_t kPixelMax = 255;

/// Transpose an nn weight matrix [In, Out] into packed rows [Out, In].
BitMatrix pack_transposed(const Tensor& w) {
  const std::int64_t in = w.shape()[0], out = w.shape()[1];
  BitMatrix m(out, in);
  for (std::int64_t o = 0; o < out; ++o)
    for (std::int64_t i = 0; i < in; ++i)
      m.set_from_sign(o, i, w.at2(i, o));
  return m;
}

/// Shared monotone binary search: fold any predicate that is weakly
/// monotone in acc over [acc_min, acc_max] into a ThresholdSpec channel.
/// The four cases cover always/never (constant channels, e.g. gamma == 0)
/// and the rising/falling monotone directions.
template <typename Pred>
ThresholdSpec fold_monotone(std::int64_t channels, std::int64_t acc_min,
                            std::int64_t acc_max, const Pred& pred) {
  ThresholdSpec spec;
  spec.t.resize(static_cast<std::size_t>(channels));
  spec.flip.resize(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    const bool at_min = pred(c, acc_min);
    const bool at_max = pred(c, acc_max);
    const auto ci = static_cast<std::size_t>(c);
    if (at_min && at_max) {
      // Fires everywhere in range: always +1.
      spec.t[ci] = std::numeric_limits<std::int64_t>::min() + 1;
      spec.flip[ci] = 0;
    } else if (!at_min && !at_max) {
      // Never fires: always -1.
      spec.t[ci] = std::numeric_limits<std::int64_t>::max();
      spec.flip[ci] = 0;
    } else if (!at_min && at_max) {
      // Monotone rising (gamma > 0): find the smallest acc that fires.
      std::int64_t lo = acc_min, hi = acc_max;  // lo: false, hi: true
      while (hi - lo > 1) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        (pred(c, mid) ? hi : lo) = mid;
      }
      spec.t[ci] = hi;
      spec.flip[ci] = 0;
    } else {
      // Monotone falling (gamma < 0): find the largest acc that fires.
      std::int64_t lo = acc_min, hi = acc_max;  // lo: true, hi: false
      while (hi - lo > 1) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        (pred(c, mid) ? lo : hi) = mid;
      }
      spec.t[ci] = lo;
      spec.flip[ci] = 1;
    }
  }
  return spec;
}

}  // namespace

bool bn_sign_predicate(const nn::BatchNorm& bn, std::int64_t c,
                       std::int64_t acc, double acc_scale) {
  return bn_residual_sign_predicate(bn, c, acc, acc_scale, {}, 0, 0);
}

bool bn_residual_sign_predicate(const nn::BatchNorm& bn, std::int64_t c,
                                std::int64_t acc, double acc_scale,
                                const std::vector<float>& q,
                                std::int64_t level, std::uint32_t pattern) {
  BCOP_DCHECK(c >= 0 && c < bn.channels(), "channel %lld out of [0, %lld)",
              static_cast<long long>(c), static_cast<long long>(bn.channels()));
  BCOP_DCHECK(level >= 0 && level < static_cast<std::int64_t>(q.size()) + 1,
              "level %lld out of range", static_cast<long long>(level));
  // Mirrors BatchNorm::forward(training=false), computed in the same float
  // precision so folding is bit-faithful.
  const float inv = 1.f / std::sqrt(bn.running_var()[c] + bn.eps());
  const float scale = bn.gamma()[c] * inv;
  const float shift = bn.beta()[c] - scale * bn.running_mean()[c];
  const float x = static_cast<float>(static_cast<double>(acc) * acc_scale);
  float e = scale * x + shift;
  // One subtraction per earlier level, in forward order -- the same float
  // operation sequence as ResidualSign::forward's `residual -= q * b`.
  for (std::int64_t j = 0; j < level; ++j)
    e -= (pattern >> j) & 1u ? q[static_cast<std::size_t>(j)]
                             : -q[static_cast<std::size_t>(j)];
  return e >= 0.f;
}

ThresholdSpec fold_batchnorm(const nn::BatchNorm& bn, std::int64_t acc_min,
                             std::int64_t acc_max, double acc_scale) {
  return fold_batchnorm_residual(bn, acc_min, acc_max, acc_scale, {}, 0, 0);
}

ThresholdSpec fold_batchnorm_residual(const nn::BatchNorm& bn,
                                      std::int64_t acc_min,
                                      std::int64_t acc_max, double acc_scale,
                                      const std::vector<float>& q,
                                      std::int64_t level,
                                      std::uint32_t pattern) {
  if (acc_min > acc_max)
    throw std::invalid_argument("fold: empty accumulator range");
  // Subtracting per-level constants from a weakly monotone float function
  // keeps it weakly monotone (correctly rounded subtraction preserves <=),
  // so the same binary search stays valid for every (level, pattern) bank.
  return fold_monotone(bn.channels(), acc_min, acc_max,
                       [&](std::int64_t c, std::int64_t acc) {
                         return bn_residual_sign_predicate(
                             bn, c, acc, acc_scale, q, level, pattern);
                       });
}

xnor::XnorNetwork fold(nn::Sequential& model) {
  std::vector<xnor::Stage> stages;
  const std::size_t n = model.size();
  std::size_t i = 0;
  bool first_conv = true;
  // Residual scale bits of the CURRENT activation stream: empty while it
  // is classic {-1,+1} planes (acc = the raw popcount dot); otherwise the
  // g_m of the producing ResidualSign, so the consumer's accumulator
  // domain is A = sum_m g_m * acc_m in [-fan * sum(g), fan * sum(g)] with
  // BN input value A / 256.
  std::vector<std::int32_t> act_bits;

  struct ActPair {
    nn::BatchNorm* bn;
    nn::ResidualSign* rs;  // null for classic SignActivation
  };
  auto take_bn_act = [&](const std::string& where) -> ActPair {
    if (i + 1 >= n)
      throw std::runtime_error("fold: " + where +
                               " not followed by BatchNorm+Sign");
    auto* bn = dynamic_cast<nn::BatchNorm*>(&model.layer(i));
    auto* sign = dynamic_cast<nn::SignActivation*>(&model.layer(i + 1));
    auto* rs = dynamic_cast<nn::ResidualSign*>(&model.layer(i + 1));
    if (!bn || (!sign && !rs))
      throw std::runtime_error("fold: " + where +
                               " must be followed by BatchNorm then Sign, got " +
                               model.layer(i).type() + ", " +
                               model.layer(i + 1).type());
    i += 2;
    return {bn, rs};
  };

  // Fold BN + activation over accumulator domain [acc_min, acc_max] into
  // bank 0 (returned) plus, for residual activations, the pattern banks in
  // `spec`; leaves act_bits describing this stage's OUTPUT stream.
  auto fold_activation = [&](const ActPair& act, std::int64_t acc_min,
                             std::int64_t acc_max, double acc_scale,
                             ResidualSpec& spec) -> ThresholdSpec {
    if (!act.rs) {
      act_bits.clear();
      spec = ResidualSpec{};
      return fold_batchnorm(*act.bn, acc_min, acc_max, acc_scale);
    }
    const std::vector<float> q = act.rs->quantized_scales();
    spec.levels = act.rs->levels();
    spec.scale_bits = act.rs->quantized_scale_bits();
    spec.extra_banks.clear();
    for (std::int64_t m = 1; m < spec.levels; ++m)
      for (std::uint32_t p = 0; p < (1u << m); ++p)
        spec.extra_banks.push_back(fold_batchnorm_residual(
            *act.bn, acc_min, acc_max, acc_scale, q, m, p));
    act_bits = spec.scale_bits;
    return fold_batchnorm_residual(*act.bn, acc_min, acc_max, acc_scale, q,
                                   0, 0);
  };
  // The consumer accumulator bound and BN value scale implied by the
  // current input stream (binary fan-in `fan`).
  auto acc_bound = [&](std::int64_t fan) -> std::int64_t {
    if (act_bits.empty()) return fan;
    std::int64_t sum = 0;
    for (const std::int32_t g : act_bits) sum += g;
    return fan * sum;
  };
  auto acc_scale = [&]() { return act_bits.empty() ? 1.0 : 1.0 / 256.0; };

  while (i < n) {
    nn::Layer& l = model.layer(i);
    if (auto* conv = dynamic_cast<nn::BinaryConv2d*>(&l)) {
      ++i;
      const ActPair act = take_bn_act(std::string("conv ") + std::to_string(i));
      const std::int64_t fan = conv->kernel() * conv->kernel() * conv->in_channels();
      if (first_conv) {
        xnor::FirstConvStage st;
        st.k = conv->kernel();
        st.ci = conv->in_channels();
        st.co = conv->out_channels();
        st.weights = conv->binarized_weights();
        st.thresholds = fold_activation(act, -fan * kPixelMax, fan * kPixelMax,
                                        kPixelScale, st.residual);
        stages.emplace_back(std::move(st));
        first_conv = false;
      } else {
        xnor::BinConvStage st;
        st.k = conv->kernel();
        st.ci = conv->in_channels();
        st.co = conv->out_channels();
        st.weights = pack_transposed(conv->binarized_weights());
        const std::int64_t bound = acc_bound(fan);
        const double scale = acc_scale();
        st.thresholds = fold_activation(act, -bound, bound, scale, st.residual);
        stages.emplace_back(std::move(st));
      }
    } else if (dynamic_cast<nn::MaxPool2*>(&l)) {
      stages.emplace_back(xnor::PoolStage{});
      ++i;
    } else if (dynamic_cast<nn::Flatten*>(&l)) {
      stages.emplace_back(xnor::FlattenStage{});
      ++i;
    } else if (auto* dense = dynamic_cast<nn::BinaryDense*>(&l)) {
      ++i;
      xnor::BinDenseStage st;
      st.in = dense->in_features();
      st.out = dense->out_features();
      st.weights = pack_transposed(dense->binarized_weights());
      if (i == n) {
        st.has_threshold = false;  // classifier layer: raw logits
      } else {
        const ActPair act = take_bn_act("dense " + std::to_string(i));
        const std::int64_t bound = acc_bound(st.in);
        const double scale = acc_scale();
        st.thresholds = fold_activation(act, -bound, bound, scale, st.residual);
      }
      stages.emplace_back(std::move(st));
    } else {
      throw std::runtime_error(
          std::string("fold: unsupported layer '") + l.type() +
          "' -- only BinaryConv2d/BinaryDense BNNs can be folded");
    }
  }
  if (stages.empty()) throw std::runtime_error("fold: empty model");
  return xnor::XnorNetwork(model.name(), std::move(stages));
}

}  // namespace bcop::core
