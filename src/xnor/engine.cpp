#include "xnor/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "nn/batchnorm.hpp"
#include "nn/binary_conv2d.hpp"
#include "nn/binary_dense.hpp"
#include "nn/flatten.hpp"
#include "nn/maxpool.hpp"
#include "nn/residual_sign.hpp"
#include "nn/sign_activation.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "xnor/exec.hpp"
#include "xnor/plan.hpp"

namespace bcop::xnor {

using tensor::BitMatrix;
using tensor::Shape;
using tensor::Tensor;

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

}  // namespace

/// Plans keyed by the exact input shape (rank + dims, batch included)
/// plus the active kernel dispatch tier -- a plan freezes one tier's
/// function pointers, so flipping the override must compile (and cache) a
/// fresh plan instead of replaying stale pointers -- plus the residual
/// level cap M (0 = all trained levels; a truncated plan lays out fewer
/// planes and threshold banks, so it is a distinct compilation). std::map
/// keeps node-stable references, so plan_for can hand out long-lived
/// const references while the cache keeps growing.
struct XnorNetwork::PlanCache {
  using Key = std::array<std::int64_t, 7>;
  util::Mutex mutex;
  std::map<Key, ExecutionPlan> plans BCOP_GUARDED_BY(mutex);
};

XnorNetwork::XnorNetwork() : cache_(std::make_unique<PlanCache>()) {}
XnorNetwork::~XnorNetwork() = default;

XnorNetwork::XnorNetwork(std::string name, std::vector<Stage> stages)
    : name_(std::move(name)),
      stages_(std::move(stages)),
      cache_(std::make_unique<PlanCache>()) {
  if (stages_.empty())
    throw std::invalid_argument("XnorNetwork: empty stage list");
}

XnorNetwork::XnorNetwork(const XnorNetwork& other)
    : name_(other.name_),
      stages_(other.stages_),
      cache_(std::make_unique<PlanCache>()) {}

XnorNetwork& XnorNetwork::operator=(const XnorNetwork& other) {
  if (this != &other) {
    name_ = other.name_;
    stages_ = other.stages_;
    cache_ = std::make_unique<PlanCache>();
  }
  return *this;
}

XnorNetwork::XnorNetwork(XnorNetwork&&) noexcept = default;
XnorNetwork& XnorNetwork::operator=(XnorNetwork&&) noexcept = default;

std::string stage_kind(const Stage& s) {
  return std::visit(
      [](const auto& st) -> std::string {
        using T = std::decay_t<decltype(st)>;
        if constexpr (std::is_same_v<T, FirstConvStage>) return "FirstConv";
        else if constexpr (std::is_same_v<T, BinConvStage>) return "BinConv";
        else if constexpr (std::is_same_v<T, PoolStage>) return "Pool";
        else if constexpr (std::is_same_v<T, FlattenStage>) return "Flatten";
        else return "BinDense";
      },
      s);
}

const ResidualSpec* stage_residual(const Stage& s) {
  return std::visit(
      [](const auto& st) -> const ResidualSpec* {
        using T = std::decay_t<decltype(st)>;
        if constexpr (std::is_same_v<T, PoolStage> ||
                      std::is_same_v<T, FlattenStage>)
          return nullptr;
        else
          return &st.residual;
      },
      s);
}

XnorNetwork XnorNetwork::fold(nn::Sequential& model) {
  XnorNetwork net;
  net.name_ = model.name();
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
      throw std::runtime_error("XnorNetwork::fold: " + where +
                               " not followed by BatchNorm+Sign");
    auto* bn = dynamic_cast<nn::BatchNorm*>(&model.layer(i));
    auto* sign = dynamic_cast<nn::SignActivation*>(&model.layer(i + 1));
    auto* rs = dynamic_cast<nn::ResidualSign*>(&model.layer(i + 1));
    if (!bn || (!sign && !rs))
      throw std::runtime_error("XnorNetwork::fold: " + where +
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
        FirstConvStage st;
        st.k = conv->kernel();
        st.ci = conv->in_channels();
        st.co = conv->out_channels();
        st.weights = conv->binarized_weights();
        st.thresholds = fold_activation(act, -fan * kPixelMax, fan * kPixelMax,
                                        kPixelScale, st.residual);
        net.stages_.emplace_back(std::move(st));
        first_conv = false;
      } else {
        BinConvStage st;
        st.k = conv->kernel();
        st.ci = conv->in_channels();
        st.co = conv->out_channels();
        st.weights = pack_transposed(conv->binarized_weights());
        const std::int64_t bound = acc_bound(fan);
        const double scale = acc_scale();
        st.thresholds = fold_activation(act, -bound, bound, scale, st.residual);
        net.stages_.emplace_back(std::move(st));
      }
    } else if (dynamic_cast<nn::MaxPool2*>(&l)) {
      net.stages_.emplace_back(PoolStage{});
      ++i;
    } else if (dynamic_cast<nn::Flatten*>(&l)) {
      net.stages_.emplace_back(FlattenStage{});
      ++i;
    } else if (auto* dense = dynamic_cast<nn::BinaryDense*>(&l)) {
      ++i;
      BinDenseStage st;
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
      net.stages_.emplace_back(std::move(st));
    } else {
      throw std::runtime_error(
          std::string("XnorNetwork::fold: unsupported layer '") + l.type() +
          "' -- only BinaryConv2d/BinaryDense BNNs can be folded");
    }
  }
  if (net.stages_.empty())
    throw std::runtime_error("XnorNetwork::fold: empty model");
  return net;
}

std::int64_t XnorNetwork::max_levels() const {
  std::int64_t levels = 1;
  for (const Stage& stage : stages_)
    if (const ResidualSpec* spec = stage_residual(stage))
      levels = std::max(levels, spec->levels);
  return levels;
}

const ExecutionPlan& XnorNetwork::plan_for(const Shape& input,
                                           std::int64_t levels) const {
  // A moved-from network has no cache -- and no stages either, so it
  // could never serve. The old lazy `if (!cache_) cache_ = ...` revival
  // was an unlocked check-then-act on a shared mutable member (two
  // threads racing plan_for on a moved-from net double-constructed the
  // cache); surfaced by the thread-safety annotation sweep, replaced by a
  // hard contract: reassign a moved-from network before serving from it.
  BCOP_CHECK(cache_ != nullptr,
             "plan_for on a moved-from XnorNetwork -- reassign it first");
  // Normalize the level cap so "no cap", "cap at the trained depth" and
  // any deeper request all share one cache entry (they compile to the
  // same plan).
  if (levels < 0 || levels >= max_levels()) levels = 0;
  PlanCache::Key key{};
  key[0] = input.rank();
  for (int i = 0; i < input.rank(); ++i) key[static_cast<std::size_t>(i) + 1] = input[i];
  key[5] = static_cast<std::int64_t>(tensor::kernels::active_level());
  key[6] = levels;
  util::MutexLock lock(cache_->mutex);
  auto it = cache_->plans.find(key);
  if (it == cache_->plans.end())
    it = cache_->plans.emplace(key, ExecutionPlan::compile(*this, input, levels))
             .first;
  return it->second;
}

void XnorNetwork::forward_batch(const Tensor& input, Workspace& ws,
                                Tensor& out, std::int64_t levels) const {
  const ExecutionPlan& plan = plan_for(input.shape(), levels);
  ws.prepare(plan);
  if (out.shape() != plan.output_shape()) out = Tensor(plan.output_shape());
  detail::execute(plan, input.data(), ws, out.data());
}

Tensor XnorNetwork::forward_batch(const Tensor& input,
                                  std::int64_t levels) const {
  // One grow-only workspace per thread serves every network and shape the
  // thread touches; explicit Workspace threading (the overload above) is
  // for callers that manage worker lifetimes themselves, e.g. the server.
  static thread_local Workspace ws;
  Tensor out;
  forward_batch(input, ws, out, levels);
  return out;
}

Tensor XnorNetwork::forward(const Tensor& input) const {
  return forward_batch(input);
}

Shape XnorNetwork::expected_input_shape() const {
  // Forward pass collects channels and the pre-flatten conv/pool sequence;
  // the spatial input size is then solved backwards from the feature count
  // of the first dense layer.
  std::int64_t c_in = -1, c = -1;
  std::vector<std::int64_t> pre;  // conv kernel size, or 0 for a pool
  std::size_t i = 0;
  bool found_flatten = false;
  for (; i < stages_.size(); ++i) {
    const Stage& stage = stages_[i];
    if (const auto* st = std::get_if<FirstConvStage>(&stage)) {
      if (c_in < 0) c_in = st->ci;
      pre.push_back(st->k);
      c = st->co;
    } else if (const auto* st2 = std::get_if<BinConvStage>(&stage)) {
      if (c_in < 0) c_in = st2->ci;
      pre.push_back(st2->k);
      c = st2->co;
    } else if (std::get_if<PoolStage>(&stage)) {
      pre.push_back(0);
    } else if (std::get_if<FlattenStage>(&stage)) {
      found_flatten = true;
      break;
    } else {
      return Shape{};  // dense before flatten: not an image topology
    }
  }
  if (!found_flatten || c <= 0 || i + 1 >= stages_.size()) return Shape{};
  const auto* dense = std::get_if<BinDenseStage>(&stages_[i + 1]);
  if (!dense || dense->in % c != 0) return Shape{};
  const std::int64_t hw = dense->in / c;
  std::int64_t h = static_cast<std::int64_t>(std::llround(std::sqrt(
      static_cast<double>(hw))));
  if (h * h != hw) return Shape{};
  for (auto it = pre.rbegin(); it != pre.rend(); ++it)
    h = (*it == 0) ? h * 2 : h + (*it - 1);
  return Shape{h, h, c_in};
}

std::vector<std::int64_t> XnorNetwork::predict(const Tensor& input) const {
  const Tensor logits = forward(input);
  return tensor::argmax_rows(logits);
}

std::int64_t XnorNetwork::weight_bits() const {
  std::int64_t bits = 0;
  constexpr std::int64_t kThresholdBits = 24;  // FINN threshold word width
  for (const Stage& stage : stages_) {
    if (const auto* st = std::get_if<FirstConvStage>(&stage)) {
      bits += st->weights.numel() + st->co * kThresholdBits;
    } else if (const auto* st2 = std::get_if<BinConvStage>(&stage)) {
      bits += st2->weights.rows() * st2->weights.cols() +
              st2->co * kThresholdBits;
    } else if (const auto* st3 = std::get_if<BinDenseStage>(&stage)) {
      bits += st3->weights.rows() * st3->weights.cols();
      if (st3->has_threshold) bits += st3->out * kThresholdBits;
    }
    // Residual stages reuse the packed weights across levels -- that is
    // the whole point -- but each extra (level, pattern) bank is another
    // set of per-channel threshold words, plus one 16-bit scale per level.
    if (const ResidualSpec* spec = stage_residual(stage)) {
      for (const ThresholdSpec& bank : spec->extra_banks)
        bits += bank.channels() * kThresholdBits;
      bits += static_cast<std::int64_t>(spec->scale_bits.size()) * 16;
    }
  }
  return bits;
}

}  // namespace bcop::xnor
