#include "xnor/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "tensor/kernels/dispatch.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "xnor/exec.hpp"
#include "xnor/plan.hpp"

namespace bcop::xnor {

using tensor::Shape;
using tensor::Tensor;

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
