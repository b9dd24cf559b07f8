// Hand-assembled folded stage lists for the ExecutionPlan::compile
// contract tests. Weights and thresholds are all zero: these tests are
// about geometry and stage order, not values.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tensor/bit_tensor.hpp"
#include "tensor/tensor.hpp"
#include "xnor/engine.hpp"
#include "xnor/plan.hpp"

namespace bcop::testhelpers {

inline xnor::ThresholdSpec zero_bank(std::int64_t channels) {
  xnor::ThresholdSpec t;
  t.t.assign(static_cast<std::size_t>(channels), 0);
  t.flip.assign(static_cast<std::size_t>(channels), 0);
  return t;
}

/// The quantized entry conv: K x K, Ci -> Co.
inline xnor::FirstConvStage first_conv(std::int64_t k, std::int64_t ci,
                                       std::int64_t co) {
  xnor::FirstConvStage fc;
  fc.k = k;
  fc.ci = ci;
  fc.co = co;
  fc.weights = tensor::Tensor(tensor::Shape{k * k * ci, co});
  fc.thresholds = zero_bank(co);
  return fc;
}

inline xnor::BinConvStage bin_conv(std::int64_t k, std::int64_t ci,
                                   std::int64_t co) {
  xnor::BinConvStage cv;
  cv.k = k;
  cv.ci = ci;
  cv.co = co;
  cv.weights = tensor::BitMatrix(co, k * k * ci);
  cv.thresholds = zero_bank(co);
  return cv;
}

/// The threshold-free dense layer whose accumulators are the logits.
inline xnor::BinDenseStage classifier(std::int64_t in, std::int64_t out) {
  xnor::BinDenseStage d;
  d.in = in;
  d.out = out;
  d.weights = tensor::BitMatrix(out, in);
  d.has_threshold = false;
  return d;
}

template <typename... Stages>
xnor::XnorNetwork network(Stages&&... stages) {
  std::vector<xnor::Stage> list;
  (list.emplace_back(std::forward<Stages>(stages)), ...);
  return xnor::XnorNetwork("hand_assembled", std::move(list));
}

/// The message ExecutionPlan::compile throws for `net` at `input`, or
/// "compiled" when it accepts them.
inline std::string compile_error(const xnor::XnorNetwork& net,
                                 const tensor::Shape& input) {
  try {
    (void)xnor::ExecutionPlan::compile(net, input);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "compiled";
}

}  // namespace bcop::testhelpers
