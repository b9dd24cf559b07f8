// Public facade: classify a face image with a trained Binary-CoP model.
//
// The Predictor owns both views of a trained network: the float training
// graph (needed for Grad-CAM) and the folded XNOR network (core::fold, the
// deployment path used for classification). This is what the examples and
// the gate / crowd applications program against. A serve::Router reads
// network() during its constructor and swap_model only; each replica keeps
// its own copy of the folded network and turns logits into Results with
// to_results().
#pragma once

#include <array>
#include <string>

#include "facegen/attributes.hpp"
#include "nn/sequential.hpp"
#include "util/image.hpp"
#include "xnor/engine.hpp"

namespace bcop::core {

class Predictor {
 public:
  /// Take ownership of a trained BNN and fold it for deployment.
  explicit Predictor(nn::Sequential model);

  /// Load a model file written by nn::Sequential::save().
  static Predictor from_file(const std::string& path);

  struct Result {
    facegen::MaskClass label = facegen::MaskClass::kCorrect;
    std::array<float, facegen::kNumClasses> scores{};  // softmax of logits
    /// Confidence margin: softmax(top-1) - softmax(top-2), in [0, 1].
    /// Near 0 means the classifier is torn between two classes -- the
    /// signal a tiered serve::Router uses to hand a request from an M = 1
    /// fast replica to a full-depth one (RouterConfig::margin_threshold,
    /// docs/residual-binarization.md).
    float margin = 0.f;
    /// True when the subject may pass a gate (mask correctly worn).
    bool admit() const { return label == facegen::MaskClass::kCorrect; }
  };

  /// Classify one image (any square size matching the model input).
  Result classify(const util::Image& image) const;

  /// Classify a prepared [N, S, S, 3] tensor; returns one Result per row.
  /// Runs the bit-domain batched engine path (one XNOR-popcount GEMM per
  /// layer for the whole batch). The batch shape is contract-checked
  /// against the folded topology (BCOP_CHECK aborts on mismatch).
  std::vector<Result> classify_batch(const tensor::Tensor& batch) const;

  /// Allocation-free form of classify_batch: the folded network executes
  /// its cached plan into `ws`, logits land in `logits` (only reallocated
  /// on a shape change), and to_results() fills `results`. After a warm
  /// call with a repeated batch shape this performs zero heap allocations.
  void classify_batch(const tensor::Tensor& batch, xnor::Workspace& ws,
                      tensor::Tensor& logits,
                      std::vector<Result>& results) const;

  /// Softmax, argmax and margin of [N, kNumClasses] logits, one Result per
  /// row, computed in place into `results` (resized, but steady-state
  /// capacity is reused). classify_batch and the serving replicas share
  /// it. Logits of another class count fail a BCOP_CHECK.
  static void to_results(const tensor::Tensor& logits,
                         std::vector<Result>& results);

  const nn::Sequential& model() const { return model_; }
  nn::Sequential& mutable_model() { return model_; }
  const xnor::XnorNetwork& network() const { return net_; }

 private:
  nn::Sequential model_;
  xnor::XnorNetwork net_;
  /// net_.expected_input_shape(), computed once at construction so the
  /// per-batch contract check stays allocation-free.
  tensor::Shape want_;
};

}  // namespace bcop::core
