// Public facade: classify a face image with a trained Binary-CoP model.
//
// The Predictor owns both views of a trained network: the float training
// graph (needed for Grad-CAM) and the folded XNOR network (the deployment
// path used for classification). This is what the examples and the gate /
// crowd applications program against.
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

  /// A deployment-only clone for scale-out serving: copies the folded
  /// XNOR network (the copy starts with a fresh, empty plan cache, so each
  /// replica's workers build and own their plans with zero cross-replica
  /// sharing) but NOT the float training graph -- the clone's model() is
  /// an empty Sequential and it cannot produce Grad-CAM maps. classify()
  /// and classify_batch() behave identically to the original.
  Predictor replicate() const;

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

  /// Allocation-free serving form of classify_batch: the folded network
  /// executes its cached plan into `ws`, logits land in `logits` (only
  /// reallocated on a shape change), and softmax/argmax are computed
  /// in place into `results` (resized, but steady-state capacity is
  /// reused). After a warm call with a repeated batch shape this performs
  /// zero heap allocations -- the form the batching server workers use.
  void classify_batch(const tensor::Tensor& batch, xnor::Workspace& ws,
                      tensor::Tensor& logits,
                      std::vector<Result>& results) const;

  const nn::Sequential& model() const { return model_; }
  nn::Sequential& mutable_model() { return model_; }
  const xnor::XnorNetwork& network() const { return net_; }

  /// Cap the residual binarization depth this predictor serves at
  /// (XnorNetwork::plan_for semantics: 0 = every trained level, m in
  /// [1, max_levels()] truncates the deeper planes and their threshold
  /// banks). Classic M = 1 networks are unaffected by any value.
  /// replicate() copies the cap, which is how a tiered serve::Router
  /// (RouterConfig::fast_replicas) serves M = 1 fast replicas and
  /// full-depth ones from one trained model. Not thread-safe against
  /// concurrent classify calls: set it before serving starts.
  void set_serve_levels(std::int64_t levels);
  std::int64_t serve_levels() const { return serve_levels_; }

 private:
  /// For replicate(): clones start empty and copy net_/want_ directly.
  Predictor() = default;

  nn::Sequential model_;
  xnor::XnorNetwork net_;
  /// net_.expected_input_shape(), computed once at construction so the
  /// per-batch contract check stays allocation-free.
  tensor::Shape want_;
  /// Residual level cap applied to every classify call (0 = full depth).
  std::int64_t serve_levels_ = 0;
};

}  // namespace bcop::core
