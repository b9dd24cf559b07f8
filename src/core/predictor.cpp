#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/fold.hpp"
#include "facegen/dataset.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "xnor/plan.hpp"

namespace bcop::core {

Predictor::Predictor(nn::Sequential model)
    : model_(std::move(model)),
      net_(fold(model_)),
      want_(net_.expected_input_shape()) {}

Predictor Predictor::from_file(const std::string& path) {
  return Predictor(nn::Sequential::load_file(path));
}

std::vector<Predictor::Result> Predictor::classify_batch(
    const tensor::Tensor& batch) const {
  static thread_local xnor::Workspace ws;
  tensor::Tensor logits;
  std::vector<Result> results;
  classify_batch(batch, ws, logits, results);
  return results;
}

void Predictor::classify_batch(const tensor::Tensor& batch,
                               xnor::Workspace& ws, tensor::Tensor& logits,
                               std::vector<Result>& results) const {
  // A mis-shaped batch would silently flow through conv/pool stages and
  // only explode (or worse, mis-classify) at the flatten boundary, so the
  // leading dimensions are contract-checked against the folded topology.
  const tensor::Shape& s = batch.shape();
  BCOP_CHECK(s.rank() == 4,
             "classify_batch: rank-4 [N, S, S, C] batch required, got %s",
             s.str().c_str());
  BCOP_CHECK(s[0] >= 1, "classify_batch: empty batch %s", s.str().c_str());
  const tensor::Shape& want = want_;
  if (want.rank() == 3) {
    BCOP_CHECK(s[1] == want[0] && s[2] == want[1] && s[3] == want[2],
               "classify_batch: batch %s does not match %s input "
               "[N, %lld, %lld, %lld]",
               s.str().c_str(), net_.name().c_str(),
               static_cast<long long>(want[0]),
               static_cast<long long>(want[1]),
               static_cast<long long>(want[2]));
  }
  net_.forward_batch(batch, ws, logits);
  to_results(logits, results);
}

void Predictor::to_results(const tensor::Tensor& logits,
                           std::vector<Result>& results) {
  const std::int64_t n = logits.shape()[0], classes = logits.shape()[1];
  BCOP_CHECK(classes == facegen::kNumClasses,
             "to_results: model emits %lld classes, expected %d",
             static_cast<long long>(classes), facegen::kNumClasses);
  results.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * classes;
    Result& r = results[static_cast<std::size_t>(i)];
    r.label = static_cast<facegen::MaskClass>(tensor::argmax(row, classes));
    // Softmax into the fixed-size score array (same max-subtracted form as
    // tensor::softmax_rows, without the intermediate tensor).
    const float mx = *std::max_element(row, row + classes);
    float sum = 0.f;
    for (std::int64_t c = 0; c < classes; ++c) {
      r.scores[static_cast<std::size_t>(c)] = std::exp(row[c] - mx);
      sum += r.scores[static_cast<std::size_t>(c)];
    }
    float top1 = 0.f, top2 = 0.f;
    for (std::int64_t c = 0; c < classes; ++c) {
      const float p = r.scores[static_cast<std::size_t>(c)] / sum;
      r.scores[static_cast<std::size_t>(c)] = p;
      if (p > top1) {
        top2 = top1;
        top1 = p;
      } else if (p > top2) {
        top2 = p;
      }
    }
    r.margin = top1 - top2;
  }
}

Predictor::Result Predictor::classify(const util::Image& image) const {
  if (image.height() != image.width())
    throw std::invalid_argument("Predictor::classify: square image required");
  return classify_batch(facegen::MaskedFaceDataset::image_to_tensor(image))
      .front();
}

}  // namespace bcop::core
