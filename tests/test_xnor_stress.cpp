// Concurrent interpreter callers, written to run under ThreadSanitizer
// (the `stress` ctest label; see docs/static-analysis.md). This is the
// serving shape: two batcher workers, each with its own Workspace, call
// forward_batch on one network at once and share ThreadPool::global().
// Each call fans out once over its images, every image replaying on its
// own arena slice, so the test walks uneven batch sizes (one-image calls
// that never touch the pool, tails shorter than a chunk) and two residual
// level caps (distinct cached plans compiled while the other caller runs).
// Client threads come from parallel::ThreadPool -- repo rule R2 keeps raw
// std::thread out of test code too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/architecture.hpp"
#include "core/fold.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "xnor/engine.hpp"
#include "xnor/plan.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kBatches[] = {1, 2, 3, 5, 16, 17};
constexpr std::int64_t kCaps[] = {1, 3};
constexpr std::int64_t kImages = 17;
constexpr std::int64_t kPixels = 32 * 32 * 3;

TEST(XnorStress, ConcurrentCallersMatchScalarBatchOneLogits) {
  nn::Sequential model =
      core::build_bnn(core::ArchitectureId::kNCnv, 31, /*residual_levels=*/3);
  const xnor::XnorNetwork net = core::fold(model);
  ASSERT_EQ(net.max_levels(), 3);

  std::vector<Tensor> images;
  util::Rng rng(32);
  for (std::int64_t i = 0; i < kImages; ++i) {
    Tensor x(Shape{1, 32, 32, 3});
    for (std::int64_t j = 0; j < x.numel(); ++j)
      x[j] = static_cast<float>(rng.uniform());
    images.push_back(x);
  }

  // Reference: every image alone, through plans compiled under the scalar
  // tier (a distinct plan-cache entry from the calls below).
  namespace kn = tensor::kernels;
  std::vector<std::vector<Tensor>> expected(std::size(kCaps));
  kn::set_level_override(kn::KernelLevel::kScalar);
  for (std::size_t k = 0; k < std::size(kCaps); ++k)
    for (const Tensor& x : images)
      expected[k].push_back(net.forward_batch(x, kCaps[k]));
  kn::clear_level_override();
  const std::int64_t classes = expected[0][0].shape()[1];

  const int kCallers = 2;
  const int kRounds = 2;
  std::atomic<int> mismatches{0};
  parallel::ThreadPool callers(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.submit([&, c] {
      xnor::Workspace ws;
      Tensor out;
      std::int64_t first = c;  // callers start on different images
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t b = 0; b < std::size(kBatches); ++b) {
          // The callers walk the batch sizes in opposite orders, so
          // different plans are compiled and replayed at the same time.
          const std::int64_t n =
              kBatches[c == 0 ? b : std::size(kBatches) - 1 - b];
          Tensor x(Shape{n, 32, 32, 3});
          for (std::int64_t i = 0; i < n; ++i) {
            const Tensor& src =
                images[static_cast<std::size_t>((first + i) % kImages)];
            for (std::int64_t j = 0; j < kPixels; ++j)
              x[i * kPixels + j] = src[j];
          }
          for (std::size_t k = 0; k < std::size(kCaps); ++k) {
            net.forward_batch(x, ws, out, kCaps[k]);
            for (std::int64_t i = 0; i < n; ++i) {
              const Tensor& want =
                  expected[k][static_cast<std::size_t>((first + i) % kImages)];
              for (std::int64_t j = 0; j < classes; ++j)
                if (out[i * classes + j] != want[j]) mismatches.fetch_add(1);
            }
          }
          first = (first + n) % kImages;
        }
    });
  }
  callers.wait_idle();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
