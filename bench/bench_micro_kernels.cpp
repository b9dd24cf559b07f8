// Micro-benchmarks (google-benchmark) for the kernels behind the system:
// float GEMM vs the per-tier XNOR-popcount GEMM rows (the paper's core
// efficiency claim in software form), patch extraction, bit packing, face
// rendering, folding and whole-network inference.
#include <benchmark/benchmark.h>

#include <string>

#include "core/architecture.hpp"
#include "core/fold.hpp"
#include "deploy/pipeline.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "tensor/bit_span.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2row.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/scalar.hpp"
#include "util/rng.hpp"
#include "xnor/engine.hpp"

namespace {

using namespace bcop;
using tensor::BitMatrix;
using tensor::Shape;
using tensor::Tensor;

std::vector<float> random_signs(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.bernoulli(0.5) ? 1.f : -1.f;
  return v;
}

// conv1.2 of CNV as a GEMM: [784, 576] x [576, 64].
void BM_FloatGemmConv12(benchmark::State& state) {
  const std::int64_t M = 784, N = 64, K = 576;
  const auto a = random_signs(M * K, 1);
  const auto b = random_signs(K * N, 2);
  std::vector<float> c(static_cast<std::size_t>(M * N));
  for (auto _ : state) {
    tensor::gemm_nn(M, N, K, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * N * K);
}
BENCHMARK(BM_FloatGemmConv12);

void BM_PackMatrix(benchmark::State& state) {
  const std::int64_t M = 784, K = 576;
  const auto a = random_signs(M * K, 5);
  for (auto _ : state) {
    const BitMatrix p = tensor::pack_matrix(a.data(), M, K);
    benchmark::DoNotOptimize(p.storage().data());
  }
  state.SetItemsProcessed(state.iterations() * M * K);
}
BENCHMARK(BM_PackMatrix);

void BM_Im2Row32x32(benchmark::State& state) {
  util::Rng rng(6);
  Tensor x(Shape{1, 32, 32, 64});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  Tensor rows;
  for (auto _ : state) {
    tensor::im2row(x, 3, rows);
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_Im2Row32x32);

void BM_RenderFace(benchmark::State& state) {
  util::Rng rng(7);
  for (auto _ : state) {
    const auto attrs = facegen::sample_attributes(
        static_cast<facegen::MaskClass>(state.iterations() % 4), rng);
    const auto r = facegen::render_face(attrs);
    benchmark::DoNotOptimize(r.image.data().data());
  }
}
BENCHMARK(BM_RenderFace);

void BM_FoldNCnv(benchmark::State& state) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 8);
  for (auto _ : state) {
    xnor::XnorNetwork net = core::fold(model);
    benchmark::DoNotOptimize(&net);
  }
}
BENCHMARK(BM_FoldNCnv);

void BM_XnorForwardNCnv(benchmark::State& state) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 9);
  const xnor::XnorNetwork net = core::fold(model);
  util::Rng rng(10);
  const auto attrs =
      facegen::sample_attributes(facegen::MaskClass::kCorrect, rng);
  const auto x = facegen::MaskedFaceDataset::image_to_tensor(
      facegen::render_face(attrs).image);
  for (auto _ : state) {
    const Tensor logits = net.forward(x);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_XnorForwardNCnv);

void BM_FloatForwardNCnv(benchmark::State& state) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 11);
  util::Rng rng(12);
  const auto attrs =
      facegen::sample_attributes(facegen::MaskClass::kCorrect, rng);
  const auto x = facegen::MaskedFaceDataset::image_to_tensor(
      facegen::render_face(attrs).image);
  for (auto _ : state) {
    const Tensor logits = model.forward(x, false);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_FloatForwardNCnv);

// ---- Per-tier kernel rows: one row per compiled+executable dispatch ----
// tier, same geometry, so the report shows scalar vs avx2 vs avx512 side
// by side (docs/benchmarks.md). Each bench drives the tier's chunk
// function directly, single-chunk, on the calling thread.

namespace kn = tensor::kernels;

void kernel_gemm_tier(benchmark::State& state, kn::KernelLevel lvl) {
  // conv1.2 of CNV as a GEMM: [784, 576] x [576, 64].
  const std::int64_t M = 784, N = 64, K = 576;
  const auto a = random_signs(M * K, 3);
  const auto b = random_signs(N * K, 4);
  const BitMatrix pa = tensor::pack_matrix(a.data(), M, K);
  const BitMatrix pb = tensor::pack_matrix(b.data(), N, K);
  std::vector<std::uint64_t> bt(
      static_cast<std::size_t>(pb.rows() * pb.words_per_row()));
  tensor::transpose_word_major(tensor::span_of(pb), bt.data());
  std::vector<std::int32_t> c(static_cast<std::size_t>(M * N));
  const kn::KernelTable& table = kn::table_for(lvl);
  for (auto _ : state) {
    kn::GemmCtx ctx{tensor::span_of(pa), bt.data(), N, c.data()};
    table.gemm(&ctx, 0, M);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * N * K);
}

void kernel_thresh_tier(benchmark::State& state, kn::KernelLevel lvl) {
  const std::int64_t rows = 784, C = 256;
  util::Rng rng(15);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * C));
  std::vector<std::int32_t> thr(static_cast<std::size_t>(C));
  std::vector<std::int32_t> inv(static_cast<std::size_t>(C));
  for (auto& v : acc)
    v = static_cast<std::int32_t>(rng.uniform_int(-64, 64));
  for (auto& v : thr) v = static_cast<std::int32_t>(rng.uniform_int(-8, 8));
  for (auto& v : inv) v = rng.bernoulli(0.5) ? 1 : 0;
  BitMatrix out(rows, C);
  const kn::KernelTable& table = kn::table_for(lvl);
  for (auto _ : state) {
    kn::ThreshCtx ctx{acc.data(), thr.data(), inv.data(),
                      tensor::span_of(out)};
    table.thresh(&ctx, 0, rows);
    benchmark::DoNotOptimize(out.storage().data());
  }
  state.SetItemsProcessed(state.iterations() * rows * C);
}

// bit-im2row has one body, shared by every tier's table: one row.
void BM_KernelIm2Row32x32(benchmark::State& state) {
  const std::int64_t n = 1, h = 32, w = 32, c = 64, k = 3;
  const std::int64_t ho = h - k + 1, wo = w - k + 1;
  const auto src = random_signs(n * h * w * c, 16);
  const BitMatrix pixels = tensor::pack_matrix(src.data(), n * h * w, c);
  BitMatrix rows(n * ho * wo, k * k * c);
  for (auto _ : state) {
    kn::Im2RowCtx ctx{tensor::span_of(pixels), tensor::span_of(rows),
                      h,  w,  c, k, ho, wo};
    kn::scalar_table().im2row(&ctx, 0, n * ho * wo);
    benchmark::DoNotOptimize(rows.storage().data());
  }
  state.SetItemsProcessed(state.iterations() * n * ho * wo * k * k * c);
}
BENCHMARK(BM_KernelIm2Row32x32);

const bool kKernelTierRowsRegistered = [] {
  for (int i = 0; i < kn::kKernelLevelCount; ++i) {
    const auto lvl = static_cast<kn::KernelLevel>(i);
    if (!kn::level_available(lvl)) continue;
    const std::string tier = kn::kernel_level_name(lvl);
    benchmark::RegisterBenchmark(("BM_KernelGemmConv12/" + tier).c_str(),
                                 kernel_gemm_tier, lvl);
    benchmark::RegisterBenchmark(("BM_KernelThreshold/" + tier).c_str(),
                                 kernel_thresh_tier, lvl);
  }
  return true;
}();

void BM_PipelineRunNCnv(benchmark::State& state) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 13);
  xnor::XnorNetwork net = core::fold(model);
  deploy::StreamingPipeline pipeline(
      net, core::layer_specs(core::ArchitectureId::kNCnv));
  util::Rng rng(14);
  const auto attrs =
      facegen::sample_attributes(facegen::MaskClass::kCorrect, rng);
  const auto x = facegen::MaskedFaceDataset::image_to_tensor(
      facegen::render_face(attrs).image);
  for (auto _ : state) {
    const auto result = pipeline.run(x);
    benchmark::DoNotOptimize(result.logits.data());
  }
}
BENCHMARK(BM_PipelineRunNCnv);

}  // namespace
