// ExecutionPlan / Workspace unit tests: the compile() geometry, the plan
// cache, arena sizing/alignment, the detail::execute entry point, and the
// partial-network (Unpack) path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/architecture.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "xnor/engine.hpp"
#include "xnor/exec.hpp"
#include "xnor/exec_residual.hpp"
#include "xnor/plan.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;
using xnor::ExecutionPlan;
using xnor::StepKind;
using xnor::Workspace;
using xnor::XnorNetwork;

Tensor random_images(std::int64_t n, std::uint64_t seed) {
  Tensor x(Shape{n, 32, 32, 3});
  util::Rng rng(seed);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform());
  return x;
}

TEST(ExecutionPlanTest, CompilesPrototypeGeometry) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 7);
  const XnorNetwork net = XnorNetwork::fold(model);
  const Shape input{3, 32, 32, 3};
  const ExecutionPlan plan = ExecutionPlan::compile(net, input);

  EXPECT_EQ(plan.input_shape(), input);
  EXPECT_EQ(plan.output_shape(), (Shape{3, 4}));
  EXPECT_EQ(plan.batch(), 3);
  EXPECT_EQ(plan.stage_shapes().size(), net.stages().size());
  ASSERT_FALSE(plan.steps().empty());
  EXPECT_EQ(plan.steps().front().kind, StepKind::kFirstConv);
  EXPECT_EQ(plan.steps().back().kind, StepKind::kLogits);
  EXPECT_EQ(plan.steps().back().dst_half, -1);  // logits go to the caller
  EXPECT_GT(plan.arena_bytes(), 0u);

  // Per-stage shapes must chain: each stage's input is the previous
  // stage's output.
  const auto& shapes = plan.stage_shapes();
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    EXPECT_EQ(shapes[i].h_in, shapes[i - 1].h_out) << "stage " << i;
    EXPECT_EQ(shapes[i].w_in, shapes[i - 1].w_out) << "stage " << i;
    EXPECT_EQ(shapes[i].c_in, shapes[i - 1].c_out) << "stage " << i;
  }
}

TEST(ExecutionPlanTest, RejectsMismatchedInput) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 7);
  const XnorNetwork net = XnorNetwork::fold(model);
  // Wrong rank and wrong channel count both carry descriptive messages.
  EXPECT_THROW(ExecutionPlan::compile(net, Shape{4, 9}), std::runtime_error);
  EXPECT_THROW(ExecutionPlan::compile(net, Shape{1, 32, 32, 5}),
               std::runtime_error);
  EXPECT_THROW(ExecutionPlan::compile(net, Shape{0, 32, 32, 3}),
               std::runtime_error);
}

TEST(ExecutionPlanTest, PlanCacheReturnsStableReferences) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 11);
  const XnorNetwork net = XnorNetwork::fold(model);
  const ExecutionPlan& a = net.plan_for(Shape{2, 32, 32, 3});
  const ExecutionPlan& b = net.plan_for(Shape{4, 32, 32, 3});
  const ExecutionPlan& a2 = net.plan_for(Shape{2, 32, 32, 3});
  EXPECT_EQ(&a, &a2);  // same shape -> same cached plan
  EXPECT_NE(&a, &b);   // batch is part of the key
  EXPECT_EQ(a.batch(), 2);
  EXPECT_EQ(b.batch(), 4);
  // The first reference must survive later cache growth (node stability).
  EXPECT_EQ(a.output_shape(), (Shape{2, 4}));
}

TEST(ExecutionPlanTest, WorkspaceGrowsMonotonically) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 3);
  const XnorNetwork net = XnorNetwork::fold(model);
  const ExecutionPlan& small = net.plan_for(Shape{1, 32, 32, 3});
  const ExecutionPlan& big = net.plan_for(Shape{8, 32, 32, 3});
  ASSERT_GT(big.arena_bytes(), small.arena_bytes());

  Workspace ws;
  EXPECT_EQ(ws.capacity(), 0u);
  ws.prepare(small);
  const std::size_t after_small = ws.capacity();
  EXPECT_GE(after_small, small.arena_bytes());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ws.base()) % 64, 0u);

  ws.prepare(big);
  EXPECT_GE(ws.capacity(), big.arena_bytes());
  const std::byte* base_big = ws.base();
  ws.prepare(small);  // shrinking request: no-op, capacity holds
  EXPECT_GE(ws.capacity(), big.arena_bytes());
  EXPECT_EQ(ws.base(), base_big);
}

TEST(ExecutionPlanTest, DetailExecuteMatchesForwardBatch) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kCnv, 19);
  const XnorNetwork net = XnorNetwork::fold(model);
  const Tensor x = random_images(2, 42);

  const Tensor expected = net.forward_batch(x);

  const ExecutionPlan& plan = net.plan_for(x.shape());
  Workspace ws;
  ws.prepare(plan);
  Tensor out(plan.output_shape());
  xnor::detail::execute(plan, net.stages(), x.data(), ws, out.data());

  ASSERT_EQ(out.shape(), expected.shape());
  for (std::int64_t i = 0; i < out.numel(); ++i)
    ASSERT_EQ(out[i], expected[i]) << "logit " << i;
}

TEST(ExecutionPlanTest, PartialNetworkUnpacksBits) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 5);
  const XnorNetwork full = XnorNetwork::fold(model);
  // First conv stage only: the plan must end in an Unpack step and surface
  // the bit state as {-1,+1} floats in NHWC geometry.
  std::vector<xnor::Stage> head(full.stages().begin(),
                                full.stages().begin() + 1);
  const XnorNetwork partial("head", std::move(head));

  const Tensor x = random_images(2, 99);
  const ExecutionPlan& plan = partial.plan_for(x.shape());
  EXPECT_EQ(plan.steps().back().kind, StepKind::kUnpack);
  EXPECT_EQ(plan.output_shape(), (Shape{2, 30, 30, 16}));

  const Tensor y = partial.forward_batch(x);
  ASSERT_EQ(y.shape(), plan.output_shape());
  for (std::int64_t i = 0; i < y.numel(); ++i)
    ASSERT_TRUE(y[i] == 1.f || y[i] == -1.f) << "element " << i;
}

// --- Residual binarization (docs/residual-binarization.md) -------------

TEST(ExecutionPlanResidual, MultiLevelPlanLaysOutBanksPlanesAndScratch) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 7,
                                         /*residual_levels=*/3);
  const XnorNetwork net = XnorNetwork::fold(model);
  ASSERT_EQ(net.max_levels(), 3);
  const Shape input{2, 32, 32, 3};
  const ExecutionPlan plan = ExecutionPlan::compile(net, input);

  // Every activation-producing step emits 3 planes fired from 2^3 - 1
  // consecutive pattern banks; the classifier consumes 3 scaled planes.
  std::int64_t residual_steps = 0;
  for (const auto& st : plan.steps()) {
    if (st.kind == StepKind::kFirstConv || st.kind == StepKind::kBinConv ||
        st.kind == StepKind::kBinDense) {
      EXPECT_EQ(st.levels_out, 3);
      ASSERT_GE(st.prep, 0);
      for (std::int64_t b = 0; b < 7; ++b)
        EXPECT_EQ(plan.prep(st.prep + b).thr.size(),
                  static_cast<std::size_t>(st.out_cols))
            << "bank " << b;
      ++residual_steps;
    }
    if (st.kind == StepKind::kBinConv || st.kind == StepKind::kBinDense ||
        st.kind == StepKind::kLogits) {
      EXPECT_EQ(st.levels_in, 3);
      EXPECT_TRUE(st.in_scaled);
      // Dyadic scale chain: g_0 >= g_1 >= g_2 >= 1, strictly dominant.
      EXPECT_GT(st.in_scale_bits[0], st.in_scale_bits[1] + st.in_scale_bits[2]);
      EXPECT_GE(st.in_scale_bits[2], 1);
    }
    if (st.kind == StepKind::kLogits)
      EXPECT_FLOAT_EQ(st.out_scale, 1.f / 256.f);
  }
  EXPECT_GT(residual_steps, 0);

  // The plane-fused GEMM gathers every input plane's patch rows before it
  // multiplies: each image's slice holds a patch region of levels_in
  // planes of one image's patch rows for every scaled conv step.
  std::int64_t scaled_convs = 0;
  for (const auto& st : plan.steps()) {
    if (st.kind != StepKind::kBinConv || !st.in_scaled) continue;
    const std::size_t one_plane = static_cast<std::size_t>(
        st.patch_rows * st.patch_wpr * std::int64_t{8});
    EXPECT_EQ(st.patch_rows, st.ho * st.wo);  // one image's rows
    EXPECT_GE(plan.acc_offset() - plan.patch_offset(),
              static_cast<std::size_t>(st.levels_in) * one_plane);
    ++scaled_convs;
  }
  EXPECT_GT(scaled_convs, 0);
  EXPECT_EQ(plan.arena_bytes(), 2 * plan.slice_bytes());

  // Every image replays on its own slice: the arena is `batch` copies of
  // one image's five regions [half A | half B | patch | acc | floats],
  // each the 64-byte-aligned maximum over its (one-image) steps.
  nn::Sequential classic = core::build_bnn(core::ArchitectureId::kMicroCnv, 7);
  const XnorNetwork cnet = XnorNetwork::fold(classic);
  const ExecutionPlan cplan = ExecutionPlan::compile(cnet, input);
  auto align64 = [](std::size_t x) { return (x + 63) & ~std::size_t{63}; };
  auto bytes = [](std::int64_t rows, std::int64_t wpr) {
    return static_cast<std::size_t>(rows * wpr) * sizeof(std::uint64_t);
  };
  std::size_t half[2] = {0, 0}, patch = 0, acc = 0;
  for (const auto& st : cplan.steps()) {
    if (st.dst_half >= 0)
      half[st.dst_half] =
          std::max(half[st.dst_half], bytes(st.out_rows, st.out_wpr));
    patch = std::max(patch, bytes(st.patch_rows, st.patch_wpr));
    acc = std::max(acc, static_cast<std::size_t>(st.acc_len) *
                            sizeof(std::int32_t));
  }
  const std::size_t floats =
      static_cast<std::size_t>(input.numel() / input[0]) * sizeof(float);
  const std::size_t slice = align64(half[0]) + align64(half[1]) +
                            align64(patch) + align64(acc) + align64(floats);
  EXPECT_EQ(cplan.slice_bytes(), slice);
  EXPECT_EQ(cplan.arena_bytes(), 2 * slice);

  // One image's slice is the whole arena a batch-1 plan had before images
  // got slices of their own. At M = 3 the planes triple the halves and the
  // patch region, but the acc region stays the conv steps': the first conv
  // fires from its stack tile at every depth.
  const Shape one{1, 32, 32, 3};
  struct B1Slice {
    core::ArchitectureId id;
    std::size_t m1, m3;
  };
  const B1Slice b1_slices[] = {
      {core::ArchitectureId::kMicroCnv, 94784u, 159360u},
      {core::ArchitectureId::kNCnv, 94784u, 159360u},
      {core::ArchitectureId::kCnv, 282944u, 422784u}};
  for (const auto& [id, m1, m3] : b1_slices) {
    nn::Sequential m = core::build_bnn(id, 7);
    const XnorNetwork proto = XnorNetwork::fold(m);
    EXPECT_EQ(ExecutionPlan::compile(proto, one).arena_bytes(), m1)
        << core::arch_name(id);
    EXPECT_EQ(ExecutionPlan::compile(proto, input).arena_bytes(), 2 * m1)
        << core::arch_name(id);
    nn::Sequential r = core::build_bnn(id, 7, /*residual_levels=*/3);
    const XnorNetwork rproto = XnorNetwork::fold(r);
    const ExecutionPlan rplan = ExecutionPlan::compile(rproto, one);
    EXPECT_EQ(rplan.slice_bytes(), m3) << core::arch_name(id);
    EXPECT_EQ(rplan.steps().front().kind, StepKind::kFirstConv);
    EXPECT_EQ(rplan.steps().front().acc_len, 0) << core::arch_name(id);
  }
}

// compile() rejects a first conv whose one output pixel would not fit the
// kFirstConvTile stack tile it fires from -- at one level and at three,
// since every depth fires the first conv tile by tile.
TEST(ExecutionPlanTest, RejectsFirstConvWiderThanItsTile) {
  const std::int64_t co = xnor::detail::kFirstConvTile + 1;
  const auto bank = [co] {
    xnor::ThresholdSpec t;
    t.t.assign(static_cast<std::size_t>(co), 0);
    t.flip.assign(static_cast<std::size_t>(co), 0);
    return t;
  };
  for (const std::int64_t levels : {1, 3}) {
    xnor::FirstConvStage fc;
    fc.k = 3;
    fc.ci = 3;
    fc.co = co;
    fc.weights = Tensor(Shape{fc.k * fc.k * fc.ci, co});
    fc.thresholds = bank();
    if (levels > 1) {
      fc.residual.levels = levels;
      fc.residual.scale_bits = {128, 32, 8};
      fc.residual.extra_banks.assign(6, bank());
    }
    std::vector<xnor::Stage> stages;
    stages.emplace_back(std::move(fc));
    const XnorNetwork net("wide_first_conv", std::move(stages));
    ASSERT_EQ(net.max_levels(), levels);
    try {
      (void)ExecutionPlan::compile(net, Shape{1, 8, 8, 3});
      ADD_FAILURE() << "compiled a " << co << "-channel first conv at M = "
                    << levels;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "FirstConv has 2049 output channels, more than the 2048 "
                    "its firing tile holds"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExecutionPlanResidual, LevelCapTruncatesBanksAndKeysTheCache) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 13,
                                         /*residual_levels=*/3);
  const XnorNetwork net = XnorNetwork::fold(model);
  const Shape input{1, 32, 32, 3};

  const ExecutionPlan capped = ExecutionPlan::compile(net, input, 2);
  EXPECT_EQ(capped.levels(), 2);
  for (const auto& st : capped.steps())
    if (st.kind == StepKind::kFirstConv || st.kind == StepKind::kBinConv ||
        st.kind == StepKind::kBinDense) {
      EXPECT_EQ(st.levels_out, 2);  // 2^2 - 1 = 3 banks laid out
      EXPECT_LE(st.levels_in, 2);
    }

  // The cap widens the plan-cache key: same shape, different M -> distinct
  // plans; a cap at/above the trained depth normalizes to the full entry.
  const ExecutionPlan& full = net.plan_for(input);
  const ExecutionPlan& m1 = net.plan_for(input, 1);
  const ExecutionPlan& m2 = net.plan_for(input, 2);
  EXPECT_NE(&full, &m1);
  EXPECT_NE(&full, &m2);
  EXPECT_NE(&m1, &m2);
  EXPECT_EQ(&net.plan_for(input, 3), &full);
  EXPECT_EQ(&net.plan_for(input, 0), &full);

  // Truncated plans shrink monotonically: fewer banks and planes mean a
  // smaller (or equal) arena.
  EXPECT_LE(m1.arena_bytes(), m2.arena_bytes());
  EXPECT_LE(m2.arena_bytes(), full.arena_bytes());

  EXPECT_THROW(ExecutionPlan::compile(net, input, 4), std::runtime_error);
  EXPECT_THROW(ExecutionPlan::compile(net, input, -1), std::runtime_error);
}

TEST(ExecutionPlanResidual, DetailExecuteMatchesForwardBatchAtEveryCap) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 19,
                                         /*residual_levels=*/2);
  const XnorNetwork net = XnorNetwork::fold(model);
  const Tensor x = random_images(2, 42);
  for (std::int64_t cap = 0; cap <= 2; ++cap) {
    const Tensor expected = net.forward_batch(x, cap);
    const ExecutionPlan& plan = net.plan_for(x.shape(), cap);
    Workspace ws;
    ws.prepare(plan);
    Tensor out(plan.output_shape());
    xnor::detail::execute(plan, net.stages(), x.data(), ws, out.data());
    for (std::int64_t i = 0; i < out.numel(); ++i)
      ASSERT_EQ(out[i], expected[i]) << "cap " << cap << " logit " << i;
  }
}

TEST(ExecutionPlanTest, CopiedNetworkKeepsWorking) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 23);
  const XnorNetwork net = XnorNetwork::fold(model);
  const Tensor x = random_images(2, 7);
  const Tensor expected = net.forward_batch(x);  // also warms net's cache

  XnorNetwork copy = net;                  // fresh (empty) plan cache
  const Tensor from_copy = copy.forward_batch(x);  // warms the copy's cache
  const XnorNetwork moved = std::move(copy);       // move keeps the cache
  const Tensor from_moved = moved.forward_batch(x);
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(from_copy[i], expected[i]);
    ASSERT_EQ(from_moved[i], expected[i]);
  }
}

}  // namespace
