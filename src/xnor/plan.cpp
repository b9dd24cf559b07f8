#include "xnor/plan.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "tensor/bit_span.hpp"
#include "tensor/im2row.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "xnor/engine.hpp"
#include "xnor/exec.hpp"

#if BCOP_OBS
#include "obs/stage_profiler.hpp"
#endif

namespace bcop::xnor {

using tensor::Shape;
using tensor::words_for_bits;

namespace {

std::size_t align64(std::size_t x) { return (x + 63) & ~std::size_t{63}; }

std::size_t bits_bytes(std::int64_t rows, std::int64_t cols) {
  return static_cast<std::size_t>(rows * words_for_bits(cols)) *
         sizeof(std::uint64_t);
}

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("ExecutionPlan::compile: " + msg);
}

}  // namespace

ExecutionPlan ExecutionPlan::compile(const XnorNetwork& net,
                                     const Shape& input,
                                     std::int64_t levels) {
  ExecutionPlan plan;
  plan.input_ = input;
  plan.levels_ = levels;
  const std::vector<Stage>& stages = net.stages();
  if (stages.empty()) fail("empty stage list");
  if (input.rank() < 2 || input[0] < 1)
    fail("input must be batched ([N, ...] with N >= 1), got " + input.str());
  if (levels < 0 || levels > 3)
    fail("residual level cap must be in [0, 3], got " +
         std::to_string(levels));

  // Every size below is one image's: the arena holds `batch` slices of
  // the layout frozen at the end, and each image replays on its own.
  std::size_t half_bytes[2] = {0, 0};
  std::size_t patch_bytes = 0, acc_bytes = 0, float_bytes = 0;
  const std::int64_t batch = input[0];
  std::int64_t h = 0, w = 0, c = 0;
  bool flat = false;      // post-flatten rank-2 semantics
  bool terminal = false;  // a Logits step has been emitted
  int cur = 0;            // ping-pong half holding the live activations
  // The live activation stream's residual shape: plane count, and the
  // per-plane scale bits when the producer was a ResidualSign (classic
  // sign streams stay unscaled). Updated by every plane-producing step.
  std::int64_t cur_levels = 1;
  bool cur_scaled = false;
  std::int32_t cur_bits[3] = {0, 0, 0};

  auto add_prep = [&](const ThresholdSpec& spec) {
    plan.preps_.emplace_back(spec);
    return static_cast<std::int64_t>(plan.preps_.size()) - 1;
  };
  // Push the bank range of a residual stage's output: bank 0 from the
  // stage's `thresholds`, then the first 2^Lo - 2 extra banks -- a strict
  // prefix of the (level, pattern) layout, so a truncated plan reuses the
  // trained banks untouched. Returns the base index (the PlanStep's
  // `prep`); the effective output depth Lo is min(trained, cap).
  auto add_prep_banks = [&](const ThresholdSpec& bank0,
                            const ResidualSpec& spec, std::size_t stage_idx,
                            std::int64_t& levels_out) {
    levels_out = spec.levels;
    if (levels > 0) levels_out = std::min(levels_out, levels);
    if (spec.levels > 1 &&
        static_cast<std::int64_t>(spec.extra_banks.size()) !=
            (std::int64_t{1} << spec.levels) - 2)
      fail("stage " + std::to_string(stage_idx) + " has " +
           std::to_string(spec.extra_banks.size()) +
           " extra threshold banks, expected " +
           std::to_string((std::int64_t{1} << spec.levels) - 2));
    if (spec.scaled() &&
        static_cast<std::int64_t>(spec.scale_bits.size()) != spec.levels)
      fail("stage " + std::to_string(stage_idx) +
           " scale-bit arity does not match its level count");
    const std::int64_t base = add_prep(bank0);
    for (std::int64_t b = 0; b < (std::int64_t{1} << levels_out) - 2; ++b)
      add_prep(spec.extra_banks[static_cast<std::size_t>(b)]);
    return base;
  };
  // Record `spec` as the producer of the live stream (post-truncation).
  auto set_stream = [&](const ResidualSpec& spec, std::int64_t levels_out) {
    cur_levels = levels_out;
    cur_scaled = spec.scaled();
    for (std::int64_t m = 0; m < 3; ++m)
      cur_bits[m] = m < levels_out && cur_scaled
                        ? spec.scale_bits[static_cast<std::size_t>(m)]
                        : 0;
  };
  // Stamp the live stream onto a step's input-side residual fields.
  auto stamp_input = [&](PlanStep& st) {
    st.levels_in = cur_levels;
    st.in_scaled = cur_scaled;
    for (std::int64_t m = 0; m < 3; ++m) st.in_scale_bits[m] = cur_bits[m];
  };
  auto add_wmat = [&](const tensor::BitMatrix& wm) {
    std::vector<std::uint64_t> bt(
        static_cast<std::size_t>(wm.rows() * wm.words_per_row()));
    tensor::transpose_word_major(tensor::span_of(wm), bt.data());
    plan.wmats_.push_back(std::move(bt));
    return static_cast<std::int64_t>(plan.wmats_.size()) - 1;
  };
  // Resolve the dispatch tier ONCE per compile and freeze its kernel
  // pointers into every step -- the interpreter replays them with no tier
  // branch, and a plan never mixes tiers even if the override flips
  // between compiles.
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_table();
  plan.kernel_level_ = kt.level;

  auto emit = [&](PlanStep st) {
    st.gemm_fn = kt.gemm;
    st.thresh_fn = kt.thresh;
    st.im2row_fn = kt.im2row;
    if (st.dst_half >= 0)
      half_bytes[st.dst_half] = std::max(
          half_bytes[st.dst_half],
          bits_bytes(st.out_rows, st.out_cols) *
              static_cast<std::size_t>(st.levels_out));
    if (st.acc_len > 0)
      acc_bytes = std::max(
          acc_bytes, static_cast<std::size_t>(st.acc_len) * sizeof(std::int32_t));
    plan.steps_.push_back(st);
  };
  // Bit-domain Flatten: the image's pixel rows become one flat row (per
  // plane). Emitted for the explicit FlattenStage and implicitly before a
  // dense layer fed by pixel rows (the float path's pack_matrix reshape).
  auto emit_flatten = [&]() {
    PlanStep st;
    st.kind = StepKind::kFlatten;
    st.h = h;
    st.w = w;
    st.c = c;
    st.in_rows = h * w;
    st.in_cols = c;
    st.in_wpr = words_for_bits(c);
    st.out_rows = 1;
    st.out_cols = h * w * c;
    st.out_wpr = words_for_bits(st.out_cols);
    st.src_half = cur;
    st.dst_half = 1 - cur;
    stamp_input(st);
    st.levels_out = cur_levels;  // planes pass through, flattened
    emit(st);
    cur = 1 - cur;
    c = h * w * c;
    h = w = 1;
    flat = true;
  };

  // --- Entry: bring the caller's float tensor into the bit domain. ---
  std::size_t i0 = 0;
  if (const auto* fc = std::get_if<FirstConvStage>(&stages[0])) {
    if (input.rank() != 4)
      fail("FirstConv entry needs [N, H, W, C] input, got " + input.str());
    if (input[3] != fc->ci)
      fail("input has " + std::to_string(input[3]) + " channels, FirstConv expects " +
           std::to_string(fc->ci));
    h = input[1];
    w = input[2];
    c = input[3];
    const std::int64_t ho = tensor::conv_out_dim(h, fc->k);
    const std::int64_t wo = tensor::conv_out_dim(w, fc->k);
    if (ho <= 0 || wo <= 0) fail("FirstConv kernel larger than input");
    PlanStep st;
    st.kind = StepKind::kFirstConv;
    st.stage = 0;
    st.prep = add_prep_banks(fc->thresholds, fc->residual, 0, st.levels_out);
    st.k = fc->k;
    st.h = h;
    st.w = w;
    st.c = c;
    st.ho = ho;
    st.wo = wo;
    st.co = fc->co;
    st.out_rows = ho * wo;
    st.out_cols = fc->co;
    st.out_wpr = words_for_bits(fc->co);
    st.dst_half = 0;
    // The first conv fires its stack tiles of accumulators as it goes, so
    // a tile must hold one output pixel's channels.
    if (fc->co > detail::kFirstConvTile)
      fail("FirstConv has " + std::to_string(fc->co) +
           " output channels, more than the " +
           std::to_string(detail::kFirstConvTile) + " its firing tile holds");
    float_bytes = static_cast<std::size_t>(h * w * c) * sizeof(float);
    emit(st);
    set_stream(fc->residual, st.levels_out);
    plan.stage_shapes_.push_back({h, w, c, ho, wo, fc->co});
    h = ho;
    w = wo;
    c = fc->co;
    i0 = 1;
  } else {
    PlanStep st;
    st.kind = StepKind::kPackInput;
    if (std::get_if<BinConvStage>(&stages[0])) {
      if (input.rank() != 4)
        fail("conv entry needs [N, H, W, C] input, got " + input.str());
      h = input[1];
      w = input[2];
      c = input[3];
      st.out_rows = h * w;
      st.out_cols = c;
    } else if (std::get_if<BinDenseStage>(&stages[0])) {
      h = w = 1;
      c = input.numel() / batch;
      flat = true;
      st.out_rows = 1;
      st.out_cols = c;
    } else {
      fail("leading " + stage_kind(stages[0]) +
           " stage is unsupported -- stage lists must start with a conv or "
           "dense layer");
    }
    st.h = h;
    st.w = w;
    st.c = c;
    st.out_wpr = words_for_bits(st.out_cols);
    st.dst_half = 0;
    emit(st);
  }

  // --- Bit-domain body. ---
  for (std::size_t i = i0; i < stages.size(); ++i) {
    const Stage& stage = stages[i];
    if (terminal)
      fail("stage " + std::to_string(i) + " (" + stage_kind(stage) +
           ") after the classifier layer");
    StageShape ss{h, w, c, h, w, c};
    if (std::get_if<FirstConvStage>(&stage)) {
      fail("FirstConv after a binary stage is unsupported");
    } else if (const auto* cv = std::get_if<BinConvStage>(&stage)) {
      if (flat) fail("conv after flatten is unsupported");
      if (c != cv->ci)
        fail("conv stage " + std::to_string(i) + " expects " +
             std::to_string(cv->ci) + " input channels, got " +
             std::to_string(c));
      const std::int64_t ho = tensor::conv_out_dim(h, cv->k);
      const std::int64_t wo = tensor::conv_out_dim(w, cv->k);
      if (ho <= 0 || wo <= 0) fail("conv kernel larger than input");
      PlanStep st;
      st.kind = StepKind::kBinConv;
      st.stage = static_cast<std::int64_t>(i);
      st.prep = add_prep_banks(cv->thresholds, cv->residual, i, st.levels_out);
      st.wmat = add_wmat(cv->weights);
      stamp_input(st);
      st.k = cv->k;
      st.h = h;
      st.w = w;
      st.c = c;
      st.ho = ho;
      st.wo = wo;
      st.co = cv->co;
      st.in_rows = h * w;
      st.in_cols = c;
      st.in_wpr = words_for_bits(c);
      st.patch_rows = ho * wo;
      st.patch_cols = cv->k * cv->k * c;
      st.patch_wpr = words_for_bits(st.patch_cols);
      st.out_rows = ho * wo;
      st.out_cols = cv->co;
      st.out_wpr = words_for_bits(cv->co);
      st.acc_len = st.out_rows * cv->co;
      st.src_half = cur;
      st.dst_half = 1 - cur;
      // One plane of patch rows per input level: the fused residual GEMM
      // gathers every plane before it multiplies.
      patch_bytes = std::max(patch_bytes,
                             bits_bytes(st.patch_rows, st.patch_cols) *
                                 static_cast<std::size_t>(st.levels_in));
      emit(st);
      set_stream(cv->residual, st.levels_out);
      cur = 1 - cur;
      h = ho;
      w = wo;
      c = cv->co;
    } else if (std::get_if<PoolStage>(&stage)) {
      if (flat) fail("pool after flatten is unsupported");
      PlanStep st;
      st.kind = StepKind::kPool;
      st.h = h;
      st.w = w;
      st.c = c;
      st.ho = h / 2;
      st.wo = w / 2;
      st.co = c;
      st.in_rows = h * w;
      st.in_cols = c;
      st.in_wpr = words_for_bits(c);
      st.out_rows = st.ho * st.wo;
      st.out_cols = c;
      st.out_wpr = words_for_bits(c);
      st.src_half = cur;
      st.dst_half = 1 - cur;
      stamp_input(st);
      st.levels_out = cur_levels;  // planes pass through the pool
      emit(st);
      cur = 1 - cur;
      h /= 2;
      w /= 2;
    } else if (std::get_if<FlattenStage>(&stage)) {
      if (h * w != 1) {
        emit_flatten();
      } else {
        // A 1x1 image's pixel row is already its flat row: metadata only.
        c = h * w * c;
        h = w = 1;
        flat = true;
      }
    } else if (const auto* d = std::get_if<BinDenseStage>(&stage)) {
      if (h * w != 1) emit_flatten();
      if (c != d->in)
        fail("dense stage " + std::to_string(i) + " expects " +
             std::to_string(d->in) + " input features, got " +
             std::to_string(c));
      PlanStep st;
      st.kind = d->has_threshold ? StepKind::kBinDense : StepKind::kLogits;
      st.stage = static_cast<std::int64_t>(i);
      st.wmat = add_wmat(d->weights);
      st.h = st.w = 1;
      st.c = c;
      st.co = d->out;
      st.in_rows = 1;
      st.in_cols = d->in;
      st.in_wpr = words_for_bits(d->in);
      st.acc_len = d->out;
      st.src_half = cur;
      stamp_input(st);
      if (d->has_threshold) {
        st.prep = add_prep_banks(d->thresholds, d->residual, i, st.levels_out);
        st.out_rows = 1;
        st.out_cols = d->out;
        st.out_wpr = words_for_bits(d->out);
        st.dst_half = 1 - cur;
        emit(st);
        set_stream(d->residual, st.levels_out);
        cur = 1 - cur;
      } else {
        // Residual classifier inputs make the integer logits A = 256 * y;
        // the interpreter rescales (exactly: A is far below 2^24).
        if (st.in_scaled) st.out_scale = 1.f / 256.f;
        emit(st);  // dst_half = -1: logits land in the caller's output
        plan.output_ = Shape{batch, d->out};
        terminal = true;
      }
      h = w = 1;
      c = d->out;
      flat = true;
    }
    ss.h_out = h;
    ss.w_out = w;
    ss.c_out = c;
    plan.stage_shapes_.push_back(ss);
  }

  if (!terminal) {
    // Partial network (no classifier): surface the {-1,+1} state as floats
    // in the shape the stage list implies.
    PlanStep st;
    st.kind = StepKind::kUnpack;
    st.h = h;
    st.w = w;
    st.c = c;
    st.in_rows = flat ? 1 : h * w;
    st.in_cols = c;
    st.in_wpr = words_for_bits(c);
    st.src_half = cur;
    stamp_input(st);
    emit(st);
    plan.output_ = flat ? Shape{batch, c} : Shape{batch, h, w, c};
  }

  plan.batch_ = batch;
  plan.image_inputs_ = input.numel() / batch;
  plan.image_outputs_ = plan.output_.numel() / batch;

  // --- Freeze one image's slice layout: [half A | half B | patch | acc |
  // floats], each region 64-byte aligned so rows start on cache lines.
  // The arena repeats the slice once per image, so images never share a
  // byte and need no barrier between steps. ---
  std::size_t off = 0;
  plan.off_half_[0] = off;
  off += align64(half_bytes[0]);
  plan.off_half_[1] = off;
  off += align64(half_bytes[1]);
  plan.off_patch_ = off;
  off += align64(patch_bytes);
  plan.off_acc_ = off;
  off += align64(acc_bytes);
  plan.off_floats_ = off;
  off += align64(float_bytes);
  plan.slice_bytes_ = off;

#if BCOP_OBS
  // Resolve the telemetry slots for this plan shape once, here on the
  // allocating compile path, so the interpreter only dereferences.
  {
    std::string key = "b" + std::to_string(batch) + "_in";
    for (int d = 1; d < input.rank(); ++d) {
      if (d > 1) key += "x";
      key += std::to_string(input[d]);
    }
    // Truncated residual plans profile separately from the full-depth plan
    // of the same shape -- their per-stage costs differ by design.
    if (levels > 0) key += "_l" + std::to_string(levels);
    plan.obs_slots_ = obs::StageProfiler::global().slots_for(
        key, detail::kObsSlotNames, detail::kObsSlotCount);
  }
#endif
  return plan;
}

void Workspace::prepare(const ExecutionPlan& plan) {
  const std::size_t need = plan.arena_bytes();
  if (need <= capacity_) return;
  constexpr std::size_t kAlign = 64;
  raw_ = std::make_unique<std::byte[]>(need + kAlign - 1);
  void* p = raw_.get();
  std::size_t space = need + kAlign - 1;
  base_ = static_cast<std::byte*>(std::align(kAlign, need, p, space));
  capacity_ = need;
}

}  // namespace bcop::xnor
