// Plan interpreter. One body per step kind at every residual depth: the
// GEMM, pool and multi-level firing bodies are plane-generic
// (exec_residual.cpp), and a classic activation is their one-plane case.
// ALLOCATION-FREE ZONE: this file must not construct Tensor/BitMatrix/
// std::vector or call new/malloc -- every buffer is a Workspace arena
// slice at a plan-frozen offset, scratch lives in fixed-size stack tiles,
// and the one parallel fan-out per call uses ThreadPool::for_chunks
// (function pointer + context). Enforced by lint rule R6 and measured by
// tests/test_zero_alloc.cpp.
#include "xnor/exec.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "parallel/thread_pool.hpp"
#include "tensor/bit_span.hpp"
#include "tensor/kernels/kernel_api.hpp"
#include "util/check.hpp"
#include "xnor/exec_residual.hpp"

#if BCOP_OBS
// Telemetry is allowed in this file because recording is atomics-only:
// obs::LatencyHistogram::record and obs::now_ns never lock or allocate
// (rule R7 lints the record-path header for exactly that).
#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#endif

namespace bcop::xnor::detail {

using parallel::ThreadPool;
using tensor::BitSpan;
using tensor::ConstBitSpan;

namespace {

// ---- First conv: quantized pixels -> int32 accumulators. ----

struct FirstConvCtx {
  const float* q;  // one image's quantized pixel codes, HWC
  const FirstConvStage* st;
  std::int64_t w, c, wo;
};

// Eight float / int32 lanes (GCC vector extension). The backend lowers
// one to a single AVX register, or to two SSE ones. The helpers take
// vectors by reference: passing one by value has a target-dependent ABI.
using F8 = float __attribute__((vector_size(32)));
using I8 = std::int32_t __attribute__((vector_size(32)));

inline void load8(F8& v, const float* p) { std::memcpy(&v, p, sizeof v); }

/// p[0..8) = int32(v); exact, since v holds integers.
inline void store8(std::int32_t* p, const F8& v) {
  const I8 i = __builtin_convertvector(v, I8);
  std::memcpy(p, &i, sizeof i);
}

/// Accumulate output pixels [lo, hi) of one image, `CO` channels each,
/// into int32 rows out[(r - lo) * CO + j]. All arithmetic is exact: pixel
/// codes and +-1 weights are integers and |acc| <= K*255 << 2^24.
///
/// Four horizontally adjacent output pixels are computed together: they
/// share every weight load, and their input patches are the same span
/// shifted by `c`, so one broadcast-FMA sweep feeds four pixels. Channels
/// go 16 at a time, so the 4 x 16 accumulators are eight named vectors
/// that stay in registers across the whole K*K*Ci sweep; accumulator
/// arrays indexed inside an `omp simd` loop would round-trip through the
/// stack on every multiply-add instead.
template <int CO>
void first_conv_rows_fixed(const FirstConvCtx& t, std::int64_t lo,
                           std::int64_t hi, std::int32_t* out) {
  static_assert(CO % 16 == 0, "channels are walked 16 at a time");
  const float* wts = t.st->weights.data();
  const std::int64_t w = t.w, c = t.c, wo = t.wo;
  const std::int64_t k = t.st->k, kc = k * c;
  std::int64_t r = lo;
  while (r < hi) {
    const std::int64_t y = r / wo, x = r - y * wo;
    const float* base = t.q + (y * w + x) * c;
    std::int32_t* o = out + (r - lo) * CO;
    const int px = x + 4 <= wo && r + 4 <= hi ? 4 : 1;
    for (int j = 0; j < CO; j += 16) {
      F8 a0l{}, a0h{}, a1l{}, a1h{}, a2l{}, a2h{}, a3l{}, a3h{};
      for (std::int64_t ky = 0; ky < k; ++ky) {
        // For a fixed ky the (kx, c) patch span is contiguous in both the
        // quantized input and the [K*K*Ci, Co] weight matrix.
        const float* p = base + ky * w * c;
        const float* wr = wts + ky * kc * CO + j;
        if (px == 4) {
          for (std::int64_t i = 0; i < kc; ++i) {
            F8 wl, wh;
            load8(wl, wr + i * CO);
            load8(wh, wr + i * CO + 8);
            const float v0 = p[i], v1 = p[i + c];
            const float v2 = p[i + 2 * c], v3 = p[i + 3 * c];
            a0l += v0 * wl;
            a0h += v0 * wh;
            a1l += v1 * wl;
            a1h += v1 * wh;
            a2l += v2 * wl;
            a2h += v2 * wh;
            a3l += v3 * wl;
            a3h += v3 * wh;
          }
        } else {
          for (std::int64_t i = 0; i < kc; ++i) {
            F8 wl, wh;
            load8(wl, wr + i * CO);
            load8(wh, wr + i * CO + 8);
            a0l += p[i] * wl;
            a0h += p[i] * wh;
          }
        }
      }
      store8(o + j, a0l);
      store8(o + j + 8, a0h);
      if (px == 4) {
        store8(o + CO + j, a1l);
        store8(o + CO + j + 8, a1h);
        store8(o + 2 * CO + j, a2l);
        store8(o + 2 * CO + j + 8, a2h);
        store8(o + 3 * CO + j, a3l);
        store8(o + 3 * CO + j + 8, a3h);
      }
    }
    r += px;
  }
}

/// Generic-width variant: channels are walked in 256-lane stack tiles,
/// re-reading the input patch once per tile. Weight traffic is unchanged
/// and the accumulators stay on the stack for any channel count.
void first_conv_rows_any(const FirstConvCtx& t, std::int64_t lo,
                         std::int64_t hi, std::int32_t* out) {
  const float* wts = t.st->weights.data();
  const std::int64_t w = t.w, c = t.c, wo = t.wo;
  const std::int64_t k = t.st->k, co = t.st->co, kc = k * c;
  constexpr std::int64_t kTile = 256;
  float acc[kTile];
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int64_t y = r / wo, x = r - y * wo;
    for (std::int64_t c0 = 0; c0 < co; c0 += kTile) {
      const std::int64_t cn = std::min(kTile, co - c0);
#pragma omp simd
      for (std::int64_t j = 0; j < cn; ++j) acc[j] = 0.f;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const float* p = t.q + ((y + ky) * w + x) * c;
        const float* wrow = wts + ky * kc * co + c0;
        for (std::int64_t i = 0; i < kc; ++i) {
          const float a = p[i];
          const float* wr = wrow + i * co;
#pragma omp simd
          for (std::int64_t j = 0; j < cn; ++j) acc[j] += a * wr[j];
        }
      }
      std::int32_t* o = out + (r - lo) * co + c0;
#pragma omp simd
      for (std::int64_t j = 0; j < cn; ++j)
        o[j] = static_cast<std::int32_t>(acc[j]);
    }
  }
}

void first_conv_rows(const FirstConvCtx& t, std::int64_t lo, std::int64_t hi,
                     std::int32_t* out) {
  switch (t.st->co) {
    case 16:
      first_conv_rows_fixed<16>(t, lo, hi, out);
      break;
    case 64:
      first_conv_rows_fixed<64>(t, lo, hi, out);
      break;
    default:
      first_conv_rows_any(t, lo, hi, out);
  }
}

// ---- Telemetry: one histogram slot per step, sub-phase and call. ----

#if BCOP_OBS
using Slots = obs::StageSlots;
#else
struct Slots {};
#endif

/// Records the time from construction to destruction into one slot of
/// `slots`; a null `slots` (not recording) costs one branch.
class SlotTimer {
 public:
#if BCOP_OBS
  SlotTimer(const Slots* slots, int slot)
      : slots_(slots),
        slot_(slot),
        t0_(slots != nullptr ? obs::now_ns() : 0) {}
  ~SlotTimer() {
    if (slots_ != nullptr)
      slots_->slot_ns[slot_]->record(obs::now_ns() - t0_);
  }

 private:
  const Slots* slots_;
  int slot_;
  std::uint64_t t0_;
#else
  SlotTimer(const Slots*, int) {}
#endif
};

/// Records `ns` into one slot of `slots` (null: not recording).
void record(const Slots* slots, int slot, std::uint64_t ns) {
#if BCOP_OBS
  if (slots != nullptr) slots->slot_ns[slot]->record(ns);
#else
  (void)slots, (void)slot, (void)ns;
#endif
}

// ---- One image's arena slice and the chunk that replays images. ----

/// The arena regions and caller buffers of one image.
struct Slice {
  std::uint64_t* half[2];
  std::uint64_t* patch;
  std::int32_t* acc;
  float* floats;
  const float* in;
  float* out;
};

/// Everything a replay chunk reads: the plan, the caller's buffers, and
/// the telemetry decision made once per call.
struct Replay {
  const ExecutionPlan* plan;
  const std::vector<Stage>* stages;
  const float* input;
  float* out;
  std::byte* arena;
  const Slots* slots = nullptr;  // null unless this call records

  Slice slice(std::int64_t img) const {
    std::byte* b = arena + static_cast<std::size_t>(img) * plan->slice_bytes();
    return {{reinterpret_cast<std::uint64_t*>(b + plan->half_offset(0)),
             reinterpret_cast<std::uint64_t*>(b + plan->half_offset(1))},
            reinterpret_cast<std::uint64_t*>(b + plan->patch_offset()),
            reinterpret_cast<std::int32_t*>(b + plan->acc_offset()),
            reinterpret_cast<float*>(b + plan->float_offset()),
            input + img * plan->image_inputs(),
            out + img * plan->image_outputs()};
  }
};

/// Fire accumulator rows [r, r + n) of a step into its output planes;
/// `acc` starts at row r. The one selection by plane count left in the
/// interpreter: a single output plane fires through the frozen tier
/// threshold kernel, deeper outputs through the pattern banks.
void fire(const ExecutionPlan& plan, const PlanStep& st,
          const std::int32_t* acc, const Slice& s, std::int64_t r,
          std::int64_t n) {
  std::uint64_t* dst = s.half[st.dst_half] + r * st.out_wpr;
  if (st.levels_out > 1) {
    residual_fire(plan, st, acc, dst, n);
    return;
  }
  const PreparedThresholds& prep = plan.prep(st.prep);
  tensor::kernels::ThreshCtx ctx{acc, prep.thr.data(), prep.inv.data(),
                                 BitSpan{dst, n, st.out_cols, st.out_wpr}};
  st.thresh_fn(&ctx, 0, n);
}

/// Entry step of one image: quantize its pixels, then accumulate the first
/// conv up to one output row at a time into a stack tile and fire the tile
/// as it goes.
void first_conv(const ExecutionPlan& plan, const PlanStep& st,
                const FirstConvStage& fc, const Slice& s) {
  // Recover the integer pixel codes (pixels are odd k'/255, see
  // facegen::MaskedFaceDataset::quantize_pixel).
  const std::int64_t numel = st.h * st.w * st.c;
  for (std::int64_t j = 0; j < numel; ++j)
    s.floats[j] = std::nearbyint(s.in[j] * 255.f);
  const FirstConvCtx t{s.floats, &fc, st.w, st.c, st.wo};
  std::int32_t tile[kFirstConvTile];
  const std::int64_t px = std::min(st.wo, kFirstConvTile / st.co);
  for (std::int64_t y = 0; y < st.ho; ++y)
    for (std::int64_t x = 0; x < st.wo; x += px) {
      const std::int64_t r = y * st.wo + x;
      const std::int64_t nr = std::min(px, st.wo - x);
      first_conv_rows(t, r, r + nr, tile);
      fire(plan, st, tile, s, r, nr);
    }
}

/// Every step but kBinConv, on one image.
void run_step(const ExecutionPlan& plan, const std::vector<Stage>& stages,
              const PlanStep& st, const Slice& s) {
  switch (st.kind) {
    case StepKind::kFirstConv: {
      // get_if, not get: the throwing std::get drags
      // __cxa_throw/__cxa_allocate_exception/operator delete references
      // into this TU (visible to scripts/audit_hot_path.py), and a kind
      // mismatch here is a plan-compiler bug, not a recoverable error.
      const auto* fc =
          std::get_if<FirstConvStage>(&stages[static_cast<std::size_t>(st.stage)]);
      BCOP_CHECK(fc != nullptr, "plan step %lld: stage is not a FirstConvStage",
                 static_cast<long long>(st.stage));
      first_conv(plan, st, *fc, s);
      break;
    }
    case StepKind::kPackInput:
      tensor::pack_rows(s.in, st.out_rows, st.out_cols,
                        {s.half[st.dst_half], st.out_rows, st.out_cols,
                         st.out_wpr});
      break;
    case StepKind::kBinConv:  // replayed phase by phase in replay_chunk
      break;
    case StepKind::kPool:
      residual_pool(st, s.half[st.src_half], s.half[st.dst_half]);
      break;
    case StepKind::kFlatten:
      // Flatten is a per-plane bit permutation: one kernel call per plane
      // at shifted bases.
      for (std::int64_t m = 0; m < st.levels_in; ++m) {
        const ConstBitSpan src{s.half[st.src_half] + m * st.in_rows * st.in_wpr,
                               st.in_rows, st.in_cols, st.in_wpr};
        const BitSpan dst{s.half[st.dst_half] + m * st.out_rows * st.out_wpr,
                          st.out_rows, st.out_cols, st.out_wpr};
        tensor::flatten_pixels(src, 1, st.h * st.w, st.c, dst);
      }
      break;
    case StepKind::kBinDense:
      residual_gemm(plan, st, s.half[st.src_half], nullptr, s.acc);
      fire(plan, st, s.acc, s, 0, st.out_rows);
      break;
    case StepKind::kLogits:
      // A = 256 * y for scaled inputs; out_scale (1/256) undoes it
      // exactly -- every logit is a multiple of 2^-8 far below 2^24.
      residual_gemm(plan, st, s.half[st.src_half], nullptr, s.acc);
      for (std::int64_t j = 0; j < st.acc_len; ++j)
        s.out[j] = static_cast<float>(s.acc[j]) * st.out_scale;
      break;
    case StepKind::kUnpack:
      // Sum of signed per-plane values: g_m/256 for a scaled plane (exact
      // dyadic floats, any summation order), 1 for an unscaled one.
      for (std::int64_t r = 0; r < st.in_rows; ++r) {
        float* o = s.out + r * st.in_cols;
        for (std::int64_t j = 0; j < st.in_cols; ++j) o[j] = 0.f;
        for (std::int64_t m = 0; m < st.levels_in; ++m) {
          const std::uint64_t* row =
              s.half[st.src_half] + (m * st.in_rows + r) * st.in_wpr;
          const float q =
              st.in_scaled
                  ? static_cast<float>(st.in_scale_bits[m]) * (1.f / 256.f)
                  : 1.f;
          for (std::int64_t j = 0; j < st.in_cols; ++j)
            o[j] += ((row[j >> 6] >> (j & 63)) & 1ull) ? q : -q;
        }
      }
      break;
  }
}

/// Chunk body of the single fan-out: replay every plan step over images
/// [lo, hi), steps outer and images inner. Images own disjoint arena
/// slices, so no barrier separates the steps. A binary conv runs as two
/// phases over every image of the chunk: the block loop (gather + GEMM),
/// then the firing pass. Only the chunk holding image 0 records: one
/// sample per step and sub-phase per call, timed over that chunk's
/// images; the conv's gather and GEMM samples are the clock sums of its
/// blocks.
void replay_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const Replay& rp = *static_cast<const Replay*>(raw);
  const ExecutionPlan& plan = *rp.plan;
  const Slots* slots = lo == 0 ? rp.slots : nullptr;
  // Run `body` on every image of the chunk, timed into `slot`.
  auto phase = [&](int slot, auto&& body) {
    const SlotTimer timer(slots, slot);
    for (std::int64_t i = lo; i < hi; ++i) body(rp.slice(i));
  };
  for (const PlanStep& st : plan.steps()) {
    if (st.kind != StepKind::kBinConv) {
      phase(static_cast<int>(st.kind), [&](const Slice& s) {
        run_step(plan, *rp.stages, st, s);
      });
      continue;
    }
    const SlotTimer step(slots, static_cast<int>(st.kind));
    GemmPhaseNs ns;
    for (std::int64_t i = lo; i < hi; ++i) {
      const Slice s = rp.slice(i);
      residual_gemm(plan, st, s.half[st.src_half], s.patch, s.acc,
                    slots != nullptr ? &ns : nullptr);
    }
    record(slots, kObsSlotIm2row, ns.gather);
    record(slots, kObsSlotGemm, ns.gemm);
    phase(kObsSlotThresholds, [&](const Slice& s) {
      fire(plan, st, s.acc, s, 0, st.out_rows);
    });
  }
}

}  // namespace

void execute(const ExecutionPlan& plan, const std::vector<Stage>& stages,
             const float* input, Workspace& ws, float* out) {
  BCOP_CHECK(ws.capacity() >= plan.arena_bytes(),
             "workspace holds %zu bytes but the plan needs %zu -- call "
             "Workspace::prepare(plan) first",
             ws.capacity(), plan.arena_bytes());
  Replay rp{&plan, &stages, input, out, ws.base()};
#if BCOP_OBS
  // One flag read per call; when recording, each step adds two clock
  // reads and one relaxed fetch_add -- measured at < 1% of the replay
  // (docs/observability.md), far below the coarse step kernels it brackets.
  if (plan.obs_slots() != nullptr && obs::StageProfiler::global().enabled()) {
    rp.slots = plan.obs_slots();
    rp.slots->replays->add(1);
  }
#endif
  const SlotTimer call(rp.slots, kObsSlotExecute);
  // The only fan-out of the call. A one-image range runs inline on the
  // caller (for_chunks never wakes the pool for a single chunk).
  ThreadPool::global().for_chunks(0, plan.batch(), &replay_chunk, &rp);
}

}  // namespace bcop::xnor::detail
