// Plan interpreter. ALLOCATION-FREE ZONE: this file must not construct
// Tensor/BitMatrix/std::vector or call new/malloc -- every buffer is a
// Workspace arena slice at a plan-frozen offset, scratch lives in
// fixed-size stack tiles, and parallel fan-out uses ThreadPool::for_chunks
// (function pointer + context). Enforced by lint rule R6 and measured by
// tests/test_zero_alloc.cpp.
#include "xnor/exec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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

// ---- Plan-frozen kernel replay (GEMM / thresholds / im2row). ----
//
// The kernel bodies live in src/tensor/kernels/ (scalar + SIMD tiers);
// compile() froze one tier's chunk pointers into every step. Replay is a
// ctx fill plus a pool fan-out -- no tier branch, no dispatch lookup.

void run_gemm(const PlanStep& st, ConstBitSpan a, const std::uint64_t* bt,
              std::int32_t* acc) {
  tensor::kernels::GemmCtx ctx{a, bt, st.co, acc};
  ThreadPool::global().for_chunks(0, a.rows, st.gemm_fn, &ctx);
}

void fire_thresholds(const PlanStep& st, const std::int32_t* acc,
                     const PreparedThresholds& prep, BitSpan out) {
  tensor::kernels::ThreshCtx ctx{acc, prep.thr.data(), prep.inv.data(), out};
  ThreadPool::global().for_chunks(0, out.rows, st.thresh_fn, &ctx);
}

void run_im2row(const PlanStep& st, ConstBitSpan pixels, BitSpan rows) {
  // Geometry was validated when the plan was compiled, so the frozen chunk
  // function is driven directly (the tensor::bit_im2row wrapper would
  // re-check and re-resolve the dispatch tier on every replay).
  tensor::kernels::Im2RowCtx ctx{pixels, rows, st.h,  st.w,
                                 st.c,   st.k, st.ho, st.wo};
  ThreadPool::global().for_chunks(0, rows.rows, st.im2row_fn, &ctx);
}

/// Threshold a residual GEMM step: one output plane fires bank 0 through
/// the frozen kernel, more fire the pattern banks (exec_residual.cpp)
/// into consecutive planes from dst.data.
void fire_residual(const ExecutionPlan& plan, const PlanStep& st,
                   const std::int32_t* acc, BitSpan dst) {
  if (st.levels_out == 1)
    fire_thresholds(st, acc, plan.prep(st.prep), dst);
  else
    residual_fire(plan, st, acc, dst.data);
}

// ---- Fused first conv: quantized pixels -> conv -> threshold -> bits. ----

struct FirstConvCtx {
  const float* q;  // quantized pixel codes, NHWC
  const FirstConvStage* st;
  const std::int32_t* thr;
  const std::int32_t* inv;
  std::int64_t h, w, c, ho, wo;
  BitSpan out;
  std::int32_t* acc;  // residual entry: int32 accumulators, [rows, co]
};

/// Epilogue of one output pixel's CO accumulators: fire the folded
/// thresholds into its packed word (classic entry), or store them as int32
/// for the residual pattern banks (kStoreAcc). Thresholds arrive in
/// PreparedThresholds form (thr/inv) so firing is a branch-free compare
/// the vectorizer folds into a mask; a branchy per-channel `if` here costs
/// more than the convolution itself.
template <int CO, bool kStoreAcc>
inline void first_conv_emit(const FirstConvCtx& t, const std::int32_t* thr,
                            const std::int32_t* inv, std::int64_t r,
                            const float* acc) {
  if constexpr (kStoreAcc) {
    std::int32_t* o = t.acc + r * CO;
#pragma omp simd
    for (int j = 0; j < CO; ++j) o[j] = static_cast<std::int32_t>(acc[j]);
  } else {
    std::uint64_t bits = 0;
#pragma omp simd reduction(| : bits)
    for (int j = 0; j < CO; ++j)
      bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  (static_cast<std::int32_t>(acc[j]) >= thr[j]) ^ inv[j]))
              << j;
    t.out.row(r)[0] = bits;
  }
}

/// Row kernel for the first conv: accumulate output pixels' `CO` channels
/// with the accumulators held in fixed-size local arrays the compiler
/// keeps in vector registers, then hand each pixel to the epilogue. All
/// arithmetic is exact: pixel codes and +-1 weights are integers and
/// |acc| <= K*255 << 2^24.
///
/// Four horizontally adjacent output pixels are computed together: they
/// share every weight load, and their input patches are the same span
/// shifted by `c`, so one broadcast-FMA sweep feeds four accumulator
/// vectors. The `omp simd` hints are required -- without them GCC leaves
/// the channel loop scalar ("complicated access pattern") and the first
/// conv dominates the whole batched forward.
template <int CO, bool kStoreAcc>
void first_conv_rows_fixed(const FirstConvCtx& t, std::int64_t lo,
                           std::int64_t hi) {
  static_assert(CO <= 64, "fixed kernel emits one 64-bit word per pixel");
  const float* q = t.q;
  const std::int32_t* thr = t.thr;
  const std::int32_t* inv = t.inv;
  const float* wts = t.st->weights.data();
  const std::int64_t h = t.h, w = t.w, c = t.c, ho = t.ho, wo = t.wo;
  const std::int64_t k = t.st->k, kc = k * c;
  std::int64_t r = lo;
  while (r < hi) {
    const std::int64_t img = r / (ho * wo);
    const std::int64_t rem = r - img * ho * wo;
    const std::int64_t y = rem / wo, x = rem - y * wo;
    const float* base = q + (((img * h) + y) * w + x) * c;
    if (x + 4 <= wo && r + 4 <= hi) {
      float acc[4][CO] = {};
      for (std::int64_t ky = 0; ky < k; ++ky) {
        // For a fixed ky the (kx, c) patch span is contiguous in both the
        // quantized input and the [K*K*Ci, Co] weight matrix.
        const float* p = base + ky * w * c;
        const float* wrow = wts + ky * kc * CO;
        for (std::int64_t i = 0; i < kc; ++i) {
          const float* wr = wrow + i * CO;
          const float a0 = p[i], a1 = p[i + c];
          const float a2 = p[i + 2 * c], a3 = p[i + 3 * c];
#pragma omp simd
          for (int j = 0; j < CO; ++j) {
            acc[0][j] += a0 * wr[j];
            acc[1][j] += a1 * wr[j];
            acc[2][j] += a2 * wr[j];
            acc[3][j] += a3 * wr[j];
          }
        }
      }
      for (int m = 0; m < 4; ++m)
        first_conv_emit<CO, kStoreAcc>(t, thr, inv, r + m, acc[m]);
      r += 4;
    } else {
      float acc[CO] = {};
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const float* p = base + ky * w * c;
        const float* wrow = wts + ky * kc * CO;
        for (std::int64_t i = 0; i < kc; ++i) {
          const float a = p[i];
          const float* wr = wrow + i * CO;
#pragma omp simd
          for (int j = 0; j < CO; ++j) acc[j] += a * wr[j];
        }
      }
      first_conv_emit<CO, kStoreAcc>(t, thr, inv, r, acc);
      ++r;
    }
  }
}

/// Generic-width variant: channels are walked in 256-lane stack tiles
/// (word-aligned, so each tile fires whole output words), re-reading the
/// input patch once per tile. Weight traffic is unchanged and the
/// accumulators stay on the stack, keeping the kernel allocation-free for
/// any channel count.
template <bool kStoreAcc>
void first_conv_rows_any(const FirstConvCtx& t, std::int64_t lo,
                         std::int64_t hi) {
  const float* q = t.q;
  const float* wts = t.st->weights.data();
  const std::int64_t h = t.h, w = t.w, c = t.c, ho = t.ho, wo = t.wo;
  const std::int64_t k = t.st->k, co = t.st->co, kc = k * c;
  constexpr std::int64_t kTile = 256;
  float acc[kTile];
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int64_t img = r / (ho * wo);
    const std::int64_t rem = r - img * ho * wo;
    const std::int64_t y = rem / wo, x = rem - y * wo;
    for (std::int64_t c0 = 0; c0 < co; c0 += kTile) {
      const std::int64_t cn = std::min(kTile, co - c0);
#pragma omp simd
      for (std::int64_t j = 0; j < cn; ++j) acc[j] = 0.f;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const float* p = q + (((img * h) + y + ky) * w + x) * c;
        const float* wrow = wts + ky * kc * co + c0;
        for (std::int64_t i = 0; i < kc; ++i) {
          const float a = p[i];
          const float* wr = wrow + i * co;
#pragma omp simd
          for (std::int64_t j = 0; j < cn; ++j) acc[j] += a * wr[j];
        }
      }
      if constexpr (kStoreAcc) {
        std::int32_t* o = t.acc + r * co + c0;
#pragma omp simd
        for (std::int64_t j = 0; j < cn; ++j)
          o[j] = static_cast<std::int32_t>(acc[j]);
      } else {
        std::uint64_t* dst = t.out.row(r);
        for (std::int64_t word = 0; word * 64 < cn; ++word) {
          const std::int64_t base = word * 64;
          const std::int64_t nb = std::min<std::int64_t>(64, cn - base);
          const float* ab = acc + base;
          const std::int32_t* tp = t.thr + c0 + base;
          const std::int32_t* ip = t.inv + c0 + base;
          std::uint64_t bits = 0;
#pragma omp simd reduction(| : bits)
          for (std::int64_t i = 0; i < nb; ++i)
            bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        (static_cast<std::int32_t>(ab[i]) >= tp[i]) ^ ip[i]))
                    << i;
          dst[(c0 >> 6) + word] = bits;
        }
      }
    }
  }
}

template <bool kStoreAcc>
void first_conv_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const FirstConvCtx& t = *static_cast<const FirstConvCtx*>(raw);
  switch (t.st->co) {
    case 16:
      first_conv_rows_fixed<16, kStoreAcc>(t, lo, hi);
      break;
    case 64:
      first_conv_rows_fixed<64, kStoreAcc>(t, lo, hi);
      break;
    default:
      first_conv_rows_any<kStoreAcc>(t, lo, hi);
  }
}

/// First conv of a residual entry stage: the same kernels with the int32
/// store epilogue instead of firing -- M > 1 firing needs every output
/// channel of a pixel at once, so residual_fire runs the pattern banks
/// over the stored accumulators (acc[r * co + j]).
void residual_first_conv(const PlanStep& st, const FirstConvStage& fc,
                         const float* q, std::int32_t* acc) {
  FirstConvCtx ctx{q,     &fc,   nullptr, nullptr,   st.h, st.w,
                   st.c,  st.ho, st.wo,   BitSpan{}, acc};
  ThreadPool::global().for_chunks(0, st.out_rows, &first_conv_chunk<true>,
                                  &ctx);
}

}  // namespace

void execute(const ExecutionPlan& plan, const std::vector<Stage>& stages,
             const float* input, Workspace& ws, float* out) {
  BCOP_CHECK(ws.capacity() >= plan.arena_bytes(),
             "workspace holds %zu bytes but the plan needs %zu -- call "
             "Workspace::prepare(plan) first",
             ws.capacity(), plan.arena_bytes());
  std::byte* base = ws.base();
  std::uint64_t* half[2] = {
      reinterpret_cast<std::uint64_t*>(base + plan.half_offset(0)),
      reinterpret_cast<std::uint64_t*>(base + plan.half_offset(1))};
  std::uint64_t* patch =
      reinterpret_cast<std::uint64_t*>(base + plan.patch_offset());
  std::int32_t* acc = reinterpret_cast<std::int32_t*>(base + plan.acc_offset());
  float* fscratch = reinterpret_cast<float*>(base + plan.float_offset());

#if BCOP_OBS
  // One flag read per replay; when recording, each step adds two clock
  // reads and one relaxed fetch_add -- measured at < 1% of the replay
  // (docs/observability.md), far below the coarse step kernels it brackets.
  const obs::StageSlots* slots = plan.obs_slots();
  const bool profile = slots != nullptr && obs::StageProfiler::global().enabled();
  const std::uint64_t t_exec = profile ? obs::now_ns() : 0;
  if (profile) slots->replays->add(1);
#endif

  for (const PlanStep& st : plan.steps()) {
    const ConstBitSpan src =
        st.src_half >= 0
            ? ConstBitSpan{half[st.src_half], st.in_rows, st.in_cols, st.in_wpr}
            : ConstBitSpan{};
    const BitSpan dst =
        st.dst_half >= 0
            ? BitSpan{half[st.dst_half], st.out_rows, st.out_cols, st.out_wpr}
            : BitSpan{};
#if BCOP_OBS
    const std::uint64_t t_step = profile ? obs::now_ns() : 0;
#endif
    switch (st.kind) {
      case StepKind::kFirstConv: {
        // get_if, not get: the throwing std::get drags
        // __cxa_throw/__cxa_allocate_exception/operator delete references
        // into this TU (visible to scripts/audit_hot_path.py), and a kind
        // mismatch here is a plan-compiler bug, not a recoverable error.
        const auto* fcp =
            std::get_if<FirstConvStage>(&stages[static_cast<std::size_t>(st.stage)]);
        BCOP_CHECK(fcp != nullptr,
                   "plan step %lld: stage is not a FirstConvStage",
                   static_cast<long long>(st.stage));
        const auto& fc = *fcp;
        // Recover the integer pixel codes (pixels are odd k'/255, see
        // facegen::MaskedFaceDataset::quantize_pixel).
        const std::int64_t numel = st.n * st.h * st.w * st.c;
        for (std::int64_t j = 0; j < numel; ++j)
          fscratch[j] = std::nearbyint(input[j] * 255.f);
        if (st.levels_out == 1) {
          const PreparedThresholds& prep = plan.prep(st.prep);
          FirstConvCtx ctx{fscratch, &fc,   prep.thr.data(), prep.inv.data(),
                           st.h,     st.w,  st.c,            st.ho,
                           st.wo,    dst,   nullptr};
          ThreadPool::global().for_chunks(0, st.out_rows,
                                          &first_conv_chunk<false>, &ctx);
        } else {
          // Residual entry: materialize the integer accumulators, then
          // fire the pattern banks (exec_residual.cpp).
          residual_first_conv(st, fc, fscratch, acc);
          residual_fire(plan, st, acc, half[st.dst_half]);
        }
        break;
      }
      case StepKind::kPackInput:
        tensor::pack_rows(input, st.out_rows, st.out_cols, dst);
        break;
      case StepKind::kBinConv: {
        if (st.levels_in > 1 || st.in_scaled || st.levels_out > 1) {
          // Residual stream on either side: plane-fused gather + GEMM and
          // pattern-bank firing (exec_residual.cpp). The classic path
          // below stays untouched for single-plane unscaled streams.
#if BCOP_OBS
          // The gather runs inside the GEMM chunks, so a residual step
          // splits into binary_gemm and thresholds only.
          const std::uint64_t ta = profile ? obs::now_ns() : 0;
          residual_gemm(plan, st, half[st.src_half], patch, acc);
          const std::uint64_t tb = profile ? obs::now_ns() : 0;
          fire_residual(plan, st, acc, dst);
          if (profile) {
            const std::uint64_t tc = obs::now_ns();
            slots->slot_ns[kObsSlotGemm]->record(tb - ta);
            slots->slot_ns[kObsSlotThresholds]->record(tc - tb);
          }
#else
          residual_gemm(plan, st, half[st.src_half], patch, acc);
          fire_residual(plan, st, acc, dst);
#endif
          break;
        }
        const BitSpan rows{patch, st.patch_rows, st.patch_cols, st.patch_wpr};
#if BCOP_OBS
        // Sub-phase split of the conv step: where does a binary conv
        // spend its time -- patch gather, XNOR GEMM, or threshold firing.
        const std::uint64_t ta = profile ? obs::now_ns() : 0;
        run_im2row(st, src, rows);
        const std::uint64_t tb = profile ? obs::now_ns() : 0;
        run_gemm(st, rows, plan.wmat(st.wmat), acc);
        const std::uint64_t tc = profile ? obs::now_ns() : 0;
        fire_thresholds(st, acc, plan.prep(st.prep), dst);
        if (profile) {
          const std::uint64_t td = obs::now_ns();
          slots->slot_ns[kObsSlotIm2row]->record(tb - ta);
          slots->slot_ns[kObsSlotGemm]->record(tc - tb);
          slots->slot_ns[kObsSlotThresholds]->record(td - tc);
        }
#else
        run_im2row(st, src, rows);
        run_gemm(st, rows, plan.wmat(st.wmat), acc);
        fire_thresholds(st, acc, plan.prep(st.prep), dst);
#endif
        break;
      }
      case StepKind::kPool:
        if (st.levels_in == 1)
          tensor::pool2_bits(src, st.n, st.h, st.w, dst);
        else
          residual_pool(st, half[st.src_half], half[st.dst_half]);
        break;
      case StepKind::kFlatten:
        // Flatten is a per-plane bit permutation, so the residual case is
        // the classic kernel replayed once per plane at shifted bases.
        for (std::int64_t m = 0; m < st.levels_in; ++m) {
          const ConstBitSpan s{half[st.src_half] + m * st.in_rows * st.in_wpr,
                               st.in_rows, st.in_cols, st.in_wpr};
          const BitSpan d{half[st.dst_half] + m * st.out_rows * st.out_wpr,
                          st.out_rows, st.out_cols, st.out_wpr};
          tensor::flatten_pixels(s, st.n, st.h * st.w, st.c, d);
        }
        break;
      case StepKind::kBinDense:
        if (st.levels_in > 1 || st.in_scaled || st.levels_out > 1) {
          residual_gemm(plan, st, half[st.src_half], nullptr, acc);
          fire_residual(plan, st, acc, dst);
          break;
        }
        run_gemm(st, src, plan.wmat(st.wmat), acc);
        fire_thresholds(st, acc, plan.prep(st.prep), dst);
        break;
      case StepKind::kLogits:
        if (st.levels_in > 1 || st.in_scaled) {
          // A = 256 * y for scaled inputs; out_scale (1/256) undoes it
          // exactly -- every logit is a multiple of 2^-8 far below 2^24.
          residual_gemm(plan, st, half[st.src_half], nullptr, acc);
          for (std::int64_t j = 0; j < st.acc_len; ++j)
            out[j] = static_cast<float>(acc[j]) * st.out_scale;
          break;
        }
        run_gemm(st, src, plan.wmat(st.wmat), acc);
        for (std::int64_t j = 0; j < st.acc_len; ++j)
          out[j] = static_cast<float>(acc[j]);
        break;
      case StepKind::kUnpack:
        if (st.levels_in == 1 && !st.in_scaled) {
          for (std::int64_t r = 0; r < st.in_rows; ++r) {
            const std::uint64_t* row = src.row(r);
            float* o = out + r * st.in_cols;
            for (std::int64_t j = 0; j < st.in_cols; ++j)
              o[j] = ((row[j >> 6] >> (j & 63)) & 1ull) ? 1.f : -1.f;
          }
        } else {
          // Residual reconstruction: sum of signed per-plane values
          // g_m/256 (exact dyadic floats, any summation order).
          for (std::int64_t r = 0; r < st.in_rows; ++r) {
            float* o = out + r * st.in_cols;
            for (std::int64_t j = 0; j < st.in_cols; ++j) o[j] = 0.f;
            for (std::int64_t m = 0; m < st.levels_in; ++m) {
              const std::uint64_t* row = half[st.src_half] +
                                         m * st.in_rows * st.in_wpr +
                                         r * st.in_wpr;
              const float q =
                  static_cast<float>(st.in_scale_bits[m]) * (1.f / 256.f);
              for (std::int64_t j = 0; j < st.in_cols; ++j)
                o[j] += ((row[j >> 6] >> (j & 63)) & 1ull) ? q : -q;
            }
          }
        }
        break;
    }
#if BCOP_OBS
    if (profile)
      slots->slot_ns[static_cast<int>(st.kind)]->record(obs::now_ns() -
                                                        t_step);
#endif
  }
#if BCOP_OBS
  if (profile)
    slots->slot_ns[kObsSlotExecute]->record(obs::now_ns() - t_exec);
#endif
}

}  // namespace bcop::xnor::detail
