// Plane-generic interpreter steps. ALLOCATION-FREE ZONE: same contract as
// exec.cpp -- no Tensor/BitMatrix/std::vector construction, no new/malloc;
// buffers are Workspace arena slices at plan-frozen offsets, scratch is
// fixed-size stack tiles. Every function here runs serially over one
// image's rows: detail::execute's per-image fan-out is the only
// parallelism, and lint rule R9 keeps the thread pool out of this TU.
// Enforced by lint rules R6/R9 and scripts/audit_hot_path.py, measured by
// tests/test_zero_alloc.cpp at every level cap.
#include "xnor/exec_residual.hpp"

#include <algorithm>
#include <cstdint>

#include "tensor/bit_span.hpp"
#include "tensor/kernels/kernel_api.hpp"
#include "util/check.hpp"

#if BCOP_OBS
#include "obs/metrics.hpp"  // now_ns: one steady_clock read, lock-free
#endif

namespace bcop::xnor::detail {

using tensor::BitSpan;
using tensor::ConstBitSpan;

namespace {

// ---- Pattern-bank threshold firing: int32 accumulators -> levels_out
// packed planes, row by row. ----

struct ResidualFireCtx {
  const std::int32_t* acc;
  const std::int32_t* thr[7];  // bank b = (1 << m) - 1 + pattern
  const std::int32_t* inv[7];
  std::uint64_t* dst;  // plane 0 of the first row
  std::int64_t cols, wpr, plane_words;
};

/// L-level firing, L in {2, 3}. Level m's threshold and flip flag come
/// from its 2^m pattern banks by selects on the bits levels 0..m-1 already
/// fired, so each level costs one compare, with no per-channel branch and
/// no indexed gather, and the channel loop vectorizes like the tier
/// threshold kernels.
template <int L>
void fire_rows(const ResidualFireCtx& t, std::int64_t rows) {
  static_assert(L == 2 || L == 3, "one level fires through thresh_fn");
  constexpr int kBanks = (1 << L) - 1;
  const std::int64_t cols = t.cols, wpr = t.wpr;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t* arow = t.acc + r * cols;
    for (std::int64_t wd = 0; wd < wpr; ++wd) {
      const std::int64_t base = wd * 64;
      const std::int64_t nb = std::min<std::int64_t>(64, cols - base);
      const std::int32_t* a = arow + base;
      const std::int32_t* thr[kBanks];
      const std::int32_t* inv[kBanks];
      for (int b = 0; b < kBanks; ++b) {
        thr[b] = t.thr[b] + base;
        inv[b] = t.inv[b] + base;
      }
      std::uint64_t w0 = 0, w1 = 0, w2 = 0;
#pragma omp simd reduction(| : w0, w1, w2)
      for (std::int64_t i = 0; i < nb; ++i) {
        std::int32_t tv[kBanks], iv[kBanks];
        for (int b = 0; b < kBanks; ++b) {
          tv[b] = thr[b][i];
          iv[b] = inv[b][i];
        }
        const std::int32_t x = a[i];
        // b_m = (x >= thr) ^ inv under bank (1 << m) - 1 + pattern.
        const std::int32_t b0 = (x >= tv[0]) ^ iv[0];
        const std::int32_t b1 =
            (x >= (b0 ? tv[2] : tv[1])) ^ (b0 ? iv[2] : iv[1]);
        w0 |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(b0)) << i;
        w1 |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(b1)) << i;
        if constexpr (L == 3) {
          const std::int32_t t2 =
              b1 ? (b0 ? tv[6] : tv[5]) : (b0 ? tv[4] : tv[3]);
          const std::int32_t i2 =
              b1 ? (b0 ? iv[6] : iv[5]) : (b0 ? iv[4] : iv[3]);
          const std::int32_t b2 = (x >= t2) ^ i2;
          w2 |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(b2))
                << i;
        }
      }
      // Full-word stores: slack bits beyond `cols` come out zero, keeping
      // the trailing-bits invariant on reused arena rows.
      std::uint64_t* d = t.dst + r * wpr + wd;
      d[0] = w0;
      d[t.plane_words] = w1;
      if constexpr (L == 3) d[2 * t.plane_words] = w2;
    }
  }
}

/// The profiler's clock where telemetry is built in; the block loop
/// reads it only when its call records.
std::uint64_t clock_ns() {
#if BCOP_OBS
  return obs::now_ns();
#else
  return 0;
#endif
}

/// Adds the time since `t` to `sum` and moves `t` to now.
void lap(std::uint64_t& sum, std::uint64_t& t) {
  const std::uint64_t now = clock_ns();
  sum += now - t;
  t = now;
}

}  // namespace

void residual_gemm(const ExecutionPlan& plan, const PlanStep& st,
                   const std::uint64_t* src, std::uint64_t* patch,
                   std::int32_t* acc, GemmPhaseNs* ns) {
  const ConstBitSpan in{src, st.in_rows, st.in_cols, st.in_wpr};
  const std::int64_t in_plane = st.in_rows * st.in_wpr;
  tensor::kernels::GemmCtx gemm{in, plan.wmat(st.wmat), st.co, acc};
  if (st.in_scaled) {
    gemm.planes = st.levels_in;
    for (std::int64_t m = 0; m < st.levels_in; ++m)
      gemm.scale[m] = st.in_scale_bits[m];
  }
  if (st.kind != StepKind::kBinConv) {
    gemm.plane_stride = in_plane;
    st.gemm_fn(&gemm, 0, st.in_rows);
    return;
  }
  // Conv: the GEMM reads the patch region, plane m at row m * patch_rows
  // (compile() sized it for levels_in planes). Patch rows of every plane
  // are gathered a block at a time, so the GEMM reads them while they are
  // still in L1; a block holds kGatherBlockWords patch words (16 KiB) --
  // large enough to amortize the kernel calls.
  constexpr std::int64_t kGatherBlockWords = 2048;
  const BitSpan rows{patch, st.patch_rows, st.patch_cols, st.patch_wpr};
  gemm.a = rows;
  gemm.plane_stride = st.patch_rows * st.patch_wpr;
  const std::int64_t block = std::max<std::int64_t>(
      1, kGatherBlockWords / (gemm.planes * st.patch_wpr));
  std::uint64_t t = ns != nullptr ? clock_ns() : 0;
  for (std::int64_t r0 = 0; r0 < st.patch_rows; r0 += block) {
    const std::int64_t r1 = std::min(st.patch_rows, r0 + block);
    for (std::int64_t m = 0; m < gemm.planes; ++m) {
      tensor::kernels::Im2RowCtx plane{
          {in.data + m * in_plane, in.rows, in.cols, in.wpr},
          {rows.data + m * gemm.plane_stride, rows.rows, rows.cols, rows.wpr},
          st.h, st.w, st.c, st.k, st.ho, st.wo};
      st.im2row_fn(&plane, r0, r1);
    }
    if (ns != nullptr) lap(ns->gather, t);
    st.gemm_fn(&gemm, r0, r1);
    if (ns != nullptr) lap(ns->gemm, t);
  }
}

void residual_fire(const ExecutionPlan& plan, const PlanStep& st,
                   const std::int32_t* acc, std::uint64_t* dst,
                   std::int64_t rows) {
  BCOP_CHECK(st.levels_out == 2 || st.levels_out == 3,
             "residual_fire: levels_out %lld out of [2, 3]",
             static_cast<long long>(st.levels_out));
  ResidualFireCtx ctx;
  ctx.acc = acc;
  const std::int64_t banks = (std::int64_t{1} << st.levels_out) - 1;
  for (std::int64_t b = 0; b < banks; ++b) {
    const PreparedThresholds& p = plan.prep(st.prep + b);
    ctx.thr[b] = p.thr.data();
    ctx.inv[b] = p.inv.data();
  }
  for (std::int64_t b = banks; b < 7; ++b) ctx.thr[b] = ctx.inv[b] = nullptr;
  ctx.dst = dst;
  ctx.cols = st.out_cols;
  ctx.wpr = st.out_wpr;
  ctx.plane_words = st.out_rows * st.out_wpr;
  if (st.levels_out == 2)
    fire_rows<2>(ctx, rows);
  else
    fire_rows<3>(ctx, rows);
}

void residual_pool(const PlanStep& st, const std::uint64_t* src,
                   std::uint64_t* dst) {
  // Output pixel r of one image reads input pixels (2y, 2x), (2y, 2x + 1),
  // (2y + 1, 2x) and (2y + 1, 2x + 1).
  const std::int64_t w = st.w, wo = st.wo, wpr = st.in_wpr;
  const std::int64_t in_plane = st.in_rows * st.in_wpr;
  const std::int64_t out_plane = st.out_rows * st.out_wpr;
  for (std::int64_t r = 0; r < st.out_rows; ++r) {
    const std::int64_t yy = r / wo, xx = r - yy * wo;
    const std::uint64_t* pa = src + (2 * yy * w + 2 * xx) * wpr;
    const std::uint64_t* pb = pa + wpr;
    const std::uint64_t* pc = pa + w * wpr;
    const std::uint64_t* pd = pc + wpr;
    std::uint64_t* out = dst + r * wpr;
    for (std::int64_t wd = 0; wd < wpr; ++wd) {
      // Plane 0: the max of {-1,+1} values is the boolean OR -- the whole
      // pool of a one-plane stream. Deeper planes only matter where
      // candidates tie.
      const std::uint64_t a0 = pa[wd], b0 = pb[wd], c0 = pc[wd], d0 = pd[wd];
      std::uint64_t o = a0 | b0 | c0 | d0;
      out[wd] = o;
      // A candidate stays "maximal so far" while its bit matches the
      // output bit on every level seen; dominance of the dyadic scale
      // grid (g_m > sum of deeper scales) makes lexicographic order the
      // value order. Slack bits are zero in every candidate, so the
      // output slack stays zero through every level.
      std::uint64_t ma = ~(a0 ^ o), mb = ~(b0 ^ o);
      std::uint64_t mc = ~(c0 ^ o), md = ~(d0 ^ o);
      for (std::int64_t m = 1; m < st.levels_in; ++m) {
        const std::int64_t off = m * in_plane + wd;
        const std::uint64_t am = pa[off], bm = pb[off];
        const std::uint64_t cm = pc[off], dm = pd[off];
        o = (am & ma) | (bm & mb) | (cm & mc) | (dm & md);
        dst[m * out_plane + r * wpr + wd] = o;
        ma &= ~(am ^ o);
        mb &= ~(bm ^ o);
        mc &= ~(cm ^ o);
        md &= ~(dm ^ o);
      }
    }
  }
}

}  // namespace bcop::xnor::detail
