// Engine phase of every run: closed-loop, in-process engine throughput.
//
// No net and no serve: the calling thread drives core::Predictor::
// classify_batch (the allocation-free workspace form the serving workers
// use), whose plan steps fan out over parallel::ThreadPool::global().
// Three configurations run in interleaved short windows, so a slow stretch
// of a shared host hits all of them alike, and each reports its median
// window: batch 1 and batch 16 on the M = 1 n-CNV, and batch 16 on the
// M = 3 residual n-CNV at full depth.
//
// Oracle: every call's logits must be bit-equal to the same batch run
// through plans compiled under the scalar kernel tier, and the scalar
// batch-16 rows must be bit-equal to the scalar batch-1 results.
//
// The traced run adds the per-layer breakdown: per-step plan shares from
// the StageProfiler registry series, classify-vs-forward overhead, the
// M = 3 / M = 1 per-frame cost on one residual net, single-threaded
// kernel rates per executable dispatch tier on n-CNV's own conv
// geometries, and the paper's FINN cycle model printed beside the
// measured shares.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "deploy/performance.hpp"
#include "obs/stage_profiler.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "util/rng.hpp"
#include "xnor/plan.hpp"

namespace bcop::perfbench {
namespace {

namespace kn = tensor::kernels;
using core::Predictor;
using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kBatch = 16;  // the serving max_batch
constexpr int kBatches = 4;          // distinct seeded batch-16 inputs
constexpr int kSetupRuns = 5;        // up-front builds; see EnginePhase
constexpr double kWindowS = 0.1;     // one throughput sample

Tensor row_of(const Tensor& batch, std::int64_t r) {
  const std::int64_t per = kSide * kSide * 3;
  Tensor t(Shape{1, kSide, kSide, 3});
  std::memcpy(t.data(), batch.data() + r * per,
              static_cast<std::size_t>(per) * sizeof(float));
  return t;
}

/// Logits of `x` through a plan compiled under the scalar reference tier.
std::vector<float> scalar_logits(const xnor::XnorNetwork& net,
                                 const Tensor& x, std::int64_t levels) {
  kn::set_level_override(kn::KernelLevel::kScalar);
  const Tensor out = net.forward_batch(x, levels);
  kn::clear_level_override();
  return {out.data(), out.data() + out.numel()};
}

/// One timed configuration: a network call on cycling inputs, each call
/// checked against its scalar-tier reference logits.
struct Lane {
  const Predictor* predictor = nullptr;    // classify_batch path, or
  const xnor::XnorNetwork* net = nullptr;  // forward_batch when set
  std::int64_t levels = 0;                 // forward_batch level cap
  std::vector<Tensor> inputs;
  std::vector<std::vector<float>> ref;
  xnor::Workspace ws;
  Tensor logits;
  std::vector<Predictor::Result> results;
  std::size_t next = 0;
  std::uint64_t calls = 0, mismatches = 0;

  void call() {
    const std::size_t i = next++ % inputs.size();
    if (net) net->forward_batch(inputs[i], ws, logits, levels);
    else predictor->classify_batch(inputs[i], ws, logits, results);
    ++calls;
    const std::vector<float>& want = ref[i];
    if (logits.numel() != static_cast<std::int64_t>(want.size()) ||
        std::memcmp(logits.data(), want.data(), want.size() * sizeof(float)))
      ++mismatches;
  }

  /// Call repeatedly for `s` seconds; returns frames/second.
  double window(double s) {
    const std::int64_t batch = inputs.front().shape()[0];
    const Clock::time_point t0 = Clock::now();
    std::int64_t frames = 0;
    double elapsed = 0;
    do {
      call();
      frames += batch;
    } while ((elapsed = seconds_since(t0)) < s);
    return static_cast<double>(frames) / elapsed;
  }
};

/// Run the lanes in round-robin windows for `s` seconds, calling
/// `between` after each round; adds each window's frames/second to the
/// lane's entry of `fps`.
void interleave(const std::vector<Lane*>& lanes, double s,
                std::vector<Samples>& fps,
                const std::function<void()>& between = {}) {
  fps.resize(lanes.size());
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const double stolen0 = steal_ticks();
      const double f = lanes[i]->window(kWindowS);
      fps[i].add(f, steal_ticks() - stolen0);
    }
    if (between) between();
  } while (seconds_since(t0) < s);
}

/// Each lane's calm-median frames/second over `s` seconds of interleaved
/// windows.
std::vector<double> interleave(const std::vector<Lane*>& lanes, double s) {
  std::vector<Samples> fps;
  interleave(lanes, s, fps);
  std::vector<double> out;
  for (const Samples& f : fps) out.push_back(f.calm_median());
  return out;
}

struct Models {
  std::unique_ptr<Predictor> m1, m3;
  double setup_s = 0;
  double plan_compile_ms = 0;  // first plan_for of the three timed shapes
};

/// Build + fold both networks and compile the plans the timed lanes use.
Models set_up(std::uint64_t seed) {
  Models m;
  const Clock::time_point t0 = Clock::now();
  m.m1 = std::make_unique<Predictor>(
      core::build_bnn(core::ArchitectureId::kNCnv, seed));
  m.m3 = std::make_unique<Predictor>(
      core::build_bnn(core::ArchitectureId::kNCnv, seed, 3));
  const Clock::time_point tc = Clock::now();
  m.m1->network().plan_for(Shape{1, kSide, kSide, 3});
  m.m1->network().plan_for(Shape{kBatch, kSide, kSide, 3});
  m.m3->network().plan_for(Shape{kBatch, kSide, kSide, 3});
  m.plan_compile_ms = 1e3 * seconds_since(tc);
  m.setup_s = seconds_since(t0);
  return m;
}

/// One profiler slot of one plan key (bcop_exec_<key>_<slot>_ns).
const obs::MetricsSnapshot::HistogramValue* slot_of(
    const obs::MetricsSnapshot& snap, const std::string& key,
    const char* slot) {
  return find_histogram(snap, "bcop_exec_" + key + "_" + slot + "_ns");
}

double slot_ns(const obs::MetricsSnapshot& snap, const std::string& key,
               const char* slot) {
  const auto* h = slot_of(snap, key, slot);
  return h ? static_cast<double>(h->sum) : 0.0;
}

double slot_mean_us(const obs::MetricsSnapshot& snap, const std::string& key,
                    const char* slot) {
  return mean_of(slot_of(snap, key, slot)) / 1e3;
}

/// Reset the registry, run `lane` with the profiler on for `s` seconds,
/// and return the snapshot of that phase alone.
obs::MetricsSnapshot profiled(Lane& lane, double s) {
  obs::Registry::global().reset_values();
  obs::StageProfiler::global().set_enabled(true);
  interleave({&lane}, s);
  obs::StageProfiler::global().set_enabled(false);
  return obs::Registry::global().snapshot();
}

/// The six plan-step shares of one plan key (the classifier's kLogits
/// step counts as binary_dense: it is the last binary dense layer).
struct Shares {
  double first_conv, im2row, gemm, thresholds, pool, binary_dense;
  double binary_conv, flatten;  // parents/leftovers, for the FINN table
};

Shares shares_of(const obs::MetricsSnapshot& snap, const std::string& key) {
  const double exec = slot_ns(snap, key, "execute");
  auto share = [&](const char* slot) {
    return exec > 0 ? slot_ns(snap, key, slot) / exec : 0.0;
  };
  return Shares{share("first_conv"),
                share("im2row"),
                share("binary_gemm"),
                share("thresholds"),
                share("pool"),
                share("binary_dense") + share("logits"),
                share("binary_conv"),
                share("flatten")};
}

void report_shares(Report& report, const Shares& s, const char* batch) {
  const std::pair<const char*, double> rows[] = {
      {"first_conv", s.first_conv}, {"im2row", s.im2row},
      {"gemm", s.gemm},             {"thresholds", s.thresholds},
      {"pool", s.pool},             {"binary_dense", s.binary_dense}};
  for (const auto& [step, v] : rows)
    report.metric(std::string("xnor.share.") + step + "." + batch, v, "ratio");
}

/// The paper's FINN cycle model beside the measured batch-16 shares. The
/// model column is analytical output, not a measurement.
void print_finn_model(const Shares& measured) {
  const deploy::PerfReport model = deploy::analyze_performance(
      core::layer_specs(core::ArchitectureId::kNCnv));
  double total = 0, conv = 0;
  for (const auto& l : model.layers)
    total += static_cast<double>(l.compute_cycles);
  std::printf("finn_model (deploy::analyze_performance, model output, not a "
              "measurement): n-CNV II=%lld cycles, bottleneck %s\n",
              static_cast<long long>(model.initiation_interval),
              model.bottleneck.c_str());
  std::printf("  %-10s %14s %12s\n", "layer", "compute_cyc", "model_share");
  for (const auto& l : model.layers) {
    const double share = static_cast<double>(l.compute_cycles) / total;
    if (l.name.rfind("Conv", 0) == 0) conv += share;
    std::printf("  %-10s %14lld %11.1f%%\n", l.name.c_str(),
                static_cast<long long>(l.compute_cycles), 100 * share);
  }
  const double m_conv = measured.first_conv + measured.binary_conv;
  std::printf("  side by side at b16   model (cycles)   measured (time)\n");
  std::printf("  conv layers           %13.1f%%   %14.1f%%  "
              "(first_conv + binary_conv steps)\n", 100 * conv, 100 * m_conv);
  std::printf("  dense layers          %13.1f%%   %14.1f%%  "
              "(binary_dense + logits steps)\n", 100 * (1 - conv),
              100 * measured.binary_dense);
  std::printf("  pool + flatten        %13s   %14.1f%%  "
              "(folded into the conv MVTUs by FINN)\n", "-",
              100 * (measured.pool + measured.flatten));
}

/// Random packed rows with every bit at or past `cols` cleared.
std::vector<std::uint64_t> random_bits(util::Rng& rng, std::int64_t rows,
                                       std::int64_t cols, std::int64_t wpr) {
  std::vector<std::uint64_t> v(static_cast<std::size_t>(rows * wpr));
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t j = 0; j < wpr; ++j) {
      const std::int64_t live = std::min<std::int64_t>(64, cols - 64 * j);
      const std::uint64_t mask =
          live >= 64 ? ~0ull : live <= 0 ? 0 : (1ull << live) - 1;
      v[static_cast<std::size_t>(r * wpr + j)] = rng.next_u64() & mask;
    }
  return v;
}

/// Single-threaded rates of one tier's three kernels on n-CNV's binary
/// conv geometries (taken from the compiled batch-16 plan).
void kernel_rates(const xnor::ExecutionPlan& plan, util::Rng& rng, double s,
                  Report& report) {
  struct Geometry {
    const xnor::PlanStep* st;
    std::vector<std::uint64_t> pixels, patch, out;
    std::vector<std::int32_t> acc;
  };
  std::vector<Geometry> geos;
  for (const xnor::PlanStep& st : plan.steps()) {
    if (st.kind != xnor::StepKind::kBinConv || st.levels_in != 1) continue;
    Geometry g{&st, random_bits(rng, st.in_rows, st.in_cols, st.in_wpr),
               random_bits(rng, st.patch_rows, st.patch_cols, st.patch_wpr),
               std::vector<std::uint64_t>(
                   static_cast<std::size_t>(st.out_rows * st.out_wpr)),
               std::vector<std::int32_t>(static_cast<std::size_t>(st.acc_len))};
    for (auto& a : g.acc)
      a = static_cast<std::int32_t>(
          rng.uniform_int(-st.patch_cols, st.patch_cols));
    geos.push_back(std::move(g));
  }
  std::vector<kn::KernelLevel> tiers;
  for (int t = 0; t < kn::kKernelLevelCount; ++t) {
    const auto level = static_cast<kn::KernelLevel>(t);
    if (kn::level_available(level)) {
      tiers.push_back(level);
      continue;
    }
    // Every tier keeps its metric names; one this CPU cannot run reads 0.
    const std::string tier = kn::kernel_level_name(level);
    std::printf("kernel tier %s: not executable here, its rates read 0\n",
                tier.c_str());
    report.metric("kernels.gemm_gmacs." + tier, 0, "GMAC/s");
    report.metric("kernels.thresh_gelems." + tier, 0, "Gelem/s");
    report.metric("kernels.im2row_gbits." + tier, 0, "Gbit/s");
  }

  // ops of one sweep over every geometry, per kernel
  double gemm_ops = 0, thresh_ops = 0, im2row_ops = 0;
  for (const Geometry& g : geos) {
    gemm_ops +=
        static_cast<double>(g.st->patch_rows * g.st->co * g.st->patch_cols);
    thresh_ops += static_cast<double>(g.st->out_rows * g.st->co);
    im2row_ops += static_cast<double>(g.st->patch_rows * g.st->patch_cols);
  }
  enum Kernel { kGemm, kThresh, kIm2row };
  auto sweep = [&](const kn::KernelTable& table, Kernel k) {
    for (Geometry& g : geos) {
      const xnor::PlanStep& st = *g.st;
      const tensor::BitSpan patch{g.patch.data(), st.patch_rows,
                                  st.patch_cols, st.patch_wpr};
      if (k == kGemm) {
        kn::GemmCtx ctx{patch, plan.wmat(st.wmat), st.co, g.acc.data()};
        table.gemm(&ctx, 0, st.patch_rows);
      } else if (k == kThresh) {
        const xnor::PreparedThresholds& p = plan.prep(st.prep);
        kn::ThreshCtx ctx{g.acc.data(), p.thr.data(), p.inv.data(),
                          tensor::BitSpan{g.out.data(), st.out_rows,
                                          st.out_cols, st.out_wpr}};
        table.thresh(&ctx, 0, st.out_rows);
      } else {
        kn::Im2RowCtx ctx{tensor::ConstBitSpan{g.pixels.data(), st.in_rows,
                                               st.in_cols, st.in_wpr},
                          patch, st.h, st.w, st.c, st.k, st.ho, st.wo};
        table.im2row(&ctx, 0, st.patch_rows);
      }
    }
  };
  // rates[tier][kernel] in ops/s, one sample per short window, rounds
  // interleaved across tiers and kernels.
  std::vector<std::vector<std::vector<double>>> rates(
      tiers.size(), std::vector<std::vector<double>>(3));
  const double ops[3] = {gemm_ops, thresh_ops, im2row_ops};
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t t = 0; t < tiers.size(); ++t)
      for (int k = 0; k < 3; ++k) {
        const kn::KernelTable& table = kn::table_for(tiers[t]);
        const Clock::time_point w0 = Clock::now();
        double done = 0, el = 0;
        do {
          sweep(table, static_cast<Kernel>(k));
          done += ops[k];
        } while ((el = seconds_since(w0)) < 0.01);
        rates[t][static_cast<std::size_t>(k)].push_back(done / el);
      }
  } while (seconds_since(t0) < s);
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const std::string tier = kn::kernel_level_name(tiers[t]);
    report.metric("kernels.gemm_gmacs." + tier, median(rates[t][0]) / 1e9,
                  "GMAC/s");
    report.metric("kernels.thresh_gelems." + tier, median(rates[t][1]) / 1e9,
                  "Gelem/s");
    report.metric("kernels.im2row_gbits." + tier, median(rates[t][2]) / 1e9,
                  "Gbit/s");
  }
  std::printf("kernel tiers: %zu binary-conv geometries of the b16 plan, "
              "one thread, %zu tiers executable here\n",
              geos.size(), tiers.size());
}

}  // namespace

struct EnginePhase::State {
  std::uint64_t seed = 0;
  Models m;
  std::vector<double> setups, compiles;
  util::Rng rng{0};
  Lane b1, b16, b16_m3;
  std::vector<Samples> fps;  // per lane, one entry per window
  double owed_s = 0;         // timed seconds asked of run() not yet run
  std::uint64_t calls = 0, mismatches = 0;

  std::vector<Lane*> lanes() { return {&b1, &b16, &b16_m3}; }
  void record(const Models& built) {
    setups.push_back(built.setup_s);
    compiles.push_back(built.plan_compile_ms);
  }
  void count(const Lane& l) {
    calls += l.calls;
    mismatches += l.mismatches;
  }
};

EnginePhase::EnginePhase(const Options& opt, Report& report)
    : s_(std::make_unique<State>()) {
  State& s = *s_;
  obs::StageProfiler::global().set_enabled(false);
  s.seed = opt.seed;
  // Set-up is repeated: a few times here, and in the untraced run once
  // more after every round of windows, so the median spans the host's
  // state over the whole run rather than one burst of it.
  for (int i = 1; i < kSetupRuns; ++i) s.record(set_up(s.seed));
  s.m = set_up(s.seed);
  s.record(s.m);
  const Predictor& m1 = *s.m.m1;
  const Predictor& m3 = *s.m.m3;

  // Seeded inputs and their scalar-tier reference logits.
  s.rng = util::Rng(opt.seed ^ 0x9e3779b97f4a7c15ull);
  s.b1.predictor = &m1;
  s.b16.predictor = &m1;
  s.b16_m3.predictor = &m3;
  for (int b = 0; b < kBatches; ++b) {
    Tensor batch = random_images(s.rng, kBatch);
    const std::vector<float> ref1 = scalar_logits(m1.network(), batch, 0);
    const std::int64_t classes =
        static_cast<std::int64_t>(ref1.size()) / kBatch;
    for (std::int64_t r = 0; r < kBatch; ++r) {
      Tensor one = row_of(batch, r);
      const std::vector<float> single = scalar_logits(m1.network(), one, 0);
      const std::vector<float> row(ref1.begin() + r * classes,
                                   ref1.begin() + (r + 1) * classes);
      ++report.attempted;
      report.check(single == row, "scalar b1 logits != scalar b16 row");
      s.b1.inputs.push_back(std::move(one));
      s.b1.ref.push_back(row);
    }
    s.b16.ref.push_back(ref1);
    s.b16_m3.ref.push_back(scalar_logits(m3.network(), batch, 0));
    s.b16.inputs.push_back(batch);
    s.b16_m3.inputs.push_back(std::move(batch));
  }
}

EnginePhase::~EnginePhase() = default;

void EnginePhase::run(double seconds) {
  State& s = *s_;
  // A call shorter than one round of windows runs a whole round and
  // carries the excess into the next call, so the calls add up to the
  // time asked for.
  s.owed_s += seconds;
  if (s.owed_s <= 0) return;
  const Clock::time_point t0 = Clock::now();
  interleave(s.lanes(), s.owed_s, s.fps, [&s] { s.record(set_up(s.seed)); });
  s.owed_s -= seconds_since(t0);
}

void EnginePhase::traced(double s, Report& report) {
  State& st = *s_;
  const Predictor& m1 = *st.m.m1;
  const Predictor& m3 = *st.m.m3;
  Lane& b16 = st.b16;
  const std::string key1 = "b1_in32x32x3", key16 = "b16_in32x32x3";

  // Per-step shares and execute time at b1.
  const obs::MetricsSnapshot snap1 = profiled(st.b1, 0.15 * s);
  report_shares(report, shares_of(snap1, key1), "b1");
  report.metric("xnor.execute_us.b1", slot_mean_us(snap1, key1, "execute"),
                "us");

  // b16 with the profiler on and off in alternating windows: the shares
  // come from the "on" windows, the overhead from the FPS ratio.
  obs::Registry::global().reset_values();
  std::vector<double> on, off;
  const Clock::time_point t0 = Clock::now();
  do {
    obs::StageProfiler::global().set_enabled(true);
    on.push_back(b16.window(kWindowS));
    obs::StageProfiler::global().set_enabled(false);
    off.push_back(b16.window(kWindowS));
  } while (seconds_since(t0) < 0.25 * s);
  const obs::MetricsSnapshot snap16 = obs::Registry::global().snapshot();
  const Shares sh16 = shares_of(snap16, key16);
  report_shares(report, sh16, "b16");
  report.metric("xnor.execute_us.b16", slot_mean_us(snap16, key16, "execute"),
                "us");
  report.metric("obs.trace_overhead_frac", 1 - median(on) / median(off),
                "ratio");

  // M = 3 at full depth: whole-replay time and the mean residual
  // binary-conv step (residual steps have no sub-phase timers).
  const obs::MetricsSnapshot snap3 = profiled(st.b16_m3, 0.1 * s);
  report.metric("xnor.execute_us.b16_m3",
                slot_mean_us(snap3, key16, "execute"), "us");
  report.metric("xnor.residual_step_us.m3",
                slot_mean_us(snap3, key16, "binary_conv"), "us");

  // Per-frame cost of the same M = 3 net at level cap 3 vs cap 1.
  Lane cap3, cap1;
  cap3.net = cap1.net = &m3.network();
  cap1.levels = 1;
  cap3.inputs = cap1.inputs = st.b16_m3.inputs;
  cap3.ref = st.b16_m3.ref;
  for (const Tensor& x : cap1.inputs)
    cap1.ref.push_back(scalar_logits(m3.network(), x, 1));
  const std::vector<double> caps = interleave({&cap3, &cap1}, 0.2 * s);
  report.metric("xnor.m3_over_m1_cost", caps[1] / caps[0], "ratio");

  // classify_batch minus the forward_batch it wraps, paired call by
  // call on the same b16 input.
  Lane fwd;
  fwd.net = &m1.network();
  fwd.inputs = b16.inputs;
  fwd.ref = b16.ref;
  fwd.next = b16.next;
  std::vector<double> overhead_us;
  const Clock::time_point t1 = Clock::now();
  do {
    const Clock::time_point a = Clock::now();
    b16.call();
    const Clock::time_point b = Clock::now();
    fwd.call();
    overhead_us.push_back(1e6 * (std::chrono::duration<double>(b - a).count() -
                                 seconds_since(b)));
  } while (seconds_since(t1) < 0.1 * s);
  report.metric("core.classify_overhead_us.b16", median(overhead_us), "us");

  report.metric("xnor.plan_compile_ms", median(st.compiles), "ms");
  kernel_rates(m1.network().plan_for(Shape{kBatch, kSide, kSide, 3}), st.rng,
               0.2 * s, report);
  print_finn_model(sh16);
  for (const Lane* l : {&cap3, &cap1, &fwd}) st.count(*l);
}

double EnginePhase::finish(Report& report) {
  State& s = *s_;
  if (!s.fps.empty()) {
    const double b1 = s.fps[0].calm_median(), b16 = s.fps[1].calm_median(),
                 b16_m3 = s.fps[2].calm_median();
    report.metric("fps_b1", b1, "frames/s");
    report.metric("fps_b16", b16, "frames/s");
    report.metric("fps_b16_m3", b16_m3, "frames/s");
    std::printf("engine: fps_b1 %.0f  fps_b16 %.0f  fps_b16_m3 %.0f (calm "
                "median of %zu windows of %.0f ms each, spread over the run; "
                "over all windows %.0f / %.0f / %.0f; closed loop, one caller "
                "+ ThreadPool::global())\n",
                b1, b16, b16_m3, s.fps[0].value.size(), 1e3 * kWindowS,
                median(s.fps[0].value), median(s.fps[1].value),
                median(s.fps[2].value));
  }
  std::printf("engine setup: median %.4f s over %zu builds (build + fold "
              "M=1 and M=3 n-CNV, compile b1/b16/b16_m3 plans)\n",
              median(s.setups), s.setups.size());
  for (const Lane* l : s.lanes()) s.count(*l);
  report.attempted += s.calls;
  report.failed += s.mismatches;
  std::printf("engine oracle: %llu calls checked against scalar-tier logits, "
              "%llu failed\n",
              static_cast<unsigned long long>(s.calls),
              static_cast<unsigned long long>(s.mismatches));
  return median(s.setups);
}

}  // namespace bcop::perfbench
