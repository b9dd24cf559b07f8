// Repository benchmark entry point; see bench.hpp for the command line and
// output contract, engine.cpp and http.cpp for the two phases of a run.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "util/args.hpp"

namespace bcop::perfbench {

void Report::check(bool ok, const char* what) {
  if (ok) return;
  correct = false;
  ++failed;
  std::printf("CHECK FAILED: %s\n", what);
}

std::string Report::to_json() const {
  bool finite = true;
  std::string m;
  for (const auto& [name, metric] : metrics) {
    finite = finite && std::isfinite(metric.value);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!m.empty()) m += ", ";
    m += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metric.unit + "\"}";
  }
  return "{\"correct\": " +
         std::string(correct && finite && failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + m +
         "}}";
}

tensor::Tensor random_images(util::Rng& rng, std::int64_t n) {
  tensor::Tensor t(tensor::Shape{n, kSide, kSide, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(2 * rng.uniform_int(0, 255) - 255) / 255.f;
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::calm_median() const {
  const double cut = median(stolen);
  std::vector<double> calm;
  for (std::size_t i = 0; i < value.size(); ++i)
    if (stolen[i] <= cut) calm.push_back(value[i]);
  return median(calm);
}

const obs::MetricsSnapshot::HistogramValue* find_histogram(
    const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::uint64_t find_counter(const obs::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

namespace {

/// Share of --seconds given to the engine phase; the HTTP phase gets the
/// rest.
constexpr double kEngineShare = 0.25;

/// The commit being measured, read at run time (a source export without
/// git metadata reports "unknown").
std::string git_sha() {
  std::string sha;
  if (FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p)) sha += buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// {steal, total} CPU ticks of the host view in /proc/stat ({0, 0} when
/// unreadable): a run with much steal measured a busy host, not the code.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {}, total = 0;
  in >> cpu;
  for (double& v : f) in >> v;
  if (!in || cpu != "cpu") return {0, 0};
  for (const double v : f) total += v;
  return {f[7], total};
}

}  // namespace

double steal_ticks() { return cpu_ticks().first; }

}  // namespace bcop::perfbench

int main(int argc, char** argv) {
  using namespace bcop;
  using namespace bcop::perfbench;
  Options opt;
  try {
    const util::Args args(argc, argv);
    opt.workload = args.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", 10);
    opt.trace = args.get_int("trace", 0) != 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  double rate = 0;
  if (opt.workload == "http_steady") rate = 2000;
  else if (opt.workload == "http_overload") rate = 16000;
  else {
    std::fprintf(stderr,
                 "usage: perfbench --workload http_steady|http_overload"
                 " --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (!(opt.seconds >= 1 && opt.seconds <= 60)) {
    std::fprintf(stderr, "perfbench: --seconds must be in [1, 60]\n");
    return 2;
  }

  namespace kn = tensor::kernels;
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
      "\"kernel_tier\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"model\": \"n-CNV, untrained "
      "seeded weights\"}\n",
      git_sha().c_str(), cpu_model().c_str(),
      std::thread::hardware_concurrency(),
      kn::kernel_level_name(kn::active_level()), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0);

  const auto [steal0, total0] = cpu_ticks();
  Report report;
  try {
    // Untraced, the engine windows run between the HTTP segments, so both
    // phases sample the host over the whole run and a stall of part of it
    // moves a minority of either's samples.
    const double engine_s = kEngineShare * opt.seconds;
    EnginePhase engine(opt, report);
    std::function<void(double)> between;
    if (opt.trace) engine.traced(engine_s, report);
    else between = [&](double share) { engine.run(share * engine_s); };
    const double http_setup =
        run_http(opt, rate, opt.seconds - engine_s, report, between);
    const double engine_setup = engine.finish(report);
    if (!opt.trace) {
      std::printf("setup_s: %.4f s engine + %.4f s serving stack (medians "
                  "of repeated set-ups)\n", engine_setup, http_setup);
      report.metric("setup_s", engine_setup + http_setup, "s");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const auto [steal1, total1] = cpu_ticks();
  if (total1 > total0)
    std::printf("host: cpu steal %.1f%% of the run (from /proc/stat)\n",
                100 * (steal1 - steal0) / (total1 - total0));
  if (report.attempted == 0) report.check(false, "no operation attempted");
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, report.attempted));
  std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(report.failed) / attempted,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
