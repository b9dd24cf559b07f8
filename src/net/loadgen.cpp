#include "net/loadgen.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bcop::net {

namespace {

using Clock = std::chrono::steady_clock;
using FpSeconds = std::chrono::duration<double>;

constexpr const char* kHost = "127.0.0.1";
/// Classify payload size in bytes (a u8 32x32x3 image), sent as
/// POST /v1/classify with a deterministic byte pattern.
constexpr std::size_t kPayloadBytes = 3072;

/// Precompute the full arrival schedule (seconds from start): a Poisson
/// process at `rate`, deterministic in the seed. Each arrival also draws
/// one uniform it does not use; dropping that draw would change every
/// seed's schedule, the ones perfbench replays included.
std::vector<double> sample_arrivals(const LoadGenConfig& c) {
  std::vector<double> arrivals;
  const double horizon = FpSeconds(c.duration).count();
  if (c.rate <= 0 || horizon <= 0) return arrivals;
  arrivals.reserve(static_cast<std::size_t>(c.rate * horizon * 1.1) + 16);
  util::Rng rng(c.seed);
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / c.rate;
    if (t >= horizon) break;
    rng.uniform();  // unused; keeps each seed's schedule (see above)
    arrivals.push_back(t);
  }
  return arrivals;
}

/// Everything one sender task owns; slots are preallocated so tasks never
/// share mutable state (no locks anywhere in the generator).
struct ConnResult {
  std::uint64_t sent = 0, ok_2xx = 0, err_4xx = 0, shed_503 = 0,
                err_5xx = 0, lost = 0, timed_out = 0;
  std::vector<double> latencies_ms;
};

struct Sender {
  const LoadGenConfig* config = nullptr;
  std::vector<double> arrivals;  // this connection's schedule, sorted
  Clock::time_point start;
  std::string request;  // the one (constant) request we replay
  ConnResult result;

  void run();
};

void Sender::run() {
  result.latencies_ms.reserve(arrivals.size());
  Fd fd = connect_tcp(kHost, config->port);
  if (fd.valid()) {
    set_nodelay(fd.get());
    set_nonblocking(fd.get(), true);
  }

  std::string out, in;
  std::size_t out_off = 0;
  std::size_t next = 0;                 // next arrival to inject
  std::deque<double> pending;           // scheduled times awaiting response
  const double horizon = FpSeconds(config->duration).count();
  const double drain = FpSeconds(config->drain_timeout).count();

  auto reconnect = [&] {
    // The server closed on us (shutdown or error response mid-run): what
    // was in flight is lost, but the schedule keeps going.
    result.lost += pending.size();
    pending.clear();
    out.clear();
    out_off = 0;
    in.clear();
    fd = connect_tcp(kHost, config->port);
    if (fd.valid()) {
      set_nodelay(fd.get());
      set_nonblocking(fd.get(), true);
    }
  };

  for (;;) {
    const double now = FpSeconds(Clock::now() - start).count();

    // Open loop: inject every request whose scheduled time has passed,
    // regardless of how many responses are outstanding.
    while (next < arrivals.size() && arrivals[next] <= now) {
      if (!fd.valid()) reconnect();
      out.append(request);
      pending.push_back(arrivals[next]);
      ++result.sent;
      ++next;
    }

    const bool done_sending = next >= arrivals.size();
    if (done_sending && pending.empty()) break;
    if (done_sending && now > horizon + drain) {
      result.timed_out += pending.size();
      pending.clear();
      break;
    }
    if (!fd.valid()) {
      // Could not (re)connect; the schedule still drains as lost.
      result.lost += pending.size();
      pending.clear();
      if (done_sending) break;
      continue;
    }

    // Flush pipelined writes.
    bool closed = false;
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd.get(), out.data() + out_off,
                               out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      closed = true;
      break;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }

    // Drain responses.
    char chunk[16384];
    while (!closed) {
      const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n > 0) {
        in.append(chunk, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
        continue;
      }
      if (n == 0) closed = true;
      else if (!(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        closed = true;
      break;
    }
    for (;;) {
      HttpResponse resp;
      std::size_t consumed = 0;
      const ParseStatus st =
          parse_response(in.data(), in.size(), resp, consumed);
      if (st != ParseStatus::kOk) {
        if (st == ParseStatus::kBadRequest) closed = true;
        break;
      }
      in.erase(0, consumed);
      if (resp.status == 100) continue;
      if (pending.empty()) {  // response with no matching request
        closed = true;
        break;
      }
      const double scheduled = pending.front();
      pending.pop_front();
      const double completed = FpSeconds(Clock::now() - start).count();
      result.latencies_ms.push_back((completed - scheduled) * 1e3);
      if (resp.status < 400) ++result.ok_2xx;
      else if (resp.status < 500) ++result.err_4xx;
      else if (resp.status == 503) ++result.shed_503;
      else ++result.err_5xx;
      if (!resp.keep_alive) closed = true;
    }
    if (closed) {
      fd.reset();
      if (done_sending && pending.empty()) break;
      if (!done_sending) reconnect();
      else {
        result.lost += pending.size();
        pending.clear();
        break;
      }
      continue;
    }

    // Sleep on the socket until it is actionable or the next arrival is
    // due (poll is the only waiting primitive src/net may use).
    pollfd p{};
    p.fd = fd.get();
    p.events = POLLIN;
    if (out_off < out.size()) p.events |= POLLOUT;
    int timeout_ms = 1;
    if (!done_sending) {
      const double until = (arrivals[next] - FpSeconds(Clock::now() - start)
                                                .count()) * 1e3;
      timeout_ms = until <= 0 ? 0 : std::min(50, static_cast<int>(until) + 1);
    }
    ::poll(&p, 1, timeout_ms);
  }
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

std::string LoadGenReport::to_json() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"offered_rate\":%.1f,\"achieved_rate\":%.1f,\"sent\":%llu,"
      "\"ok_2xx\":%llu,\"err_4xx\":%llu,\"shed_503\":%llu,\"err_5xx\":%llu,"
      "\"lost\":%llu,\"timed_out\":%llu,\"shed_fraction\":%.4f,"
      "\"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,\"max_ms\":%.3f,"
      "\"duration_s\":%.3f,\"conserved\":%s}",
      offered_rate, achieved_rate,
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(ok_2xx),
      static_cast<unsigned long long>(err_4xx),
      static_cast<unsigned long long>(shed_503),
      static_cast<unsigned long long>(err_5xx),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(timed_out), shed_fraction, p50_ms,
      p90_ms, p99_ms, max_ms, duration_s, conserved() ? "true" : "false");
  return buf;
}

LoadGenReport run_loadgen(const LoadGenConfig& config) {
  BCOP_CHECK(config.connections >= 1, "loadgen needs >= 1 connection");

  // Deterministic schedule, dealt round-robin across connections (so each
  // connection's sub-schedule is deterministic too).
  const std::vector<double> arrivals = sample_arrivals(config);
  std::vector<Sender> senders(config.connections);
  // Constant payload: a deterministic byte ramp (content does not matter
  // for load; the server still runs the full engine path on it).
  std::string payload(kPayloadBytes, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>(i * 31 % 251);
  const std::string request =
      format_request("POST", "/v1/classify", payload,
                     "Content-Type: application/octet-stream\r\n");
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    senders[i % senders.size()].arrivals.push_back(arrivals[i]);

  parallel::ThreadPool pool(config.connections);
  const Clock::time_point start = Clock::now();
  for (Sender& s : senders) {
    s.config = &config;
    s.start = start;
    s.request = request;
    pool.submit([&s] { s.run(); });
  }
  pool.wait_idle();
  const double elapsed = FpSeconds(Clock::now() - start).count();

  LoadGenReport report;
  std::vector<double> latencies;
  for (const Sender& s : senders) {
    report.sent += s.result.sent;
    report.ok_2xx += s.result.ok_2xx;
    report.err_4xx += s.result.err_4xx;
    report.shed_503 += s.result.shed_503;
    report.err_5xx += s.result.err_5xx;
    report.lost += s.result.lost;
    report.timed_out += s.result.timed_out;
    latencies.insert(latencies.end(), s.result.latencies_ms.begin(),
                     s.result.latencies_ms.end());
  }
  const double horizon = FpSeconds(config.duration).count();
  report.duration_s = elapsed;
  if (horizon > 0) {
    report.offered_rate = static_cast<double>(report.sent) / horizon;
    report.achieved_rate = static_cast<double>(report.ok_2xx) / horizon;
  }
  if (report.sent > 0)
    report.shed_fraction =
        static_cast<double>(report.shed_503) / static_cast<double>(report.sent);
  std::sort(latencies.begin(), latencies.end());
  report.p50_ms = percentile(latencies, 0.50);
  report.p90_ms = percentile(latencies, 0.90);
  report.p99_ms = percentile(latencies, 0.99);
  if (!latencies.empty()) report.max_ms = latencies.back();
  return report;
}

}  // namespace bcop::net
