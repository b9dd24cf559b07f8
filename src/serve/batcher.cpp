#include "serve/batcher.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/affinity.hpp"
#include "serve/router.hpp"
#include "util/check.hpp"

namespace bcop::serve {

using core::Predictor;
using tensor::Shape;
using tensor::Tensor;
using util::MutexLock;
using util::UniqueLock;

namespace {

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// [S, S, C] of a request image; [1, S, S, C] is the same request.
Shape request_shape(const Tensor& image) {
  const Shape& s = image.shape();
  if (s.rank() == 4 && s[0] == 1) return Shape{s[1], s[2], s[3]};
  BCOP_CHECK(s.rank() == 3,
             "BatchingServer::try_submit: image must be [S, S, C] or "
             "[1, S, S, C], got %s",
             s.str().c_str());
  return s;
}

}  // namespace

const char* to_string(ServerState state) {
  switch (state) {
    case ServerState::kServing: return "serving";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "unknown";
}

/// Server telemetry (naming scheme in docs/observability.md). The global
/// bcop_serve_* family is registered once on first server construction; a
/// Router replica additionally owns a bcop_serve_replica<N>_* family.
/// Recording is lock-free either way -- a handful of relaxed atomics.
struct BatchingServer::Metrics {
  obs::Counter& submitted;
  obs::Counter& rejected;
  obs::Counter& batches;
  obs::Gauge& queue_depth;
  obs::LatencyHistogram& batch_size;
  obs::LatencyHistogram& coalesce_wait_ns;
  obs::LatencyHistogram& e2e_latency_ns;

  static Metrics make(const std::string& prefix) {
    auto& reg = obs::Registry::global();
    return Metrics{reg.counter(prefix + "_submitted_total"),
                   reg.counter(prefix + "_rejected_total"),
                   reg.counter(prefix + "_batches_total"),
                   reg.gauge(prefix + "_queue_depth"),
                   reg.histogram(prefix + "_batch_size"),
                   reg.histogram(prefix + "_coalesce_wait_ns"),
                   reg.histogram(prefix + "_e2e_latency_ns")};
  }

  static Metrics& global() {
    static Metrics m = make("bcop_serve");
    return m;
  }
};

template <typename Fn>
void BatchingServer::each_metrics(Fn&& fn) const {
  fn(Metrics::global());
  if (replica_metrics_) fn(*replica_metrics_);
}

BatchingServer::BatchingServer(const Predictor& prototype,
                               BatcherConfig config, Router* router)
    : config_(std::move(config)),
      router_(router),
      model_(std::make_unique<const Predictor>(prototype.replicate())),
      pool_(config_.workers) {
  BCOP_CHECK(config_.max_batch >= 1, "max_batch %lld must be >= 1",
             static_cast<long long>(config_.max_batch));
  BCOP_CHECK(config_.queue_capacity >= 1, "queue_capacity %lld must be >= 1",
             static_cast<long long>(config_.queue_capacity));
  const Shape want = prototype.network().expected_input_shape();
  if (want.rank() == 3) image_shape_ = want;
  Metrics::global();  // register before traffic so exports always list them
  if (config_.replica_id >= 0)
    replica_metrics_ = std::make_unique<Metrics>(Metrics::make(
        "bcop_serve_replica" + std::to_string(config_.replica_id)));
  start_workers();
}

BatchingServer::~BatchingServer() { drain(); }

void BatchingServer::start_workers() {
  for (unsigned i = 0; i < config_.workers; ++i)
    pool_.submit([this] { worker_loop(); });
}

void BatchingServer::drain() {
  MutexLock admin(admin_mutex_);
  drain_admin();
}

void BatchingServer::drain_admin() {
  {
    MutexLock lock(mutex_);
    // Under admin_mutex_ the state is kServing or kStopped, never
    // mid-drain: a second drain() is a no-op.
    if (state_.load(std::memory_order_relaxed) != ServerState::kServing)
      return;
    state_.store(ServerState::kDraining, std::memory_order_release);
  }
  cv_work_.notify_all();
  // Workers drain the queue before exiting, so every accepted request is
  // answered. The join runs outside mutex_: admission answers kUnavailable
  // and depth probes keep answering meanwhile.
  pool_.wait_idle();
  MutexLock lock(mutex_);
  state_.store(ServerState::kStopped, std::memory_order_release);
}

void BatchingServer::swap_model(const Predictor& prototype) {
  MutexLock admin(admin_mutex_);
  const Shape want = prototype.network().expected_input_shape();
  Shape have;
  {
    MutexLock lock(mutex_);
    have = model_->network().expected_input_shape();
  }
  // A different input shape would turn every queued-for-later request into
  // a contract failure; refuse while the current generation still serves.
  if (want != have)
    throw std::invalid_argument("BatchingServer::swap_model: model input " +
                                want.str() + " does not match the served " +
                                have.str());
  std::unique_ptr<const Predictor> next =
      std::make_unique<const Predictor>(prototype.replicate());
  drain_admin();
  {
    MutexLock lock(mutex_);
    // The old generation's workers have joined, so nothing references the
    // old model; it is freed below, outside the lock.
    std::swap(model_, next);
    ++generation_;
    state_.store(ServerState::kServing, std::memory_order_release);
  }
  start_workers();
}

BatchingServer::Admitted BatchingServer::admit(
    Tensor& image, std::int64_t max_depth,
    std::promise<Predictor::Result>* handed) {
  const Shape s = request_shape(image);
  Admitted out;
  UniqueLock lock(mutex_);
  if (image_shape_.rank() == 0) image_shape_ = s;
  BCOP_CHECK(s == image_shape_,
             "BatchingServer::try_submit: image %s does not match the served "
             "model input %s",
             s.str().c_str(), image_shape_.str().c_str());
  if (state_.load(std::memory_order_relaxed) != ServerState::kServing)
    return out;  // kUnavailable: nothing counted, image untouched
  const bool sync = config_.workers == 0;
  std::int64_t limit = config_.queue_capacity;
  if (max_depth >= 0) limit = std::min(limit, max_depth);
  if (!sync && static_cast<std::int64_t>(queue_.size()) >= limit) {
    if (handed == nullptr) each_metrics([](Metrics& m) { m.rejected.add(1); });
    out.admission = Admission::kShed;
    return out;
  }
  Request request;
  request.image = std::move(image);
  if (handed != nullptr)
    request.promise = std::move(*handed);
  else
    out.future = request.promise.get_future();
  request.enqueued = std::chrono::steady_clock::now();
  request.max_depth = max_depth;
  out.admission = Admission::kAccepted;
  ++stats_.requests;
  if (sync) {
    const std::optional<Predictor::Result> result = classify_inline(request);
    lock.unlock();
    if (result) resolve(request, *result);
    return out;
  }
  queue_.push_back(std::move(request));
  // The gauge moves with the queue mutation it mirrors, inside the
  // critical section, so a snapshot never sees a pushed request with an
  // un-bumped depth (recording is one relaxed fetch_add).
  each_metrics([](Metrics& m) { m.queue_depth.add(1); });
  lock.unlock();
  each_metrics([](Metrics& m) { m.submitted.add(1); });
  cv_work_.notify_one();
  return out;
}

void BatchingServer::resolve(Request& request,
                             const Predictor::Result& result) {
  if (router_ != nullptr && result.margin < router_->config().margin_threshold)
    router_->escalate(request, result);
  else
    request.promise.set_value(result);
}

std::optional<Predictor::Result> BatchingServer::classify_inline(
    Request& request) {
  ++stats_.batches;
  stats_.max_batch_seen = std::max<std::int64_t>(stats_.max_batch_seen, 1);
  each_metrics([](Metrics& m) {
    m.submitted.add(1);
    m.batches.add(1);
    m.batch_size.record(1);
    m.coalesce_wait_ns.record(0);
  });
  std::optional<Predictor::Result> result;
  try {
    const Shape& s = image_shape_;
    result = model_->classify_batch(
        request.image.reshaped(Shape{1, s[0], s[1], s[2]})).front();
  } catch (...) {
    request.promise.set_exception(std::current_exception());
  }
  const std::uint64_t ns = ns_since(request.enqueued);
  each_metrics([ns](Metrics& m) { m.e2e_latency_ns.record(ns); });
  return result;
}

std::int64_t BatchingServer::generation() const {
  MutexLock lock(mutex_);
  return generation_;
}

std::int64_t BatchingServer::queue_depth() const {
  MutexLock lock(mutex_);
  return static_cast<std::int64_t>(queue_.size());
}

ServerStats BatchingServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void BatchingServer::worker_loop() {
  // Replica workers pin to the core set the Router dealt this replica
  // (parallel::partition_cpus); a failed pin just leaves the worker
  // floating -- affinity is a performance hint, never a requirement.
  if (!config_.pin_cpus.empty()) parallel::pin_current_thread(config_.pin_cpus);
  WorkerState buffers;  // lives as long as the worker: arena grows, then holds
  for (;;) {
    std::deque<Request> batch;
    const Predictor* model = nullptr;
    Shape image_shape;
    {
      UniqueLock lock(mutex_);
      const auto serving = [this] {
        return state_.load(std::memory_order_relaxed) == ServerState::kServing;
      };
      while (serving() && queue_.empty()) cv_work_.wait(lock.native());
      if (queue_.empty()) return;  // drained: this generation is done
      if (serving() && config_.max_latency.count() > 0 &&
          static_cast<std::int64_t>(queue_.size()) < config_.max_batch) {
        // Coalescing window: hold the batch open until it fills or the
        // oldest request has spent max_latency in the queue.
        const auto deadline = queue_.front().enqueued + config_.max_latency;
        while (serving() &&
               static_cast<std::int64_t>(queue_.size()) < config_.max_batch) {
          if (cv_work_.wait_until(lock.native(), deadline) ==
              std::cv_status::timeout)
            break;
        }
      }
      if (queue_.empty()) continue;  // another worker took the work
      const auto take = std::min<std::int64_t>(
          static_cast<std::int64_t>(queue_.size()), config_.max_batch);
      for (std::int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      each_metrics([take](Metrics& m) { m.queue_depth.add(-take); });
      // Record the batch before fulfilling any promise: a client whose
      // future.get() returned must observe its own batch in stats().
      ++stats_.batches;
      stats_.max_batch_seen = std::max(stats_.max_batch_seen, take);
      if (take > 1) stats_.coalesced += take;
      model = model_.get();
      image_shape = image_shape_;
    }
    run_batch(batch, *model, image_shape, buffers);
  }
}

void BatchingServer::run_batch(std::deque<Request>& batch,
                               const Predictor& model,
                               const Shape& image_shape,
                               WorkerState& buffers) {
  const auto b = static_cast<std::int64_t>(batch.size());
  // How long the oldest member waited for the batch to ship: the cost of
  // the coalescing window, bounded by config_.max_latency plus scheduling.
  const std::uint64_t wait_ns = ns_since(batch.front().enqueued);
  each_metrics([b, wait_ns](Metrics& m) {
    m.batches.add(1);
    m.batch_size.record(static_cast<std::uint64_t>(b));
    m.coalesce_wait_ns.record(wait_ns);
  });
  const Shape& s = image_shape;
  const Shape batch_shape{b, s[0], s[1], s[2]};
  // Reuse the worker's coalescing buffer; it only reallocates when the
  // batch size changes (steady traffic at a fixed size is allocation-free).
  if (buffers.input.shape() != batch_shape) buffers.input = Tensor(batch_shape);
  const std::int64_t stride = s.numel();
  for (std::int64_t i = 0; i < b; ++i)
    std::memcpy(buffers.input.data() + i * stride,
                batch[static_cast<std::size_t>(i)].image.data(),
                static_cast<std::size_t>(stride) * sizeof(float));
  try {
    model.classify_batch(buffers.input, buffers.ws, buffers.logits,
                         buffers.results);
  } catch (...) {
    for (auto& request : batch)
      request.promise.set_exception(std::current_exception());
    return;
  }
  for (std::int64_t i = 0; i < b; ++i) {
    Request& request = batch[static_cast<std::size_t>(i)];
    resolve(request, buffers.results[static_cast<std::size_t>(i)]);
    const std::uint64_t e2e_ns = ns_since(request.enqueued);
    each_metrics([e2e_ns](Metrics& m) { m.e2e_latency_ns.record(e2e_ns); });
  }
}

}  // namespace bcop::serve
