// Request-coalescing inference server: the software analogue of the
// paper's streaming accelerator pipeline, and the fleet member a
// serve::Router replicates.
//
// The FINN-style FPGA design reaches its ~6400 FPS (n-CNV, Table II) by
// keeping every stage of the pipeline busy on a stream of frames; the CPU
// equivalent is batching -- one bit-packed XNOR-popcount GEMM per layer
// over many images amortizes packing, dispatch and weight traffic. This
// module turns independent single-image requests into such batches:
//
//   try_submit() --> bounded request queue --> worker pool --> classify_batch
//
// Workers take up to `max_batch` queued requests at once; when fewer are
// waiting, they hold the batch open until the oldest request has waited
// `max_latency`, trading a bounded latency increase for throughput (the
// knob documented in docs/serving.md). The queue is bounded: try_submit()
// never blocks -- at `queue_capacity` (or the caller's tighter watermark)
// it sheds, so overload costs a rejection instead of unbounded memory.
//
// Each server serves its own Predictor::replicate() clone (fresh plan
// cache) and has a lifecycle that makes a model hot-swap zero-downtime
// for the fleet around it:
//
//   kServing --> kDraining --> kStopped
//      ^                          |
//      +------- swap_model -------+
//
// drain() flips kServing -> kDraining under the queue mutex, so a request
// either enqueued before the flip (and is answered) or is turned away as
// kUnavailable; the workers then empty the queue and exit. swap_model()
// is drain() plus a fresh clone and a restart of the worker tasks on the
// same pool. The worker join and the clone run outside the queue mutex,
// so admission and depth probes never wait on a swap.
//
// Concurrency is built strictly from parallel::ThreadPool (repo rule R2:
// no raw threads outside src/parallel/): each worker is one
// long-running task on a dedicated pool, and the batched network forward
// itself fans out over ThreadPool::global() once per call, over images.
//
// A tiered Router's fast replica (RouterConfig::fast_replicas) does not
// fulfil an answer whose margin is below the Router's margin_threshold:
// it hands that request's own image and promise back to the Router, on
// the worker that computed the answer (or, synchronous, on the submitting
// thread once the queue mutex is released). No copy, no wait on a future.
//
// The server exports telemetry into the process-wide obs::Registry
// (docs/observability.md): bcop_serve_{submitted,rejected,batches}_total
// counters, a bcop_serve_queue_depth gauge, and batch_size /
// coalesce_wait_ns / e2e_latency_ns histograms. Recording is lock-free
// and rides the existing request path; stats() remains the in-process
// aggregate view.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/predictor.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_annotations.hpp"
#include "xnor/plan.hpp"

namespace bcop::serve {

class Router;

struct BatcherConfig {
  /// Largest coalesced batch handed to classify_batch.
  std::int64_t max_batch = 16;
  /// Bounded queue depth; try_submit() sheds while this many requests wait.
  std::int64_t queue_capacity = 64;
  /// How long a worker may hold an underfull batch open waiting for more
  /// requests, measured from the oldest member's enqueue time. 0 disables
  /// coalescing waits (every batch ships as soon as a worker is free).
  std::chrono::microseconds max_latency{2000};
  /// Worker tasks. 0 = synchronous mode: try_submit() classifies inline
  /// and returns a ready future (single-core hosts, tests).
  unsigned workers = 2;
  /// CPUs the worker tasks pin themselves to (parallel::pin_current_thread
  /// at loop entry; empty = unpinned). serve::Router hands each replica a
  /// disjoint set from parallel::partition_cpus so replicas do not migrate
  /// onto each other's caches. Pinning is a hint: an unpinnable host just
  /// runs unpinned.
  std::vector<int> pin_cpus;
  /// >= 0: this server is replica N of a serve::Router, and every metric
  /// it records lands in a bcop_serve_replica<N>_* family *in addition to*
  /// the process-wide bcop_serve_* family (so fleet-level dashboards and
  /// the 503<->rejected ledger keep working unchanged). -1: standalone
  /// server, global family only.
  int replica_id = -1;
};

struct ServerStats {
  std::int64_t requests = 0;      // total accepted
  std::int64_t batches = 0;       // classify_batch invocations
  std::int64_t coalesced = 0;     // requests that shared a batch (size > 1)
  std::int64_t max_batch_seen = 0;
};

enum class ServerState : int {
  kServing = 0,   // admitting requests
  kDraining = 1,  // no new admissions; accepted queue emptying
  kStopped = 2,   // drained and joined; swap_model() restarts
};

/// Lower-case state name for /healthz and logs ("serving", "draining", ...).
const char* to_string(ServerState state);

class BatchingServer {
 public:
  /// How one admission attempt ended.
  enum class Admission {
    kAccepted,     // future returned; bcop_serve*_submitted_total counted
    kShed,         // over watermark/capacity; bcop_serve*_rejected_total
                   // counted once -- terminal for the caller
    kUnavailable,  // not serving (draining/stopped); nothing counted and
                   // the image is intact, so a Router can place it elsewhere
  };

  struct Admitted {
    Admission admission = Admission::kUnavailable;
    std::future<core::Predictor::Result> future;  // valid() iff kAccepted
  };

  /// Clone `prototype` (Predictor::replicate: fresh plan cache) and start
  /// serving it. The prototype is only read during the call. A non-null
  /// `router` makes this one of its fast replicas: low-margin answers are
  /// handed back to it (see the header comment).
  BatchingServer(const core::Predictor& prototype, BatcherConfig config,
                 Router* router = nullptr);
  /// Drains (every accepted future resolves), then joins.
  ~BatchingServer();

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Non-blocking admission of one [S, S, C] image (or [1, S, S, C]): a
  /// caller that must never park (an HTTP worker holding hundreds of
  /// connections) gets a future, a shed or "not serving", never a wait.
  /// Sheds when the queue already holds min(queue_capacity, max_depth)
  /// requests (max_depth < 0 means "queue_capacity alone"; 0 sheds
  /// everything); synchronous servers (workers == 0) never shed. The image
  /// is moved from only on kAccepted. A mis-shaped image is a caller bug
  /// and fails a BCOP_CHECK -- the same contract classify_batch enforces.
  Admitted try_submit(tensor::Tensor& image, std::int64_t max_depth = -1)
      BCOP_EXCLUDES(mutex_) {
    return admit(image, max_depth, nullptr);
  }

  /// Stop admitting, let the workers answer (or hand back to the Router)
  /// every accepted request, join them: kServing -> kDraining -> kStopped.
  /// Blocks until drained.
  /// Idempotent; the destructor calls it. Concurrent drain/swap calls
  /// serialize.
  void drain() BCOP_EXCLUDES(admin_mutex_, mutex_);

  /// Zero-downtime model replacement: drain(), serve a fresh clone of
  /// `prototype`, restart the workers and bump generation(). Throws
  /// std::invalid_argument -- before draining, so the current generation
  /// keeps serving -- when `prototype` expects a different input shape.
  void swap_model(const core::Predictor& prototype)
      BCOP_EXCLUDES(admin_mutex_, mutex_);

  ServerState state() const { return state_.load(std::memory_order_acquire); }
  /// Models served so far: 1 after construction, +1 per swap_model.
  std::int64_t generation() const BCOP_EXCLUDES(mutex_);
  /// Requests currently waiting in the queue (excludes in-flight batches).
  /// The Router's placement scan and /healthz read this.
  std::int64_t queue_depth() const BCOP_EXCLUDES(mutex_);
  /// Totals since construction; they span every generation.
  ServerStats stats() const BCOP_EXCLUDES(mutex_);
  const BatcherConfig& config() const { return config_; }

 private:
  friend class Router;

  struct Request {
    tensor::Tensor image;  // [S, S, C] or [1, S, S, C]
    std::promise<core::Predictor::Result> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::int64_t max_depth = -1;  // its watermark; an escalation reuses it
  };

  /// Per-worker serving state, owned by the worker for its lifetime: the
  /// grow-only plan arena plus the coalesced input, logits and result
  /// buffers. Once the worker has seen a batch size, shipping that size
  /// again touches no allocator -- the whole inference is arena + reuse.
  struct WorkerState {
    xnor::Workspace ws;
    tensor::Tensor input;
    tensor::Tensor logits;
    std::vector<core::Predictor::Result> results;
  };

  /// The obs series this server records (global bcop_serve_* family plus,
  /// for Router replicas, the per-replica bcop_serve_replica<N>_* family).
  /// Defined in batcher.cpp; recording is lock-free either way.
  struct Metrics;

  /// try_submit, and the Router's placement of a hand-off: a non-null
  /// `handed` promise moves into the queue on kAccepted (no future is
  /// made), and shedding it counts no rejection -- the Router degrades it.
  Admitted admit(tensor::Tensor& image, std::int64_t max_depth,
                 std::promise<core::Predictor::Result>* handed)
      BCOP_EXCLUDES(mutex_);
  /// Fulfil `request` with `result`, or hand it back to router_.
  void resolve(Request& request, const core::Predictor::Result& result)
      BCOP_EXCLUDES(mutex_);
  void start_workers();
  void drain_admin() BCOP_REQUIRES(admin_mutex_) BCOP_EXCLUDES(mutex_);
  void worker_loop() BCOP_EXCLUDES(mutex_);
  void run_batch(std::deque<Request>& batch, const core::Predictor& model,
                 const tensor::Shape& image_shape, WorkerState& buffers)
      BCOP_EXCLUDES(mutex_);
  /// Synchronous (workers == 0) path: classify on the calling thread,
  /// under the lock so a concurrent swap cannot free the model mid-call.
  /// A throw lands in the request's promise and yields nullopt.
  std::optional<core::Predictor::Result> classify_inline(Request& request)
      BCOP_REQUIRES(mutex_);

  /// Apply `fn` to the global metrics family and, when this server is a
  /// replica, to its per-replica family too (defined in batcher.cpp).
  template <typename Fn>
  void each_metrics(Fn&& fn) const;

  const BatcherConfig config_;
  /// The tiered Router this fast replica hands low-margin answers to.
  Router* const router_;
  /// Per-replica metric family (bcop_serve_replica<N>_*); null unless
  /// config_.replica_id >= 0. The pointees are registry-owned and
  /// reference-stable; recording is relaxed atomics only.
  std::unique_ptr<Metrics> replica_metrics_;

  /// Serializes lifecycle operations (drain/swap_model/destruction) so
  /// two administrators cannot interleave a teardown with a restart.
  /// Ordering: admin_mutex_ is taken before mutex_, never the reverse.
  util::Mutex admin_mutex_ BCOP_ACQUIRED_BEFORE(mutex_);  // bcop-lint: allow(R8): serializes the drain/swap lifecycle region, guards no data member
  mutable util::Mutex mutex_;
  std::condition_variable cv_work_;  // queue became non-empty / draining
  /// Written only under mutex_ (so the serving -> draining flip orders
  /// against admission); read lock-free by the Router's placement scan.
  std::atomic<ServerState> state_{ServerState::kServing};
  std::deque<Request> queue_ BCOP_GUARDED_BY(mutex_);
  ServerStats stats_ BCOP_GUARDED_BY(mutex_);
  /// The served clone. Workers read it when they dequeue a batch; a swap
  /// reseats it only after the workers of the old generation have joined.
  std::unique_ptr<const core::Predictor> model_ BCOP_GUARDED_BY(mutex_);
  std::int64_t generation_ BCOP_GUARDED_BY(mutex_) = 1;
  /// Locked-in [S, S, C] request shape: the folded network's expected
  /// input when inferable, otherwise the first submitted image's shape.
  tensor::Shape image_shape_ BCOP_GUARDED_BY(mutex_);

  // Declared last: destroyed first would deadlock, so ~BatchingServer
  // drains and waits for the workers before members go away.
  parallel::ThreadPool pool_;
};

}  // namespace bcop::serve
