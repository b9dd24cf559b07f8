// Shared-memory work pool used by training and batched inference.
//
// Design follows the C++ Core Guidelines concurrency rules: the pool owns
// its threads (RAII, joined in the destructor), work items are type-erased
// std::function values moved into a mutex-protected queue, and no raw
// owning pointers or detached threads exist anywhere. `parallel_for`
// implements the OpenMP "parallel for schedule(static)" pattern: the index
// range is split into contiguous chunks, one per worker, and the caller
// blocks until all chunks finish. On a single-core host the pool degrades
// gracefully (work runs inline when the pool has zero workers).
//
// Locking contract (util/thread_annotations.hpp): every member below
// declares its guarding mutex, so a Clang `-DBCOP_THREAD_SAFETY=ON` build
// proves statically that no queue/bulk state is touched without mutex_
// held and that the public entry points never self-deadlock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace bcop::parallel {

class ThreadPool {
 public:
  /// Creates `threads` workers. 0 means "run submitted work inline", which
  /// keeps callers on single-core machines free of scheduling overhead.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task; returns immediately. Pair with wait_idle() to join.
  void submit(std::function<void()> task) BCOP_EXCLUDES(mutex_);

  /// Block until every submitted task has completed.
  void wait_idle() BCOP_EXCLUDES(mutex_);

  /// Chunk body for for_chunks: fn(ctx, chunk_begin, chunk_end).
  using ChunkFn = void (*)(void* ctx, std::int64_t, std::int64_t);

  /// Allocation-free static-schedule chunked loop over [begin, end): the
  /// body arrives as a raw function pointer + context, and workers claim
  /// contiguous chunks off a shared cursor, so the hot serving path posts
  /// no std::function objects and no queue nodes (measured by the
  /// steady-state allocation tests). The calling thread participates, and
  /// a range that makes a single chunk runs inline without touching the
  /// pool. Regions serialize per pool (one loop in flight at a time) and
  /// each fans out over every worker, so a region should be a whole unit
  /// of work: the plan interpreter makes one region per call (a whole
  /// batch replay), and concurrent callers then wait for each other's
  /// whole region. Exceptions from the body propagate to the caller
  /// (first one wins). Must not be called from inside a chunk body of the
  /// same pool (statically enforced by the BCOP_EXCLUDES below under
  /// Clang thread-safety builds).
  void for_chunks(std::int64_t begin, std::int64_t end, ChunkFn fn, void* ctx)
      BCOP_EXCLUDES(bulk_mutex_, mutex_);

  /// Process-wide pool sized to hardware_concurrency() - 1 workers.
  static ThreadPool& global();

 private:
  void worker_loop() BCOP_EXCLUDES(mutex_);
  void run_bulk_chunks() BCOP_EXCLUDES(mutex_);

  /// Wake condition for workers: shutdown, queued task, or an open bulk
  /// region with unclaimed chunks.
  bool has_work() const BCOP_REQUIRES(mutex_) {
    return stop_ || !queue_.empty() ||
           (bulk_fn_ != nullptr && bulk_cursor_ < bulk_end_);
  }

  std::vector<std::thread> workers_;  // written only in the constructor
  util::Mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::queue<std::function<void()>> queue_ BCOP_GUARDED_BY(mutex_);
  std::size_t in_flight_ BCOP_GUARDED_BY(mutex_) = 0;
  bool stop_ BCOP_GUARDED_BY(mutex_) = false;

  // Bulk-region state for for_chunks. All fields are guarded by mutex_
  // (chunks are coarse -- at most workers+1 per region -- so claiming
  // under the lock is cheaper than the allocation-free bookkeeping an
  // atomic cursor would need to stay epoch-safe). bulk_mutex_ serializes
  // whole regions; it is taken before mutex_ and never the other way
  // (declared via BCOP_ACQUIRED_BEFORE, checked under
  // -Wthread-safety-beta). It guards no data of its own -- it is a pure
  // region lock -- hence the R8 waiver.
  util::Mutex bulk_mutex_
      BCOP_ACQUIRED_BEFORE(mutex_);  // bcop-lint: allow(R8): region lock, guards no members
  ChunkFn bulk_fn_ BCOP_GUARDED_BY(mutex_) = nullptr;
  void* bulk_ctx_ BCOP_GUARDED_BY(mutex_) = nullptr;
  std::int64_t bulk_cursor_ BCOP_GUARDED_BY(mutex_) = 0;
  std::int64_t bulk_end_ BCOP_GUARDED_BY(mutex_) = 0;
  std::int64_t bulk_chunk_ BCOP_GUARDED_BY(mutex_) = 1;
  std::int64_t bulk_pending_ BCOP_GUARDED_BY(mutex_) = 0;
  bool bulk_failed_ BCOP_GUARDED_BY(mutex_) = false;
  std::exception_ptr bulk_error_ BCOP_GUARDED_BY(mutex_);
  std::condition_variable cv_bulk_done_;
};

/// Static-schedule parallel loop over [begin, end). `body(i)` is invoked
/// exactly once for every index, from the calling thread and/or workers.
/// Exceptions from the body propagate to the caller (first one wins).
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body);

/// Chunked variant: body receives [chunk_begin, chunk_end) ranges. Useful
/// when per-index dispatch through std::function would dominate.
void parallel_for_chunked(
    ThreadPool& pool, std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace bcop::parallel
