// Compile-time concurrency contracts: Clang thread-safety annotations and
// the annotated mutex vocabulary the whole repo locks with.
//
// FINN argues its resource guarantees from construction, not observation;
// this header does the same for locking. Every mutex-protected member in
// src/ declares which mutex guards it (BCOP_GUARDED_BY), every locking
// method declares what it acquires (BCOP_ACQUIRE / BCOP_RELEASE /
// BCOP_REQUIRES / BCOP_EXCLUDES), and a Clang build with
// `-DBCOP_THREAD_SAFETY=ON` turns the contracts into hard compile errors
// (`-Wthread-safety -Werror=thread-safety`). Under GCC every macro expands
// to nothing, so the annotations cost zero in the default toolchain.
//
// Clang's analysis only understands lock/unlock functions that carry the
// attributes, and libstdc++'s std::mutex does not. The repo therefore
// locks through the wrappers below -- util::Mutex (an annotated capability
// around std::mutex) plus the scoped MutexLock / UniqueLock -- instead of
// raw std::mutex + std::lock_guard. Lint rule R8 enforces both halves of
// the convention: no raw std::mutex members outside this header, and every
// Mutex member must have at least one BCOP_GUARDED_BY referring to it.
//
// Condition-variable convention: Clang cannot see through a predicate
// lambda handed to condition_variable::wait, so wait sites are written as
// explicit loops over guarded state --
//
//     util::UniqueLock lock(mutex_);
//     while (!ready_) cv_.wait(lock.native());
//
// The analysis treats the capability as held across the wait (the wait
// reacquires before returning, so every guarded access in the loop is in
// fact protected).
//
// Attribute reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define BCOP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef BCOP_THREAD_ANNOTATION
#define BCOP_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex" names the capability
/// kind in diagnostics).
#define BCOP_CAPABILITY(x) BCOP_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define BCOP_SCOPED_CAPABILITY BCOP_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the named mutex.
#define BCOP_GUARDED_BY(x) BCOP_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named mutex.
#define BCOP_PT_GUARDED_BY(x) BCOP_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (held on return).
#define BCOP_ACQUIRE(...) \
  BCOP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (caller must hold it).
#define BCOP_RELEASE(...) \
  BCOP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define BCOP_TRY_ACQUIRE(...) \
  BCOP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must already hold the capability.
#define BCOP_REQUIRES(...) \
  BCOP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention for
/// self-locking public APIs).
#define BCOP_EXCLUDES(...) BCOP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Lock-ordering declarations (checked under -Wthread-safety-beta).
#define BCOP_ACQUIRED_BEFORE(...) \
  BCOP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BCOP_ACQUIRED_AFTER(...) \
  BCOP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define BCOP_RETURN_CAPABILITY(x) BCOP_THREAD_ANNOTATION(lock_returned(x))

namespace bcop::util {

/// Annotated exclusive mutex: std::mutex wearing the capability attribute
/// so Clang tracks lock()/unlock() pairing and GUARDED_BY accesses.
/// Prefer the scoped MutexLock / UniqueLock over calling lock() directly.
class BCOP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BCOP_ACQUIRE() { m_.lock(); }
  void unlock() BCOP_RELEASE() { m_.unlock(); }
  bool try_lock() BCOP_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped std::mutex, for condition-variable waits (which
  /// need a std::unique_lock<std::mutex>). Waits follow the loop
  /// convention documented at the top of this header.
  std::mutex& native() noexcept { return m_; }

 private:
  std::mutex m_;
};

/// std::lock_guard equivalent: acquires in the constructor, releases in
/// the destructor, no manual unlock.
class BCOP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) BCOP_ACQUIRE(m) : lock_(m.native()) {}
  ~MutexLock() BCOP_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

/// std::unique_lock equivalent: scoped like MutexLock but relockable
/// (lock()/unlock() mid-scope) and usable with condition variables via
/// native(). The destructor releases only if currently held.
class BCOP_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) BCOP_ACQUIRE(m) : lock_(m.native()) {}
  ~UniqueLock() BCOP_RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() BCOP_ACQUIRE() { lock_.lock(); }
  void unlock() BCOP_RELEASE() { lock_.unlock(); }
  bool owns_lock() const noexcept { return lock_.owns_lock(); }

  /// The underlying std::unique_lock for condition_variable::wait.
  std::unique_lock<std::mutex>& native() noexcept { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace bcop::util
