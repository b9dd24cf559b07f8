// CPU-affinity helpers for replica worker pinning.
//
// The FINN scale-out work (Fraser et al.) replicates compute engines and
// gives each its own slice of the fabric; the CPU analogue is one serving
// replica per disjoint core set, so replicas never migrate onto each
// other's caches and the capacity sweep (bench/bench_capacity) measures
// cores -> req/s instead of scheduler noise. The workers of each
// serve::BatchingServer replica call pin_current_thread() with the set
// handed out by partition_cpus().
//
// Everything degrades gracefully: on hosts without sched_setaffinity (or
// when the requested CPUs are outside the process mask) pinning reports
// false and the caller keeps running unpinned -- pinning is a performance
// hint, never a correctness dependency. No raw std::thread here (repo
// rule R2): these helpers act on the *calling* thread only.
#pragma once

#include <vector>

namespace bcop::parallel {

/// CPUs the current process may run on (affinity-mask aware, not just
/// hardware_concurrency). Falls back to hardware_concurrency when the
/// mask cannot be read; never returns less than 1.
int available_cpus();

/// The CPU ids in the process's affinity mask, in ascending order.
/// Empty when the mask cannot be read.
std::vector<int> cpu_ids();

/// Pin the calling thread to `cpus` (ids as reported by cpu_ids()).
/// Returns false -- leaving the thread unpinned -- when `cpus` is empty,
/// contains no runnable CPU, or the platform has no affinity syscall.
bool pin_current_thread(const std::vector<int>& cpus);

/// Partition the process's CPUs into `groups` disjoint sets and return
/// set `group` (round-robin deal, so sets differ in size by at most one).
/// With more groups than CPUs the deal wraps: sets beyond the CPU count
/// alias earlier ones rather than coming back empty -- oversubscription
/// degrades, it never disables a replica. `groups` must be >= 1 and
/// `group` < `groups` (BCOP_CHECK).
std::vector<int> partition_cpus(unsigned group, unsigned groups);

}  // namespace bcop::parallel
