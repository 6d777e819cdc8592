#ifndef HYGRAPH_COMMON_THREAD_POOL_H_
#define HYGRAPH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace hygraph {

/// Optional instrumentation sinks for one ParallelFor call. The pool is
/// process-wide while metrics registries are per-store, so the counters are
/// injected per call (raw pointers into the caller's registry, same pattern
/// as SyncInstruments). Null members disable that event.
struct ParallelForStats {
  /// Every morsel executed (caller- or worker-run).
  obs::Counter* morsels_dispatched = nullptr;
  /// Morsels executed by helper workers rather than the calling thread.
  obs::Counter* morsels_stolen = nullptr;
  /// Wall time helper workers spent executing this call's morsels. The
  /// caller's own share is already inside the caller's wall time, so this
  /// is exactly the extra CPU the pool contributed (PROFILE's
  /// "scan.workers" span).
  obs::Counter* worker_busy_nanos = nullptr;
};

/// Process-wide worker pool for intra-query (morsel-driven) parallelism.
///
/// Shape: one global pool, sized once from std::thread::hardware_concurrency
/// with an HYGRAPH_THREADS override (total parallelism including the caller;
/// 1 disables the pool, 0/unset means the hardware count). Threads spawn
/// lazily on the first fan-out, so merely linking the pool costs nothing.
///
/// Execution model (Leis et al., "Morsel-Driven Parallelism"): ParallelFor
/// publishes a job of `n` independent morsels behind one shared atomic
/// cursor; idle workers attach and the CALLING THREAD PARTICIPATES, so a
/// fan-out never blocks on a busy pool — worst case the caller runs every
/// morsel itself and the call degrades to the serial loop. Each claimer
/// drains the cursor until the job is exhausted or a morsel fails; the
/// first non-OK Status wins, later claims are abandoned (their morsels are
/// retired unrun), and the caller returns after a single join barrier when
/// every claimed morsel has retired.
///
/// Locking: the queue mutex is ranked (LockRank::kThreadPool, between the
/// per-series shard lock and the leaf aggregate-cache mutex) and is NEVER
/// held while a morsel body runs, so bodies are free to take any lock the
/// hierarchy allows a plain thread. Bodies run on threads with no
/// thread-local QueryContext installed: governance inside a morsel goes
/// through QueryContext::CheckCrossThread() (cancel + deadline are
/// thread-safe) and work is charged by the caller at the join barrier.
///
/// Nested fan-out from inside a morsel body is not supported (a body that
/// calls ParallelFor simply runs its morsels inline; helpers never attach
/// to jobs published by other helpers), which keeps the join barrier
/// deadlock-free by construction.
class ThreadPool {
 public:
  /// The process-wide pool (never null; created on first use).
  static ThreadPool* Instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Helper threads this pool will run once spawned (0 = fan-outs execute
  /// serially on the caller). Total parallelism is worker_count() + 1.
  size_t worker_count() const;

  /// Grows the helper-thread target to exactly `workers` (benches and tests
  /// use it to exercise parallel schedules on small machines). Shrinking is
  /// not supported — per-call `max_parallelism` caps a single fan-out.
  void SetWorkerCount(size_t workers);

  /// Runs body(i) for every i in [0, morsels); the calling thread
  /// participates. At most `max_parallelism` threads (including the
  /// caller) execute concurrently; 0 means "no cap beyond pool size".
  /// Returns the first morsel failure, after all claimed morsels retired.
  Status ParallelFor(size_t morsels, size_t max_parallelism,
                     const std::function<Status(size_t)>& body,
                     const ParallelForStats& stats = {});

  /// Cumulative fan-outs that actually went parallel (≥1 helper attached).
  uint64_t parallel_jobs() const {
    return parallel_jobs_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    size_t n = 0;
    const std::function<Status(size_t)>* body = nullptr;
    ParallelForStats stats;
    std::atomic<size_t> next{0};     // morsel claim cursor
    std::atomic<size_t> retired{0};  // morsels finished (run or abandoned)
    std::atomic<bool> failed{false};
    std::atomic<int> helper_slots{0};  // helpers still allowed to attach
    Status error;  // written by the failed.exchange winner, read post-join
  };

  ThreadPool();

  void EnsureWorkersLocked() HYGRAPH_REQUIRES(mu_);
  void WorkerLoop();
  /// Claims and runs morsels of `job` until it is exhausted or failed. A
  /// helper (worker thread) passes its clock and records each morsel in
  /// the job's stolen/busy counters BEFORE retiring it: once the last
  /// morsel retires, ParallelFor may return and the registry holding
  /// those counters may be destroyed. The publishing caller passes null.
  void DrainJob(Job& job, const obs::Clock* helper_clock);

  mutable Mutex mu_{LockRank::kThreadPool};
  std::condition_variable_any cv_;           // workers: "a job is available"
  std::condition_variable_any join_cv_;      // callers: "a job fully retired"
  std::deque<std::shared_ptr<Job>> jobs_ HYGRAPH_GUARDED_BY(mu_);
  std::vector<std::thread> threads_  // NOLINT(hygraph-raw-thread): the pool
      HYGRAPH_GUARDED_BY(mu_);       // IS the sanctioned thread owner
  size_t target_workers_ HYGRAPH_GUARDED_BY(mu_) = 0;
  bool stop_ HYGRAPH_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> parallel_jobs_{0};
};

}  // namespace hygraph

#endif  // HYGRAPH_COMMON_THREAD_POOL_H_
