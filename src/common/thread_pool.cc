#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "obs/clock.h"

namespace hygraph {

namespace {

/// Set inside WorkerLoop: a morsel body that fans out again runs its inner
/// morsels inline instead of publishing a nested job (see class comment).
thread_local bool t_is_pool_worker = false;

/// Total parallelism target (caller + helpers): HYGRAPH_THREADS when set
/// and positive, otherwise the hardware thread count. Read once.
size_t TotalParallelismFromEnv() {
  if (const char* env = std::getenv("HYGRAPH_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v > 0) {
      return std::min<size_t>(static_cast<size_t>(v), 256);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace

ThreadPool::ThreadPool() {
  MutexLock lock(mu_);
  target_workers_ = TotalParallelismFromEnv() - 1;
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> joinable;
  {
    MutexLock lock(mu_);
    stop_ = true;
    joinable.swap(threads_);
  }
  cv_.notify_all();
  join_cv_.notify_all();
  for (std::thread& t : joinable) t.join();
}

ThreadPool* ThreadPool::Instance() {
  static ThreadPool pool;
  return &pool;
}

size_t ThreadPool::worker_count() const {
  MutexLock lock(mu_);
  return target_workers_;
}

void ThreadPool::SetWorkerCount(size_t workers) {
  MutexLock lock(mu_);
  if (workers <= target_workers_) return;  // grow-only
  target_workers_ = workers;
  if (!threads_.empty()) EnsureWorkersLocked();
}

void ThreadPool::EnsureWorkersLocked() {
  while (threads_.size() < target_workers_) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::DrainJob(Job& job, const obs::Clock* helper_clock) {
  uint64_t mark = helper_clock != nullptr ? helper_clock->NowNanos() : 0;
  for (;;) {
    const size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    if (!job.failed.load(std::memory_order_acquire)) {
      Status s = (*job.body)(i);
      if (!s.ok() &&
          !job.failed.exchange(true, std::memory_order_acq_rel)) {
        // First failure wins; the release increment below publishes the
        // error to the caller's acquire load at the join barrier.
        job.error = std::move(s);
      }
    }
    if (helper_clock != nullptr) {
      const uint64_t now = helper_clock->NowNanos();
      if (job.stats.morsels_stolen != nullptr) {
        job.stats.morsels_stolen->Increment();
      }
      if (job.stats.worker_busy_nanos != nullptr) {
        job.stats.worker_busy_nanos->Add(now - mark);
      }
      mark = now;
    }
    job.retired.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::WorkerLoop() {
  t_is_pool_worker = true;
  const obs::Clock* clock = obs::SystemClock::Instance();
  for (;;) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mu_);
      while (!stop_ && job == nullptr) {
        for (const std::shared_ptr<Job>& candidate : jobs_) {
          if (candidate->next.load(std::memory_order_relaxed) >=
              candidate->n) {
            continue;  // exhausted; the publishing caller erases it
          }
          // A slot caps how many helpers attach to one job
          // (ParallelFor's max_parallelism); racing decrements below zero
          // just put the slot back.
          if (candidate->helper_slots.fetch_sub(
                  1, std::memory_order_relaxed) > 0) {
            job = candidate;
            break;
          }
          candidate->helper_slots.fetch_add(1, std::memory_order_relaxed);
        }
        if (job == nullptr) cv_.wait(mu_);
      }
      if (job == nullptr) return;  // stop_ set with nothing to drain
    }
    DrainJob(*job, clock);
    if (job->retired.load(std::memory_order_acquire) >= job->n) {
      // Last retiree wakes the publishing caller; taking the queue mutex
      // first makes the wakeup race-free against the caller's wait check.
      MutexLock lock(mu_);
      join_cv_.notify_all();
    }
  }
}

Status ThreadPool::ParallelFor(size_t morsels, size_t max_parallelism,
                               const std::function<Status(size_t)>& body,
                               const ParallelForStats& stats) {
  if (morsels == 0) return Status::OK();
  if (stats.morsels_dispatched != nullptr) {
    stats.morsels_dispatched->Add(morsels);
  }
  size_t helpers = worker_count();
  if (max_parallelism > 0) {
    helpers = std::min(helpers, max_parallelism - 1);
  }
  helpers = std::min(helpers, morsels - 1);
  if (helpers == 0 || t_is_pool_worker) {
    for (size_t i = 0; i < morsels; ++i) {
      HYGRAPH_RETURN_IF_ERROR(body(i));
    }
    return Status::OK();
  }

  auto job = std::make_shared<Job>();
  job->n = morsels;
  job->body = &body;
  job->stats = stats;
  job->helper_slots.store(static_cast<int>(helpers),
                          std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    EnsureWorkersLocked();
    jobs_.push_back(job);
  }
  cv_.notify_all();
  parallel_jobs_.fetch_add(1, std::memory_order_relaxed);

  DrainJob(*job, nullptr);  // the caller participates

  {
    MutexLock lock(mu_);
    while (job->retired.load(std::memory_order_acquire) < job->n) {
      join_cv_.wait(mu_);
    }
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (*it == job) {
        jobs_.erase(it);
        break;
      }
    }
  }
  if (job->failed.load(std::memory_order_acquire)) return job->error;
  return Status::OK();
}

}  // namespace hygraph
