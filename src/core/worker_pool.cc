#include "core/worker_pool.h"

namespace pullmon {

WorkerPool::WorkerPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  if (threads_ <= 1) return;
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::Run(int num_jobs, const std::function<void(int)>& fn) {
  if (num_jobs <= 0) return;
  if (workers_.empty()) {
    for (int job = 0; job < num_jobs; ++job) fn(job);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    num_jobs_ = num_jobs;
    next_job_ = 0;
    jobs_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return jobs_done_ == num_jobs_; });
  fn_ = nullptr;
}

void WorkerPool::WorkerLoop() {
  int seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (generation_ != seen_generation &&
                           next_job_ < num_jobs_);
    });
    if (shutdown_) return;
    const int generation = generation_;
    while (generation_ == generation && next_job_ < num_jobs_) {
      const int job = next_job_++;
      const std::function<void(int)>* fn = fn_;
      lock.unlock();
      (*fn)(job);
      lock.lock();
      ++jobs_done_;
      if (jobs_done_ == num_jobs_) done_cv_.notify_all();
    }
    seen_generation = generation;
  }
}

}  // namespace pullmon
