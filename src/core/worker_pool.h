#ifndef PULLMON_CORE_WORKER_POOL_H_
#define PULLMON_CORE_WORKER_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pullmon {

/// Fixed-size pool of worker threads for the sharded monitor's fork/join
/// phases. Run() hands jobs 0..num_jobs-1 to the pool and blocks until
/// all complete; workers grab jobs dynamically (coarse work stealing —
/// jobs are per-shard, so there are at most a few dozen). With `threads`
/// <= 1 the pool spawns nothing and Run() executes inline, making the
/// single-threaded configuration literally the serial code path.
///
/// Memory-ordering contract (DESIGN.md section 16): every job pickup
/// and completion is sequenced through the pool mutex, so all writes a
/// worker makes inside fn(job) happen-before Run()'s return on the
/// calling thread — phases need no atomics on the data they hand over.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Executes fn(0) .. fn(num_jobs - 1), each exactly once, on the pool
  /// (inline when the pool is serial). Blocks until every job is done.
  /// fn must not call Run() reentrantly.
  void Run(int num_jobs, const std::function<void(int)>& fn);

 private:
  void WorkerLoop();

  const int threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a generation
  std::condition_variable done_cv_;   // Run() waits for completion
  const std::function<void(int)>* fn_ = nullptr;
  int generation_ = 0;
  int num_jobs_ = 0;
  int next_job_ = 0;
  int jobs_done_ = 0;
  bool shutdown_ = false;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_WORKER_POOL_H_
