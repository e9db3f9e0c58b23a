// A fixed-size worker pool with an order-preserving parallel-for.
//
// The engine's preprocessing phase (Theorem 2.3's f(q,eps)*n^{1+eps} term)
// decomposes into embarrassingly parallel stages: per-bag kernel BFS,
// per-list skip-pointer construction, per-vertex color scans, and one
// read-only extendable descent per base vertex. ParallelFor shards such an
// index range over the pool; callers write results into slot i of a pre-sized
// output, so collected results are identical to the serial order no matter
// how chunks are scheduled.
//
// The pool is intentionally minimal: no futures, no task graph, no
// exceptions (the library aborts on invariant violations via NWD_CHECK).
// Workers park on a condition variable between calls; a pool with
// num_threads() == 1 never spawns a thread and runs everything inline,
// which is the engine's bit-for-bit serial reference path.

#ifndef NWD_UTIL_THREAD_POOL_H_
#define NWD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nwd {

class ResourceBudget;

class ThreadPool {
 public:
  // `num_threads` <= 0 resolves to std::thread::hardware_concurrency()
  // (at least 1); 1 means fully inline execution with no worker threads.
  // The calling thread always participates as worker 0, so only
  // num_threads() - 1 OS threads are spawned.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism, including the calling thread.
  int num_threads() const { return num_threads_; }

  // Runs fn(i, worker) exactly once for every i in [begin, end), sharding
  // the range into contiguous chunks of at most `grain` indices (grain >= 1).
  // `worker` is a stable id in [0, num_threads()); use it to index
  // per-thread scratch. Blocks until every index is processed. Not
  // reentrant: fn must not call ParallelFor on the same pool.
  //
  // When `budget` is non-null the loop is cancelable: workers re-check
  // budget->Exceeded() before claiming each chunk and stop dispatching
  // once it trips, so a budget trip ends an in-flight parallel stage after
  // at most one grain per worker. A canceled loop leaves the tail indices
  // unprocessed — callers must treat the stage's output as discardable
  // whenever the budget reports Exceeded() afterwards.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int)>& fn,
                   const ResourceBudget* budget = nullptr);

 private:
  struct Job {
    int64_t end = 0;
    int64_t grain = 1;
    const std::function<void(int64_t, int)>* fn = nullptr;
    const ResourceBudget* budget = nullptr;  // optional cancellation
    std::atomic<int64_t> next{0};            // first unclaimed index
  };

  void WorkerLoop(int worker);
  static void RunChunks(Job* job, int worker);

  int num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new job
  std::condition_variable done_cv_;   // caller waits for workers to finish
  uint64_t generation_ = 0;           // bumped per ParallelFor (guarded)
  Job* job_ = nullptr;                // current job (guarded)
  int workers_active_ = 0;            // workers still on the job (guarded)
  bool shutdown_ = false;             // guarded
};

}  // namespace nwd

#endif  // NWD_UTIL_THREAD_POOL_H_
