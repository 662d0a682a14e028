#ifndef STARBURST_COMMON_THREAD_POOL_H_
#define STARBURST_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace starburst {

/// A fixed-size worker pool with a chunked parallel-for, shared by the
/// analysis pair sweeps and the batch-analysis facade.
///
/// Concurrency model: a pool of size N runs chunks on the calling thread
/// plus N-1 persistent workers, so `ThreadPool(1)` spawns no threads and
/// executes every chunk inline on the caller — single-threaded behavior is
/// bit-identical to not using the pool at all. Determinism is the callers'
/// contract: every chunk must write only to its own pre-sized slots, so
/// results never depend on scheduling.
///
/// ParallelFor calls on one pool are serialized (one job at a time); a
/// nested ParallelFor issued from inside a chunk runs inline on that thread
/// instead of deadlocking on the busy pool (see InParallelRegion()).
class ThreadPool {
 public:
  /// Creates a pool of logical size `num_threads` (clamped to >= 1),
  /// spawning num_threads - 1 worker threads.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Splits [0, n) into chunks of at most `grain` indices (grain 0 is
  /// treated as 1) and runs `fn(begin, end)` over every chunk, blocking
  /// until all chunks finish. Chunk boundaries are identical regardless of
  /// thread count; only the execution order differs. The first exception
  /// thrown by a chunk is rethrown to the caller once every in-flight chunk
  /// has drained (remaining unstarted chunks are abandoned).
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// True when the calling thread is currently executing a ParallelFor
  /// chunk (of any pool). Nested ParallelFor calls detect this and run
  /// inline.
  static bool InParallelRegion();

  /// The pool size used by Default(): the STARBURST_THREADS environment
  /// variable when set to a positive integer, else hardware_concurrency()
  /// (else 1).
  static int DefaultThreadCount();

  /// The process-wide shared pool, created on first use with
  /// DefaultThreadCount() threads.
  static ThreadPool& Default();

  /// Replaces the Default() pool with one of `num_threads` threads. A test
  /// and benchmark hook (the determinism suite sweeps 1/2/8 in one
  /// process); must not race with concurrent Default() users.
  static void SetDefaultThreadCount(int num_threads);

 private:
  void WorkerLoop();
  /// Claims and runs chunks of the current job until none remain or the
  /// job aborted on an exception.
  void RunChunks();

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex call_mu_;  // serializes ParallelFor calls on this pool

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  /// Incremented per job; workers wake when it changes.
  uint64_t job_generation_ = 0;
  int workers_active_ = 0;
  std::exception_ptr first_error_;

  // Current job (set while a ParallelFor is active).
  const std::function<void(size_t, size_t)>* job_fn_ = nullptr;
  size_t job_n_ = 0;
  size_t job_grain_ = 0;
  std::atomic<size_t> next_chunk_{0};
  std::atomic<bool> job_abort_{false};
};

/// Convenience: ThreadPool::Default().ParallelFor(n, grain, fn).
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace starburst

#endif  // STARBURST_COMMON_THREAD_POOL_H_
