#include "engine/thread_pool.hpp"

#include <chrono>

namespace psra::engine {

namespace {
// True on a thread that is currently executing inside a parallel region
// (pool worker running chunks, or a caller thread between publish and
// drain). Nested ParallelFor calls from such threads run serially inline.
thread_local bool t_in_parallel_region = false;
// The pool whose resident worker this thread is (null elsewhere) and its
// CurrentSlot() there.
thread_local const ThreadPool* t_pool = nullptr;
thread_local std::size_t t_slot = 0;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // On a single-core host, broadcasting a job to the workers is pure
  // overhead (the caller already participates and results never depend on
  // the pool size), so dispatch falls back to the inline serial path.
  serial_dispatch_ = std::thread::hardware_concurrency() == 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

std::size_t ThreadPool::CurrentSlot() const {
  return t_pool == this ? t_slot : 0;
}

double ThreadPool::ThreadSeconds() {
  thread_local const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::RunChunks(BlockFn fn, void* ctx, std::size_t count,
                           std::size_t grain) {
  for (;;) {
    const std::size_t begin =
        job_cursor_.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= count) break;
    const std::size_t end = std::min(count, begin + grain);
    try {
      fn(ctx, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job_error_) job_error_ = std::current_exception();
    }
  }
}

void ThreadPool::WorkerLoop(std::size_t slot) {
  t_pool = this;
  t_slot = slot;
  std::uint64_t seen_generation = 0;
  for (;;) {
    BlockFn fn;
    void* ctx;
    std::size_t count, grain;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_cv_.wait(lock, [&] {
        return stop_ || job_generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = job_generation_;
      fn = job_fn_;
      ctx = job_ctx_;
      count = job_count_;
      grain = job_grain_;
    }
    t_in_parallel_region = true;
    RunChunks(fn, ctx, count, grain);
    t_in_parallel_region = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::RunBlocked(std::size_t count, std::size_t grain, BlockFn fn,
                            void* ctx) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t blocks = (count + grain - 1) / grain;
  // Serial paths: single-thread pools, ranges too small to split, and
  // re-entrant calls (from a chunk body, or from a second ParallelFor on the
  // same thread) — re-entering the broadcast would deadlock.
  if (workers_.size() <= 1 || blocks <= 1 || serial_dispatch_ ||
      t_in_parallel_region) {
    for (std::size_t b = 0; b < count; b += grain) {
      fn(ctx, b, std::min(count, b + grain));
    }
    return;
  }

  // One region at a time; concurrent external callers queue up here.
  std::lock_guard<std::mutex> region(region_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_count_ = count;
    job_grain_ = grain;
    job_cursor_.store(0, std::memory_order_relaxed);
    workers_active_ = workers_.size();
    ++job_generation_;
  }
  job_cv_.notify_all();

  // The calling thread works too (it would otherwise idle-wait).
  t_in_parallel_region = true;
  RunChunks(fn, ctx, count, grain);
  t_in_parallel_region = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return workers_active_ == 0; });
    error = std::exchange(job_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace psra::engine
