#pragma once

// Parallel runner for independent jobs.
//
// The EventLoop is single-threaded by design: one loop = one simulated
// world, and parallelism belongs one level up. This header is that level
// up — it farms a list of independent jobs (one `(clients, mode)` world
// of an experiment grid, or one RSA key of a world under construction)
// onto a pool of std::thread workers. Determinism is preserved because
// every job builds its own result from its own inputs and results are
// stored by job index, so the output is byte-identical to a serial run
// regardless of thread count or scheduling order.
//
// Thread count: min(hardware_concurrency, jobs), overridable with the
// HIPCLOUD_SWEEP_THREADS environment variable (set it to 1 to force the
// serial order for debugging; the numbers do not change either way).

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hipcloud::sim {

inline unsigned sweep_thread_count(std::size_t jobs) {
  if (const char* env = std::getenv("HIPCLOUD_SWEEP_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<unsigned>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return jobs < hw ? static_cast<unsigned>(jobs) : hw;
}

/// Run `fn(i)` for every i in [0, jobs) on `threads` workers and return
/// the results in job order. `fn` must be callable concurrently from
/// multiple threads as long as each invocation touches only its own
/// world. The first exception thrown by any job is rethrown on the
/// caller's thread after all workers join.
template <typename Result, typename Fn>
std::vector<Result> sweep(std::size_t jobs, Fn&& fn, unsigned threads = 0) {
  std::vector<Result> results(jobs);
  if (jobs == 0) return results;
  if (threads == 0) threads = sweep_thread_count(jobs);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < jobs; i = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace hipcloud::sim
