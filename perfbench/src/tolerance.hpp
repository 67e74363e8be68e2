// Progress sink that times an engine run from the outside.
//
// The engine calls Report once per iteration, right after it computes the
// iteration's residuals. The sink stamps each call with the calling thread's
// CPU clock, so consecutive stamps give per-iteration on-CPU time, and for
// each relative tolerance it records the first iteration whose primal and
// dual residuals have both fallen to that multiple of their iteration-1
// values, with the host time it was reached.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "admm/common.hpp"

namespace perfbench {

/// CPU seconds used so far by the calling thread. The kernel leaves out time
/// the thread spent runnable but off the CPU: preempted, or its virtual CPU
/// stolen by the hypervisor.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

class ToleranceSink : public psra::admm::ProgressSink {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ToleranceSink(std::vector<double> rel_tols)
      : rel_tols_(std::move(rel_tols)),
        crossed_iteration_(rel_tols_.size(), 0),
        crossed_s_(rel_tols_.size(), 0.0) {}

  /// Resets the sink for a run of `max_iterations` that starts at `start`
  /// (taken just before the engine's Run is entered).
  void Start(Clock::time_point start, std::uint64_t max_iterations) {
    start_ = start;
    iter_cpu_ms_.clear();
    iter_cpu_ms_.reserve(max_iterations);
    reports_ = 0;
    crossed_iteration_.assign(rel_tols_.size(), 0);
    crossed_s_.assign(rel_tols_.size(), 0.0);
    primal1_ = dual1_ = 0.0;
  }

  void Report(const psra::admm::ProgressUpdate& u) override {
    Observe(u, Clock::now(), ThreadCpuSeconds());
  }

  /// Report with explicit host and thread-CPU stamps (the testable core of
  /// Report).
  void Observe(const psra::admm::ProgressUpdate& u, Clock::time_point now,
               double cpu_s = 0.0) {
    ++reports_;
    // Iteration 1 also pays the engine's per-run construction, so only the
    // gaps between consecutive iterations count as iteration times.
    if (reports_ > 1) iter_cpu_ms_.push_back((cpu_s - last_cpu_s_) * 1e3);
    last_cpu_s_ = cpu_s;
    if (u.iteration == 1) {
      primal1_ = u.primal_residual;
      dual1_ = u.dual_residual;
      return;
    }
    for (std::size_t k = 0; k < rel_tols_.size(); ++k) {
      if (crossed_iteration_[k] == 0 &&
          u.primal_residual <= rel_tols_[k] * primal1_ &&
          u.dual_residual <= rel_tols_[k] * dual1_) {
        crossed_iteration_[k] = u.iteration;
        crossed_s_[k] = std::chrono::duration<double>(now - start_).count();
      }
    }
  }

  /// On-CPU ms of the reporting thread between consecutive iterations
  /// (iterations 2..N). In a serial run that thread does all the work and
  /// never blocks, so this is the iteration's host time without the time it
  /// was kept off the CPU.
  const std::vector<double>& iter_cpu_ms() const { return iter_cpu_ms_; }
  /// First iteration at tolerance k (0 when never reached).
  std::uint64_t crossed_iteration(std::size_t k) const {
    return crossed_iteration_[k];
  }
  /// Host seconds from Start to the report of crossed_iteration(k).
  double crossed_s(std::size_t k) const { return crossed_s_[k]; }

 private:
  std::vector<double> rel_tols_;
  Clock::time_point start_{};
  double last_cpu_s_ = 0.0;
  std::vector<double> iter_cpu_ms_;
  std::uint64_t reports_ = 0;
  std::vector<std::uint64_t> crossed_iteration_;
  std::vector<double> crossed_s_;
  double primal1_ = 0.0;
  double dual1_ = 0.0;
};

}  // namespace perfbench
