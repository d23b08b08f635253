#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "sim/event_loop.hpp"
#include "sim/time.hpp"

namespace hipcloud::sim {

/// Serializing CPU model: work items queue FIFO on a single virtual core
/// whose speed is expressed in cycles per second. Instance types (EC2
/// micro vs large) differ by `cycles_per_second`; crypto and application
/// costs are expressed in cycles so the same workload takes longer on a
/// weaker instance.
class CpuScheduler {
 public:
  CpuScheduler(EventLoop& loop, double cycles_per_second)
      : loop_(loop), cycles_per_second_(cycles_per_second) {}

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  double cycles_per_second() const { return cycles_per_second_; }
  void set_cycles_per_second(double cps) { cycles_per_second_ = cps; }

  /// Enable EC2-t1.micro-style burst crediting: work executes at
  /// `burst_cps` while the credit bucket lasts, then falls back to the
  /// base rate. Credits do not replenish within a scenario (t1.micro
  /// credits regenerate over tens of minutes — beyond our runs).
  void enable_burst(double burst_cps, double credit_cycles) {
    burst_cps_ = burst_cps;
    credit_cycles_ = credit_cycles;
  }
  double remaining_credit_cycles() const { return credit_cycles_; }

  /// Enqueue `cycles` of work; `done` (any `void()` callable) runs when
  /// the core has executed it (after all previously queued work). The
  /// continuation is forwarded straight into its event slot. Zero-cost
  /// work still round-trips through the event loop to preserve FIFO
  /// ordering.
  template <typename F>
  void run(double cycles, F&& done) {
    const Duration d = duration_of(cycles);
    const Time start = std::max(loop_.now(), busy_until_);
    busy_until_ = start + d;
    total_cycles_ += cycles;
    loop_.schedule_at(busy_until_, std::forward<F>(done));
  }

  /// Charge cycles without a continuation (fire-and-forget accounting).
  void charge(double cycles) {
    const Time start = std::max(loop_.now(), busy_until_);
    busy_until_ = start + duration_of(cycles);
    total_cycles_ += cycles;
  }

  /// Virtual time until which the core is committed.
  Time busy_until() const { return busy_until_; }

  /// Instantaneous queue delay a new arrival would see.
  Duration backlog() const {
    return busy_until_ > loop_.now() ? busy_until_ - loop_.now() : 0;
  }

  double total_cycles() const { return total_cycles_; }

 private:
  Duration duration_of(double cycles) {
    double seconds = 0;
    if (burst_cps_ > 0 && credit_cycles_ > 0) {
      const double burst_part = std::min(cycles, credit_cycles_);
      credit_cycles_ -= burst_part;
      seconds += burst_part / burst_cps_;
      cycles -= burst_part;
    }
    seconds += cycles / cycles_per_second_;
    return static_cast<Duration>(seconds * static_cast<double>(kSecond));
  }

  EventLoop& loop_;
  double cycles_per_second_;
  double burst_cps_ = 0;
  double credit_cycles_ = 0;
  Time busy_until_ = 0;
  double total_cycles_ = 0;
};

}  // namespace hipcloud::sim
