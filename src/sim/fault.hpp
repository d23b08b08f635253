#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace hipcloud::sim {

/// Deterministic fault-injection scheduler.
///
/// Chaos for the simulator: scripted or seeded fault windows (link
/// down/up, loss bursts, node crash/restart, partitions) are
/// expressed as apply/revert callback pairs and driven by the event loop,
/// so a faulty run is exactly as reproducible as a clean one. The
/// injector itself is layer-agnostic — callers bind the callbacks to
/// whatever they want to break (`Link::set_down`, `Node::set_down`,
/// `Link::set_fault_loss`, ...), which keeps `sim` free of upward
/// dependencies.
///
/// Every activation/deactivation is recorded on a timeline that tests and
/// benches read back to correlate client-visible symptoms with the faults
/// that caused them.
class FaultInjector {
 public:
  using Action = std::function<void()>;

  explicit FaultInjector(EventLoop* loop, std::uint64_t seed = 0x5eedfa01u)
      : loop_(loop), rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// One scripted fault window: `apply` runs at `start`, `revert` runs
  /// `duration` later. An empty `revert` models a permanent fault (crash
  /// without restart).
  void window(std::string name, Time start, Duration duration, Action apply,
              Action revert);

  /// One-shot fault at `start` with no automatic revert (e.g. a locator
  /// flip or a scripted migration kick-off).
  void at(std::string name, Time start, Action apply);

  /// Seeded random fault windows over [from, until): gaps between window
  /// starts are exponential with mean `mean_gap`, window lengths uniform
  /// in [min_duration, max_duration]. All windows are pre-computed at call
  /// time from the injector's RNG, so the schedule is a pure function of
  /// the seed.
  void random_windows(std::string name, Time from, Time until,
                      Duration mean_gap, Duration min_duration,
                      Duration max_duration, Action apply, Action revert);

  /// One timeline entry: a fault named `name` became active/inactive.
  struct Event {
    std::string name;
    Time at;
    bool active;
  };
  const std::vector<Event>& timeline() const { return timeline_; }

  /// Faults applied so far (activations, not windows scheduled).
  std::size_t injected() const { return injected_; }
  /// Currently-active fault count.
  std::size_t active() const { return active_; }

 private:
  void fire(const std::string& name, bool activate, const Action& action);

  EventLoop* loop_;
  Xoshiro256 rng_;
  std::vector<Event> timeline_;
  std::size_t injected_ = 0;
  std::size_t active_ = 0;
};

}  // namespace hipcloud::sim
