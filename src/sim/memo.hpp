#pragma once

#include <exception>
#include <future>
#include <map>

#include "sim/thread_safety.hpp"

namespace hipcloud::sim {

/// Process-wide memo of a pure function (DESIGN.md §5b). get(key, build)
/// returns the value for `key`, calling build() at most once per key even
/// when several threads ask at once: the first caller builds outside the
/// lock and the others wait on its shared future. Nothing is built twice,
/// so no discarded duplicate lingers in a thread's malloc arena. If
/// build() throws, the entry is dropped (a later call retries) and every
/// waiter gets the exception instead of blocking. Entries are never
/// evicted.
///
/// Hold one as a function-local `static const`: get() is a pure function
/// of its arguments, safe from any sweep or shard thread, and the cache
/// behind it is guarded by mu_, which is what the flow-shard-global rule
/// (§5j) asks of a shared static.
template <typename Key, typename Value>
class Memo {
 public:
  template <typename Build>
  Value get(const Key& key, Build&& build) const HIPCLOUD_EXCLUDES(mu_) {
    std::promise<Value> promise;
    std::shared_future<Value> entry;
    bool owner = false;
    {
      MutexLock lock(mu_);
      auto [it, inserted] = entries_.try_emplace(key);
      if (inserted) it->second = promise.get_future().share();
      owner = inserted;
      entry = it->second;
    }
    if (owner) {
      try {
        promise.set_value(build());
      } catch (...) {
        {
          MutexLock lock(mu_);
          entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
      }
    }
    return entry.get();
  }

  /// Whether get(key, ...) would find an entry, built or still being
  /// built, without waiting for it: lets a caller skip starting work that
  /// get() would not repeat.
  bool contains(const Key& key) const HIPCLOUD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.count(key) != 0;
  }

 private:
  mutable Mutex mu_;
  mutable std::map<Key, std::shared_future<Value>> entries_
      HIPCLOUD_GUARDED_BY(mu_);
};

}  // namespace hipcloud::sim
