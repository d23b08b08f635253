#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hipcloud::sim {

/// Move-only type-erased `void()` callable with a large small-buffer
/// optimisation, built for the event loop's hot path.
///
/// `std::function` keeps only ~16 bytes of inline storage on libstdc++, so
/// every real simulator callback — a link-delivery lambda capturing a
/// Packet, an RTO timer capturing a weak_ptr, a CPU continuation capturing
/// a session and a payload — heap allocates on schedule and frees on fire.
/// InlineFn reserves `kInlineSize` (128) bytes in place, so an InlineFn is
/// 144 bytes with its ops pointer and alignment; callables that do not fit
/// (or whose move may throw) still work via a heap fallback.
///
/// sim::EventLoop builds each callback straight into an arena slot with
/// emplace() and invokes it there, so a scheduled callable is never moved
/// between schedule and fire. The move operations remain for callers that
/// must park a callback first, such as the shard coordinator's inboxes.
class InlineFn {
 public:
  /// Inline capacity. The largest hot callback today is the link-delivery
  /// lambda (104 bytes: an 88-byte Packet, the receiving node and its
  /// interface index); 128 leaves headroom without bloating the arena.
  static constexpr std::size_t kInlineSize = 128;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  /// Replace the held callable with `f`, built in this object's own
  /// storage. An InlineFn argument is moved in rather than wrapped.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
      static_assert(!std::is_lvalue_reference_v<F>, "InlineFn is move-only");
      move_from(f);
    } else {
      static_assert(std::is_invocable_v<std::decay_t<F>&>,
                    "InlineFn holds void() callables");
      construct(std::forward<F>(f));
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the held callable (no-op when empty).
  void reset() {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  struct Ops {
    void (*invoke)(void* storage);
    void (*move_to)(void* from, void* to);  // move-construct into `to`
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* from, void* to) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* s) { (**reinterpret_cast<Fn**>(s))(); },
      [](void* from, void* to) {
        *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
      },
      [](void* s) { delete *reinterpret_cast<Fn**>(s); },
  };

  // Precondition: empty. If the callable's constructor throws, ops_ is
  // still null, so the InlineFn stays empty.
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (storage_) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      ops_->move_to(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace hipcloud::sim
