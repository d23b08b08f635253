#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "crypto/bytes.hpp"
#include "sim/perf.hpp"

namespace hipcloud::crypto {

class BufferPool;

/// Pooled payload buffer with headroom/tailroom, built for the packet
/// datapath.
///
/// A Buffer owns a block of capacity `cap_` and exposes the window
/// [off_, off_ + len_) of it. Encapsulation layers (UDP, ESP-BEET, the
/// UDP-encap tag, Teredo) call prepend()/append() to grow the window over
/// pre-reserved headroom/tailroom and write their headers in place,
/// instead of allocating a fresh vector and copying the payload at every
/// layer boundary. Decapsulation is pop_front()/pop_back() — O(1) window
/// arithmetic, zero copies.
///
/// Blocks come from a per-world BufferPool freelist and return to it when
/// the Buffer dies, so steady-state packet traffic recycles a handful of
/// blocks instead of hitting the allocator per packet. A Buffer must not
/// outlive the pool it was drawn from (the pool is owned by the world's
/// Network, which outlives every packet in that world); buffers created
/// from plain Bytes carry no pool and free their own block.
///
/// Above TCP, the same type carries application payloads: a DB row, an
/// HTTP message or a TLS record is built in one Buffer and handed down to
/// TCP's send queue without a copy, and received segments come up as
/// Buffers too. Where bytes wait for more to arrive they sit in a
/// BufferQueue. The API mirrors the std::vector subset the protocol layers
/// used, plus a free implicit conversion to BytesView. There is no
/// conversion to Bytes: code that needs an owning vector copies
/// explicitly, so every payload copy is visible at its call site.
class Buffer {
 public:
  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  Buffer() = default;

  /// Copying from raw bytes (cold paths, tests): no pool, exact fit.
  Buffer(const Bytes& b) : Buffer(BytesView(b)) {}  // NOLINT
  Buffer(BytesView v);                              // NOLINT
  /// Copy with reserved headroom/tailroom (unpooled staging buffer for
  /// in-place encapsulation).
  Buffer(BytesView v, std::size_t headroom, std::size_t tailroom);

  Buffer(const Buffer& o);
  Buffer& operator=(const Buffer& o);
  Buffer(Buffer&& o) noexcept { steal(o); }
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      destroy();
      steal(o);
    }
    return *this;
  }
  ~Buffer() { destroy(); }

  std::uint8_t* data() { return block_ + off_; }
  const std::uint8_t* data() const { return block_ + off_; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t& operator[](std::size_t i) { return block_[off_ + i]; }
  const std::uint8_t& operator[](std::size_t i) const {
    return block_[off_ + i];
  }
  iterator begin() { return data(); }
  iterator end() { return data() + len_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + len_; }

  std::size_t headroom() const { return off_; }
  std::size_t tailroom() const { return cap_ - off_ - len_; }

  /// Grow the window `n` bytes at the front and return a pointer to the
  /// new region. Falls back to one realloc+copy when headroom runs out.
  std::uint8_t* prepend(std::size_t n) {
    if (off_ < n) grow(n, 0);
    off_ -= static_cast<std::uint32_t>(n);
    len_ += static_cast<std::uint32_t>(n);
    return data();
  }

  /// Grow the window `n` bytes at the back and return a pointer to the
  /// new region.
  std::uint8_t* append(std::size_t n) {
    if (tailroom() < n) grow(0, n);
    std::uint8_t* p = block_ + off_ + len_;
    len_ += static_cast<std::uint32_t>(n);
    return p;
  }

  /// Drop `n` bytes from the front (header strip). O(1).
  void pop_front(std::size_t n) {
    off_ += static_cast<std::uint32_t>(n);
    len_ -= static_cast<std::uint32_t>(n);
  }

  /// Drop `n` bytes from the back (trailer strip). O(1).
  void pop_back(std::size_t n) { len_ -= static_cast<std::uint32_t>(n); }

  void clear() { len_ = 0; }

  void resize(std::size_t n, std::uint8_t fill = 0) {
    if (n <= len_) {
      len_ = static_cast<std::uint32_t>(n);
      return;
    }
    const std::size_t extra = n - len_;
    std::memset(append(extra), fill, extra);
  }

  template <typename It>
  void assign(It first, It last) {
    const std::size_t n = static_cast<std::size_t>(last - first);
    len_ = 0;
    if (n > cap_) {
      grow(0, n);  // leaves off_ at the front slack
    } else {
      off_ = 0;
    }
    std::uint8_t* p = data();
    for (; first != last; ++first) *p++ = static_cast<std::uint8_t>(*first);
    len_ = static_cast<std::uint32_t>(n);
  }

  void push_back(std::uint8_t b) { *append(1) = b; }

  /// `len` uninitialised bytes from `pool`, or an exact-fit unpooled
  /// block when `pool` is null.
  static Buffer allocate(BufferPool* pool, std::size_t len);

  BytesView view() const { return BytesView(data(), len_); }
  operator BytesView() const { return view(); }  // NOLINT

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }

 private:
  friend class BufferPool;
  friend class BufferQueue;

  Buffer(BufferPool* pool, std::uint8_t* block, std::uint32_t cap,
         std::uint32_t off, std::uint32_t len)
      : block_(block), cap_(cap), off_(off), len_(len), pool_(pool) {}

  void steal(Buffer& o) noexcept;

  void take_fields(Buffer& o) noexcept {
    block_ = o.block_;
    cap_ = o.cap_;
    off_ = o.off_;
    len_ = o.len_;
    pool_ = o.pool_;
    o.block_ = nullptr;
    o.cap_ = o.off_ = o.len_ = 0;
    o.pool_ = nullptr;
  }

  void destroy();
  /// Move to a bigger block with >= front_extra headroom and >= back_extra
  /// tailroom beyond the current window.
  void grow(std::size_t front_extra, std::size_t back_extra);

  std::uint8_t* block_ = nullptr;
  std::uint32_t cap_ = 0;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
  BufferPool* pool_ = nullptr;
};

/// Per-world freelist of payload blocks in power-of-two size classes
/// (64..4096 bytes; larger blocks are allocated directly and never
/// cached). Single-threaded like everything else inside one world, so no
/// locks. Hit/miss/return counts land in the world's PerfCounters.
class BufferPool {
 public:
  static constexpr std::size_t kMinClass = 64;
  static constexpr std::size_t kMaxClass = 4096;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  void set_perf(sim::PerfCounters* perf) { perf_ = perf; }

  /// A buffer of `len` bytes with the requested headroom/tailroom
  /// reserved around it. The window is uninitialised (callers on the
  /// packet path overwrite it wholesale; recycled blocks keep old bytes).
  Buffer make(std::size_t len, std::size_t headroom = 0,
              std::size_t tailroom = 0);

  /// Copy `v` into a pooled buffer with the requested surrounding room.
  Buffer copy(BytesView v, std::size_t headroom = 0, std::size_t tailroom = 0);

  /// Cached blocks currently sitting in the freelists (for tests).
  std::size_t cached_blocks() const;

 private:
  friend class Buffer;
  friend class BufferQueue;

  static constexpr std::size_t kClasses = 7;  // 64,128,...,4096

  static std::size_t class_index(std::size_t cap);

  std::uint8_t* acquire(std::size_t needed, std::uint32_t& cap_out);
  void release(std::uint8_t* block, std::uint32_t cap);
  /// O(cached blocks) scan backing the audit-build double-release /
  /// aliasing check: a block being released must not already sit in any
  /// freelist (two Buffers thinking they own the same block corrupts
  /// whichever packet recycles it first).
  bool audit_not_cached(const std::uint8_t* block) const;

  std::vector<std::uint8_t*> free_[kClasses];
  sim::PerfCounters* perf_ = nullptr;
};

inline void Buffer::steal(Buffer& o) noexcept {
  if (o.pool_ != nullptr && o.pool_->perf_ != nullptr && o.len_ != 0) {
    o.pool_->perf_->payload_bytes_moved += o.len_;
  }
  take_fields(o);
}

/// A byte stream held as a queue of Buffers: the one place bytes wait
/// above the packet path (TCP's send buffer, and the TLS-record,
/// HTTP-message and DB-frame receive framers). append() moves a Buffer in
/// without copying. consume() drops bytes from the front, and a segment
/// goes back to its pool as soon as its last byte is consumed, so a
/// drained queue holds no payload block. take(n) hands the first n bytes
/// out as one contiguous Buffer: the head segment itself when n matches
/// it exactly, otherwise a single copy into a block from the head
/// segment's pool.
class BufferQueue {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t segments() const { return segs_.size() - head_; }
  /// Segment `i` counted from the front (i < segments()).
  const Buffer& segment(std::size_t i) const { return segs_[head_ + i]; }

  void append(Buffer b);
  /// Drop the first `n` bytes (n <= size()).
  void consume(std::size_t n);
  /// Remove and return the first `n` bytes (n <= size()).
  Buffer take(std::size_t n);
  /// Copy `n` bytes starting `offset` bytes in to `out`
  /// (offset + n <= size()).
  void copy_out(std::size_t offset, std::size_t n, std::uint8_t* out) const;

 private:
  void pop_segment();

  std::vector<Buffer> segs_;
  std::size_t head_ = 0;  // segs_[0, head_) are spent
  std::size_t size_ = 0;
};

/// append_be overload so existing call sites that build payloads with
/// crypto::append_be keep working on pooled buffers.
void append_be(Buffer& out, std::uint64_t value, std::size_t width);

}  // namespace hipcloud::crypto
