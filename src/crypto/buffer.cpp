#include "crypto/buffer.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace hipcloud::crypto {

Buffer::Buffer(BytesView v) {
  if (v.empty()) return;
  block_ = new std::uint8_t[v.size()];
  cap_ = len_ = static_cast<std::uint32_t>(v.size());
  std::memcpy(block_, v.data(), v.size());
}

Buffer::Buffer(BytesView v, std::size_t headroom, std::size_t tailroom) {
  const std::size_t cap = headroom + v.size() + tailroom;
  if (cap == 0) return;
  block_ = new std::uint8_t[cap];
  cap_ = static_cast<std::uint32_t>(cap);
  off_ = static_cast<std::uint32_t>(headroom);
  len_ = static_cast<std::uint32_t>(v.size());
  if (!v.empty()) std::memcpy(block_ + off_, v.data(), v.size());
}

Buffer::Buffer(const Buffer& o) {
  if (o.len_ == 0) return;
  if (o.pool_ != nullptr) {
    pool_ = o.pool_;
    block_ = pool_->acquire(o.len_, cap_);
  } else {
    block_ = new std::uint8_t[o.len_];
    cap_ = o.len_;
  }
  len_ = o.len_;
  std::memcpy(block_, o.data(), o.len_);
  if (pool_ != nullptr && pool_->perf_ != nullptr) {
    pool_->perf_->payload_bytes_copied += o.len_;
  }
}

Buffer& Buffer::operator=(const Buffer& o) {
  if (this != &o) {
    destroy();
    block_ = nullptr;
    cap_ = off_ = len_ = 0;
    pool_ = nullptr;
    Buffer tmp(o);
    steal(tmp);
  }
  return *this;
}

void Buffer::destroy() {
  if (block_ == nullptr) return;
  if (pool_ != nullptr) {
    pool_->release(block_, cap_);
  } else {
    delete[] block_;
  }
}

void Buffer::grow(std::size_t front_extra, std::size_t back_extra) {
  // One realloc covering the requested room plus slack, so a pipeline
  // that underestimated headroom converges instead of reallocating at
  // every layer.
  constexpr std::size_t kSlack = 64;
  const std::size_t need = front_extra + kSlack + len_ + back_extra + kSlack;
  std::uint8_t* nblock;
  std::uint32_t ncap;
  if (pool_ != nullptr) {
    nblock = pool_->acquire(need, ncap);
  } else {
    nblock = new std::uint8_t[need];
    ncap = static_cast<std::uint32_t>(need);
  }
  const std::uint32_t noff = static_cast<std::uint32_t>(front_extra + kSlack);
  if (len_ != 0) {
    std::memcpy(nblock + noff, block_ + off_, len_);
    if (pool_ != nullptr && pool_->perf_ != nullptr) {
      pool_->perf_->payload_bytes_copied += len_;
    }
  }
  destroy();
  block_ = nblock;
  cap_ = ncap;
  off_ = noff;
}

Buffer Buffer::allocate(BufferPool* pool, std::size_t len) {
  if (pool != nullptr) return pool->make(len);
  Buffer b;
  if (len == 0) return b;
  b.block_ = new std::uint8_t[len];
  b.cap_ = b.len_ = static_cast<std::uint32_t>(len);
  return b;
}

BufferPool::~BufferPool() {
  for (auto& cls : free_) {
    for (std::uint8_t* block : cls) delete[] block;
  }
}

std::size_t BufferPool::class_index(std::size_t cap) {
  std::size_t idx = 0;
  std::size_t size = kMinClass;
  while (size < cap) {
    size <<= 1;
    ++idx;
  }
  return idx;
}

std::uint8_t* BufferPool::acquire(std::size_t needed, std::uint32_t& cap_out) {
  if (needed <= kMaxClass) {
    const std::size_t idx = class_index(needed);
    cap_out = static_cast<std::uint32_t>(kMinClass << idx);
    auto& cls = free_[idx];
    if (!cls.empty()) {
      std::uint8_t* block = cls.back();
      cls.pop_back();
      if (perf_ != nullptr) ++perf_->pool_hits;
      return block;
    }
    if (perf_ != nullptr) ++perf_->pool_misses;
    return new std::uint8_t[cap_out];
  }
  cap_out = static_cast<std::uint32_t>(needed);
  if (perf_ != nullptr) ++perf_->pool_misses;
  return new std::uint8_t[needed];
}

bool BufferPool::audit_not_cached(const std::uint8_t* block) const {
  for (const auto& cls : free_) {
    for (const std::uint8_t* cached : cls) {
      if (cached == block) return false;
    }
  }
  return true;
}

void BufferPool::release(std::uint8_t* block, std::uint32_t cap) {
  HIPCLOUD_AUDIT(audit_not_cached(block),
                 "BufferPool double-release: block is already on a freelist");
  // Only exact pool-class blocks are cached; odd sizes (oversize direct
  // allocations) are freed.
  if (cap >= kMinClass && cap <= kMaxClass && (cap & (cap - 1)) == 0) {
    if (perf_ != nullptr) ++perf_->pool_returns;
    free_[class_index(cap)].push_back(block);
    return;
  }
  delete[] block;
}

Buffer BufferPool::make(std::size_t len, std::size_t headroom,
                        std::size_t tailroom) {
  std::uint32_t cap;
  std::uint8_t* block = acquire(headroom + len + tailroom, cap);
  return Buffer(this, block, cap, static_cast<std::uint32_t>(headroom),
                static_cast<std::uint32_t>(len));
}

Buffer BufferPool::copy(BytesView v, std::size_t headroom,
                        std::size_t tailroom) {
  Buffer b = make(v.size(), headroom, tailroom);
  if (!v.empty()) std::memcpy(b.data(), v.data(), v.size());
  if (perf_ != nullptr) perf_->payload_bytes_copied += v.size();
  return b;
}

std::size_t BufferPool::cached_blocks() const {
  std::size_t n = 0;
  for (const auto& cls : free_) n += cls.size();
  return n;
}

void BufferQueue::append(Buffer b) {
  if (b.empty()) return;
  size_ += b.size();
  segs_.push_back(std::move(b));
}

void BufferQueue::pop_segment() {
  segs_[head_] = Buffer();
  if (++head_ == segs_.size()) {
    segs_.clear();
    head_ = 0;
  } else if (head_ >= 16 && 2 * head_ >= segs_.size()) {
    // A queue that never drains (a bulk sender) would otherwise grow its
    // handle array without bound; compact once half of it is spent.
    segs_.erase(segs_.begin(),
                segs_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void BufferQueue::consume(std::size_t n) {
  HIPCLOUD_CHECK(n <= size_, "BufferQueue::consume past the end");
  size_ -= n;
  while (n > 0) {
    Buffer& seg = segs_[head_];
    if (n < seg.size()) {
      seg.pop_front(n);
      return;
    }
    n -= seg.size();
    pop_segment();
  }
}

Buffer BufferQueue::take(std::size_t n) {
  HIPCLOUD_CHECK(n <= size_, "BufferQueue::take past the end");
  if (n == 0) return Buffer();
  if (segs_[head_].size() == n) {
    Buffer out = std::move(segs_[head_]);
    size_ -= n;
    pop_segment();
    return out;
  }
  BufferPool* pool = segs_[head_].pool_;
  Buffer out = Buffer::allocate(pool, n);
  copy_out(0, n, out.data());
  if (pool != nullptr && pool->perf_ != nullptr) {
    pool->perf_->payload_bytes_copied += n;
  }
  consume(n);
  return out;
}

void BufferQueue::copy_out(std::size_t offset, std::size_t n,
                           std::uint8_t* out) const {
  HIPCLOUD_CHECK(offset <= size_ && n <= size_ - offset,
                 "BufferQueue::copy_out past the end");
  for (std::size_t i = head_; n > 0; ++i) {
    const Buffer& seg = segs_[i];
    if (offset >= seg.size()) {
      offset -= seg.size();
      continue;
    }
    const std::size_t k = std::min(n, seg.size() - offset);
    std::memcpy(out, seg.data() + offset, k);
    out += k;
    n -= k;
    offset = 0;
  }
}

void append_be(Buffer& out, std::uint64_t value, std::size_t width) {
  std::uint8_t* p = out.append(width);
  for (std::size_t i = 0; i < width; ++i) {
    p[i] = static_cast<std::uint8_t>(value >> (8 * (width - 1 - i)));
  }
}

}  // namespace hipcloud::crypto
