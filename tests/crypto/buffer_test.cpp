#include "crypto/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/perf.hpp"

namespace hipcloud::crypto {
namespace {

bool same_bytes(const Buffer& buf, const Bytes& expect) {
  return buf.size() == expect.size() &&
         std::equal(expect.begin(), expect.end(), buf.begin());
}

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i);
  }
  return b;
}

// Two live buffers drawn from the same pool must never share a block:
// writing through one must be invisible through the other. This is the
// safety property the whole zero-copy datapath rests on — a pooled block
// is recycled only after its buffer dies.
TEST(BufferPool, LiveBuffersNeverAlias) {
  BufferPool pool;
  Buffer a = pool.make(100);
  std::fill(a.begin(), a.end(), 0xAA);
  Buffer b = pool.make(100);
  std::fill(b.begin(), b.end(), 0xBB);
  EXPECT_NE(a.data(), b.data());
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](std::uint8_t x) { return x == 0xAA; }));
  // Same check under churn: many buffers live at once, distinct blocks.
  std::vector<Buffer> live;
  for (int i = 0; i < 32; ++i) {
    live.push_back(pool.make(200, /*headroom=*/16, /*tailroom=*/16));
    std::fill(live.back().begin(), live.back().end(),
              static_cast<std::uint8_t>(i));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(std::all_of(
        live[static_cast<std::size_t>(i)].begin(),
        live[static_cast<std::size_t>(i)].end(),
        [i](std::uint8_t x) { return x == static_cast<std::uint8_t>(i); }))
        << "buffer " << i << " was clobbered by a later allocation";
  }
}

TEST(BufferPool, RecyclesBlocksAfterRelease) {
  BufferPool pool;
  EXPECT_EQ(pool.cached_blocks(), 0u);
  const std::uint8_t* first_block = nullptr;
  {
    Buffer a = pool.make(100);
    first_block = a.data() - a.headroom();
    EXPECT_EQ(pool.cached_blocks(), 0u);  // live, not cached
  }
  EXPECT_EQ(pool.cached_blocks(), 1u);
  Buffer b = pool.make(100);
  // Same size class -> the freelist hands the identical block back.
  EXPECT_EQ(b.data() - b.headroom(), first_block);
  EXPECT_EQ(pool.cached_blocks(), 0u);
  // The recycled window is uninitialised but fully writable.
  std::fill(b.begin(), b.end(), 0xCD);
  EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                          [](std::uint8_t x) { return x == 0xCD; }));
}

TEST(BufferPool, OversizeBlocksAreNotCached) {
  BufferPool pool;
  { Buffer big = pool.make(2 * BufferPool::kMaxClass); }
  EXPECT_EQ(pool.cached_blocks(), 0u);
  { Buffer small = pool.make(32); }
  EXPECT_EQ(pool.cached_blocks(), 1u);
}

TEST(BufferPool, CountersTrackHitsMissesReturns) {
  BufferPool pool;
  sim::PerfCounters perf;
  pool.set_perf(&perf);
  { Buffer a = pool.make(100); }  // miss (cold pool), then return
  EXPECT_EQ(perf.pool_misses, 1u);
  EXPECT_EQ(perf.pool_hits, 0u);
  EXPECT_EQ(perf.pool_returns, 1u);
  { Buffer b = pool.make(100); }  // hit, then return
  EXPECT_EQ(perf.pool_misses, 1u);
  EXPECT_EQ(perf.pool_hits, 1u);
  EXPECT_EQ(perf.pool_returns, 2u);
  EXPECT_DOUBLE_EQ(perf.pool_hit_rate(), 0.5);
}

// The in-place encapsulation round trip: reserve room once at the source,
// then every layer's header/trailer lands in the same block with zero
// reallocation — the exact pattern TCP transmit -> ESP -> UDP-encap uses.
TEST(Buffer, PrependAppendPopRoundTripWithoutRealloc) {
  BufferPool pool;
  const Bytes payload = pattern(64, 7);
  Buffer buf = pool.copy(payload, /*headroom=*/32, /*tailroom=*/32);
  EXPECT_EQ(buf.headroom(), 32u);
  EXPECT_EQ(buf.tailroom(), 32u);
  const std::uint8_t* before = buf.data();

  std::uint8_t* hdr = buf.prepend(8);
  for (int i = 0; i < 8; ++i) hdr[i] = static_cast<std::uint8_t>(0xE0 + i);
  std::uint8_t* tail = buf.append(4);
  for (int i = 0; i < 4; ++i) tail[i] = static_cast<std::uint8_t>(0xF0 + i);

  EXPECT_EQ(buf.data() + 8, before);  // still the same block, shifted window
  EXPECT_EQ(buf.size(), 64u + 8u + 4u);
  EXPECT_EQ(buf[0], 0xE0);
  EXPECT_EQ(buf[8], payload[0]);

  buf.pop_front(8);
  buf.pop_back(4);
  EXPECT_TRUE(same_bytes(buf, payload));
  EXPECT_EQ(buf.data(), before);
}

TEST(Buffer, PrependGrowsWhenHeadroomExhausted) {
  BufferPool pool;
  const Bytes payload = pattern(48, 3);
  Buffer buf = pool.copy(payload);  // no headroom reserved
  EXPECT_EQ(buf.headroom(), 0u);
  std::uint8_t* hdr = buf.prepend(16);
  std::fill(hdr, hdr + 16, 0x55);
  ASSERT_EQ(buf.size(), 64u);
  EXPECT_EQ(buf[0], 0x55);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), buf.begin() + 16));
}

TEST(Buffer, AppendGrowsWhenTailroomExhausted) {
  BufferPool pool;
  const Bytes payload = pattern(48, 9);
  Buffer buf = pool.copy(payload);
  // Force past the 64-byte class boundary repeatedly.
  for (int round = 0; round < 4; ++round) {
    std::uint8_t* p = buf.append(100);
    std::fill(p, p + 100, static_cast<std::uint8_t>(round));
  }
  ASSERT_EQ(buf.size(), 48u + 400u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), buf.begin()));
  EXPECT_EQ(buf[48 + 350], 3);
}

// Regression: assign() through a growth used to write at the block base
// while the window sat at the front slack, leaving the visible bytes
// stale. The contents must be readable through data()/view() afterwards.
TEST(Buffer, AssignLargerThanCapacityIsVisibleThroughWindow) {
  Buffer buf{BytesView(pattern(16, 1))};
  const Bytes big = pattern(300, 42);
  buf.assign(big.begin(), big.end());
  ASSERT_EQ(buf.size(), 300u);
  EXPECT_TRUE(same_bytes(buf, big));
  // And assign of a smaller range reuses the block in place.
  const Bytes small = pattern(10, 200);
  buf.assign(small.begin(), small.end());
  EXPECT_TRUE(same_bytes(buf, small));
}

TEST(Buffer, ResizeFillsAndTruncates) {
  BufferPool pool;
  Buffer buf = pool.make(4);
  std::fill(buf.begin(), buf.end(), 0x11);
  buf.resize(10, 0x22);
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf[3], 0x11);
  EXPECT_EQ(buf[4], 0x22);
  EXPECT_EQ(buf[9], 0x22);
  buf.resize(2);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Buffer, ConversionsAndEquality) {
  const Bytes src = pattern(40, 11);
  Buffer a{BytesView(src), /*headroom=*/8, /*tailroom=*/8};
  EXPECT_EQ(a.headroom(), 8u);
  EXPECT_EQ(a.tailroom(), 8u);
  Buffer b{src};
  EXPECT_EQ(a, b);  // equality compares windows, not room layout
  const Bytes round_trip(a.begin(), a.end());  // explicit copy
  EXPECT_EQ(round_trip, src);
  const BytesView v = a;  // free conversion
  EXPECT_EQ(v.data(), a.data());
  b.pop_back(1);
  EXPECT_FALSE(a == b);
}

TEST(Buffer, MoveTransfersBlockCopyDuplicates) {
  BufferPool pool;
  Buffer a = pool.copy(pattern(64, 5), 16, 16);
  const std::uint8_t* block = a.data();
  Buffer moved = std::move(a);
  EXPECT_EQ(moved.data(), block);  // no copy, no new block
  // hipcheck:allow(flow-buffer-lifetime): asserts moved-from state on purpose
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  Buffer copied = moved;
  EXPECT_NE(copied.data(), moved.data());
  EXPECT_EQ(copied, moved);
  EXPECT_EQ(pool.cached_blocks(), 0u);  // both still live
}

// ---------------------------------------------------------------------------
// BufferQueue

Bytes drain_bytes(BufferQueue& q) {
  Bytes out(q.size());
  if (!out.empty()) q.copy_out(0, out.size(), out.data());
  return out;
}

TEST(BufferQueue, TakeAndConsumeAcrossSegmentBoundaries) {
  BufferPool pool;
  const Bytes stream = pattern(100, 1);
  BufferQueue q;
  // Segments of 10, 30, 25 and 35 bytes.
  std::size_t off = 0;
  for (const std::size_t n : {10u, 30u, 25u, 35u}) {
    q.append(pool.copy(BytesView(stream).subspan(off, n)));
    off += n;
  }
  q.append(Buffer());  // empty appends are ignored
  ASSERT_EQ(q.size(), 100u);
  ASSERT_EQ(q.segments(), 4u);

  std::uint8_t peek[20];
  q.copy_out(5, sizeof peek, peek);  // spans the first two segments
  EXPECT_TRUE(std::equal(peek, peek + sizeof peek, stream.begin() + 5));

  q.consume(4);  // inside the first segment
  const Buffer a = q.take(16);  // 6 from segment 1, 10 from segment 2
  EXPECT_TRUE(same_bytes(a, Bytes(stream.begin() + 4, stream.begin() + 20)));
  q.consume(30);  // the rest of segment 2 and 10 bytes of segment 3
  EXPECT_EQ(q.size(), 50u);
  const Buffer b = q.take(50);  // the tail of segment 3 plus all of 4
  EXPECT_TRUE(same_bytes(b, Bytes(stream.begin() + 50, stream.end())));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.segments(), 0u);
  EXPECT_TRUE(q.take(0).empty());
}

TEST(BufferQueue, WholeSegmentTakeCopiesNothing) {
  BufferPool pool;
  sim::PerfCounters perf;
  pool.set_perf(&perf);
  BufferQueue q;
  const Bytes tail = pattern(32, 9);
  Buffer first = pool.copy(pattern(64, 3));
  Buffer second = pool.copy(tail);
  const std::uint8_t* first_data = first.data();
  const std::uint8_t* second_data = second.data();
  q.append(std::move(first));
  q.append(std::move(second));
  const std::uint64_t copied = perf.payload_bytes_copied;

  const Buffer a = q.take(64);
  EXPECT_EQ(a.data(), first_data);  // the segment itself, not a copy
  q.consume(2);
  const Buffer b = q.take(30);  // what is left of the head segment
  EXPECT_EQ(b.data(), second_data + 2);
  EXPECT_EQ(perf.payload_bytes_copied, copied);
  EXPECT_TRUE(same_bytes(b, Bytes(tail.begin() + 2, tail.end())));
}

TEST(BufferQueue, PartialTakeCopiesOnceIntoThePool) {
  BufferPool pool;
  sim::PerfCounters perf;
  pool.set_perf(&perf);
  BufferQueue q;
  for (int i = 0; i < 3; ++i) q.append(pool.copy(pattern(40, 7)));
  const std::uint64_t copied = perf.payload_bytes_copied;
  const Buffer out = q.take(100);  // spans three segments
  EXPECT_EQ(perf.payload_bytes_copied, copied + 100);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(q.size(), 20u);
}

TEST(BufferQueue, DrainedQueueHoldsNoBlock) {
  BufferPool pool;
  BufferQueue q;
  for (int i = 0; i < 8; ++i) q.append(pool.make(100));
  EXPECT_EQ(pool.cached_blocks(), 0u);
  q.consume(250);  // two whole segments and half of the third go back
  EXPECT_EQ(pool.cached_blocks(), 2u);
  const Buffer rest = q.take(q.size() - 50);
  q.consume(50);
  EXPECT_TRUE(q.empty());
  // All eight segment blocks are back on the freelist; `rest` holds a
  // ninth, larger block of its own.
  EXPECT_EQ(pool.cached_blocks(), 8u);
  EXPECT_EQ(rest.size(), 500u);
}

TEST(BufferQueue, LongRunningStreamKeepsOrder) {
  // A queue that never drains (a bulk sender with unacked data) stays
  // correct across the compaction of its segment array.
  BufferPool pool;
  BufferQueue q;
  std::uint8_t next_in = 0;
  std::uint8_t next_out = 0;
  for (int round = 0; round < 200; ++round) {
    Buffer seg = pool.make(13);
    for (std::uint8_t& x : seg) x = next_in++;
    q.append(std::move(seg));
    if (round % 3 != 0) {
      const Bytes got = [&] {
        Buffer b = q.take(11);
        return Bytes(b.begin(), b.end());
      }();
      for (const std::uint8_t x : got) EXPECT_EQ(x, next_out++);
    }
  }
  const Bytes rest = drain_bytes(q);
  for (const std::uint8_t x : rest) EXPECT_EQ(x, next_out++);
  EXPECT_EQ(next_out, next_in);
}

}  // namespace
}  // namespace hipcloud::crypto
