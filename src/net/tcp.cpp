#include "net/tcp.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "net/wire_reader.hpp"
#include "sim/check.hpp"
#include "sim/log.hpp"

namespace hipcloud::net {

using crypto::Bytes;
using crypto::BytesView;

namespace {

// Modular 32-bit sequence comparisons.
inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool seq_gt(std::uint32_t a, std::uint32_t b) { return seq_lt(b, a); }

constexpr std::uint8_t kFlagSyn = 0x02;
constexpr std::uint8_t kFlagFin = 0x01;
constexpr std::uint8_t kFlagRst = 0x04;
constexpr std::uint8_t kFlagAck = 0x10;

constexpr sim::Duration kTimeWaitDuration = 2 * sim::kSecond;
constexpr sim::Duration kMaxRto = 60 * sim::kSecond;

}  // namespace

void TcpHeader::write(std::uint8_t* out) const {
  out[0] = static_cast<std::uint8_t>(src_port >> 8);
  out[1] = static_cast<std::uint8_t>(src_port);
  out[2] = static_cast<std::uint8_t>(dst_port >> 8);
  out[3] = static_cast<std::uint8_t>(dst_port);
  out[4] = static_cast<std::uint8_t>(seq >> 24);
  out[5] = static_cast<std::uint8_t>(seq >> 16);
  out[6] = static_cast<std::uint8_t>(seq >> 8);
  out[7] = static_cast<std::uint8_t>(seq);
  out[8] = static_cast<std::uint8_t>(ack >> 24);
  out[9] = static_cast<std::uint8_t>(ack >> 16);
  out[10] = static_cast<std::uint8_t>(ack >> 8);
  out[11] = static_cast<std::uint8_t>(ack);
  std::uint8_t flags = 0;
  if (syn) flags |= kFlagSyn;
  if (fin) flags |= kFlagFin;
  if (rst) flags |= kFlagRst;
  if (ack_flag) flags |= kFlagAck;
  out[12] = 0x50;  // data offset 5 words, mirroring a real header
  out[13] = flags;
  out[14] = static_cast<std::uint8_t>(window >> 24);
  out[15] = static_cast<std::uint8_t>(window >> 16);
  out[16] = static_cast<std::uint8_t>(window >> 8);
  out[17] = static_cast<std::uint8_t>(window);
  out[18] = out[19] = 0;  // checksum placeholder
}

Bytes TcpHeader::serialize(BytesView data) const {
  Bytes out(kSize + data.size());
  write(out.data());
  if (!data.empty()) std::memcpy(out.data() + kSize, data.data(), data.size());
  return out;
}

// hipcheck:wire_input
TcpHeader TcpHeader::parse_header(BytesView wire) {
  hipcloud::wire::Reader r(wire);
  const auto src_port = r.u16be();
  const auto dst_port = r.u16be();
  const auto seq = r.u32be();
  const auto ack = r.u32be();
  const auto off_flags = r.bytes(2);  // data offset byte + flags byte
  const auto window = r.u32be();
  const auto checksum = r.bytes(2);
  if (!src_port || !dst_port || !seq || !ack || !off_flags || !window ||
      !checksum) {
    throw std::runtime_error("TcpHeader: truncated");
  }
  TcpHeader h;
  h.src_port = *src_port;
  h.dst_port = *dst_port;
  h.seq = *seq;
  h.ack = *ack;
  const std::uint8_t flags = (*off_flags)[1];
  h.syn = flags & kFlagSyn;
  h.fin = flags & kFlagFin;
  h.rst = flags & kFlagRst;
  h.ack_flag = flags & kFlagAck;
  h.window = *window;
  return h;
}

// hipcheck:wire_input
TcpHeader TcpHeader::parse(BytesView wire, Bytes& data_out) {
  TcpHeader h = parse_header(wire);
  hipcloud::wire::Reader r(wire);
  if (!r.skip(kSize)) throw std::runtime_error("TcpHeader: truncated");
  const BytesView body = r.rest();
  data_out.assign(body.begin(), body.end());
  return h;
}

std::string TcpHeader::describe() const {
  std::string flags;
  if (syn) flags += "S";
  if (fin) flags += "F";
  if (rst) flags += "R";
  if (ack_flag) flags += ".";
  return "tcp[" + flags + "] seq=" + std::to_string(seq) +
         " ack=" + std::to_string(ack) + " win=" + std::to_string(window);
}

// ---------------------------------------------------------------------------
// TcpConnection

TcpConnection::TcpConnection(TcpStack* stack, Endpoint local, Endpoint remote,
                             const TcpConfig& config)
    : stack_(stack), local_(std::move(local)), remote_(std::move(remote)),
      config_(config), rto_(config.initial_rto) {
  // Effective MSS: L3+L4 headers plus whatever shims (HIP ESP, Teredo)
  // will add on the path.
  const std::size_t l3 = remote_.addr.is_v4() ? 20 : 40;
  const std::size_t shim = stack_->node()->path_overhead(remote_.addr);
  const std::size_t mtu_budget = 1500 - l3 - TcpHeader::kSize;
  mss_ = std::min(config_.mss_clamp,
                  mtu_budget > shim ? mtu_budget - shim : 536);
  cwnd_ = static_cast<std::uint32_t>(config_.initial_cwnd_segments * mss_);
}

TcpConnection::~TcpConnection() { cancel_rto(); }

void TcpConnection::start_connect() {
  iss_ = stack_->random_isn();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN occupies one sequence number
  state_ = State::kSynSent;
  send_segment(iss_, /*syn=*/true, /*fin=*/false, /*ack=*/false);
  arm_rto();
}

void TcpConnection::start_accept(const TcpHeader& syn) {
  irs_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  peer_window_ = syn.window;
  iss_ = stack_->random_isn();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = State::kSynReceived;
  send_segment(iss_, /*syn=*/true, /*fin=*/false, /*ack=*/true);
  arm_rto();
}

void TcpConnection::send(crypto::Buffer data) {
  if (state_ != State::kEstablished && state_ != State::kSynSent &&
      state_ != State::kSynReceived && state_ != State::kCloseWait) {
    HIPCLOUD_LOG(sim::LogLevel::kWarn, stack_->loop().now(), "tcp",
                  "send on closed connection to " + remote_.to_string());
    return;
  }
  // Data after close() is an API-misuse bug in the caller (distinct from
  // the closed-state branch above, which network races reach
  // legitimately). Normal builds drop it silently per the original
  // contract; audit builds surface the caller.
  HIPCLOUD_AUDIT(!fin_queued_, "TcpConnection::send() after close()");
  if (fin_queued_) return;  // no data after close()
  send_buf_.append(std::move(data));
  try_send();
}

void TcpConnection::close() {
  switch (state_) {
    case State::kEstablished:
    case State::kSynReceived:
      fin_queued_ = true;
      state_ = State::kFinWait1;
      try_send();
      break;
    case State::kCloseWait:
      fin_queued_ = true;
      state_ = State::kLastAck;
      try_send();
      break;
    case State::kSynSent:
      become_closed();
      break;
    default:
      break;
  }
}

void TcpConnection::reset() {
  if (state_ != State::kClosed) send_rst();
  become_closed();
}

std::uint32_t TcpConnection::usable_window() const {
  const std::uint32_t wnd = std::min(cwnd_, peer_window_);
  const std::uint32_t flight = flight_size();
  return wnd > flight ? wnd - flight : 0;
}

// hipcheck:hot
void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kFinWait1 &&
      state_ != State::kLastAck && state_ != State::kCloseWait) {
    return;
  }
  // Bytes already sent but unacked sit at the front of send_buf_
  // (buffer base sequence == snd_una_, +1 if our SYN is still unacked).
  for (;;) {
    const std::uint32_t already_sent = snd_nxt_ - snd_una_ - (fin_sent_ ? 1 : 0);
    if (already_sent >= send_buf_.size()) break;
    const std::uint32_t unsent =
        static_cast<std::uint32_t>(send_buf_.size()) - already_sent;
    std::uint32_t can_send = std::min<std::uint32_t>(usable_window(), unsent);
    if (can_send == 0) break;
    const auto chunk =
        std::min<std::uint32_t>(can_send, static_cast<std::uint32_t>(mss_));
    send_segment(snd_nxt_, false, false, true, already_sent, chunk);
    if (!timing_) {
      timing_ = true;
      timed_seq_ = snd_nxt_;
      timed_sent_at_ = stack_->loop().now();
    }
    snd_nxt_ += chunk;
    bytes_sent_ += chunk;
    arm_rto();
  }
  // FIN once everything queued has been sent.
  if (fin_queued_ && !fin_sent_ &&
      snd_nxt_ - snd_una_ == send_buf_.size()) {
    send_segment(snd_nxt_, false, /*fin=*/true, true);
    snd_nxt_ += 1;
    fin_sent_ = true;
    arm_rto();
  }
}

// hipcheck:hot
void TcpConnection::send_segment(std::uint32_t seq, bool syn, bool fin,
                                 bool ack, std::size_t offset,
                                 std::size_t len) {
  TcpHeader h;
  h.src_port = local_.port;
  h.dst_port = remote_.port;
  h.seq = seq;
  h.ack = ack ? rcv_nxt_ : 0;
  h.syn = syn;
  h.fin = fin;
  h.ack_flag = ack;
  h.window = config_.receive_window;
  stack_->transmit(local_, remote_, h, send_buf_, offset, len);
}

void TcpConnection::send_ack() { send_segment(snd_nxt_, false, false, true); }

void TcpConnection::send_rst() {
  TcpHeader h;
  h.src_port = local_.port;
  h.dst_port = remote_.port;
  h.seq = snd_nxt_;
  h.rst = true;
  stack_->transmit(local_, remote_, h, send_buf_, 0, 0);
}

void TcpConnection::update_rtt(sim::Duration measured) {
  const double m = static_cast<double>(measured);
  if (!rtt_valid_) {
    srtt_ = m;
    rttvar_ = m / 2;
    rtt_valid_ = true;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - m);
    srtt_ = 0.875 * srtt_ + 0.125 * m;
  }
  rto_ = static_cast<sim::Duration>(srtt_ + std::max(4 * rttvar_, 1.0));
  rto_ = std::clamp(rto_, config_.min_rto, kMaxRto);
}

void TcpConnection::arm_rto() {
  if (flight_size() == 0) {
    cancel_rto();
    return;
  }
  // Re-arming moves the pending timer in place; it fires exactly where a
  // cancel plus a fresh schedule would have put it.
  if (rto_armed_ && stack_->loop().reschedule(rto_timer_, rto_)) return;
  auto self = weak_from_this();
  rto_timer_ = stack_->loop().schedule(rto_, [self] {
    if (const auto conn = self.lock()) conn->on_rto();
  });
  rto_armed_ = true;
}

void TcpConnection::cancel_rto() {
  if (rto_armed_) {
    stack_->loop().cancel(rto_timer_);
    rto_armed_ = false;
  }
}

void TcpConnection::on_rto() {
  rto_armed_ = false;
  if (state_ == State::kClosed || flight_size() == 0) return;
  if (++consecutive_rtos_ > config_.max_consecutive_rtos) {
    HIPCLOUD_LOG(sim::LogLevel::kDebug, stack_->loop().now(), "tcp",
                  "giving up on " + remote_.to_string());
    become_closed();
    return;
  }
  ++retransmissions_;
  // Back off and collapse to one segment (RFC 5681 loss response).
  ssthresh_ = std::max<std::uint32_t>(flight_size() / 2,
                                      2 * static_cast<std::uint32_t>(mss_));
  cwnd_ = static_cast<std::uint32_t>(mss_);
  in_fast_recovery_ = false;
  dup_acks_ = 0;
  rto_ = std::min(rto_ * 2, kMaxRto);
  timing_ = false;  // Karn: never time retransmitted segments

  if (state_ == State::kSynSent) {
    send_segment(iss_, true, false, false);
  } else if (state_ == State::kSynReceived) {
    send_segment(iss_, true, false, true);
  } else {
    // Retransmit the first unacked chunk.
    const auto chunk = std::min<std::size_t>(mss_, send_buf_.size());
    if (chunk > 0) {
      send_segment(snd_una_, false, false, true, 0, chunk);
    } else if (fin_sent_) {
      send_segment(snd_nxt_ - 1, false, true, true);
    }
  }
  arm_rto();
}

// hipcheck:hot
void TcpConnection::handle_segment(const TcpHeader& h, crypto::Buffer data) {
  if (h.rst) {
    become_closed();
    return;
  }
  switch (state_) {
    case State::kSynSent:
      if (h.syn && h.ack_flag && h.ack == iss_ + 1) {
        irs_ = h.seq;
        rcv_nxt_ = h.seq + 1;
        snd_una_ = h.ack;
        peer_window_ = h.window;
        state_ = State::kEstablished;
        cancel_rto();
        send_ack();
        if (on_connect_) on_connect_();
        try_send();
      }
      return;
    case State::kSynReceived:
      if (h.ack_flag && h.ack == iss_ + 1) {
        snd_una_ = h.ack;
        peer_window_ = h.window;
        state_ = State::kEstablished;
        cancel_rto();
        if (on_connect_) on_connect_();
        // Data may ride on the same segment; fall through to normal
        // processing below.
        break;
      }
      if (h.syn && !h.ack_flag) {
        // Duplicate SYN: re-send SYN-ACK.
        send_segment(iss_, true, false, true);
        return;
      }
      return;
    case State::kClosed:
      return;
    default:
      break;
  }

  if (h.ack_flag) process_ack(h);
  if (!data.empty() || h.fin) process_data(h, std::move(data));
}

// hipcheck:hot
void TcpConnection::process_ack(const TcpHeader& h) {
  peer_window_ = h.window;
  if (seq_gt(h.ack, snd_nxt_)) return;  // acks something we never sent
  if (seq_gt(h.ack, snd_una_)) {
    const std::uint32_t una_before = snd_una_;
    const std::uint32_t acked = h.ack - snd_una_;
    // Pop acked bytes (account for SYN/FIN sequence slots).
    std::uint32_t data_acked = acked;
    if (state_ == State::kFinWait1 || state_ == State::kLastAck ||
        state_ == State::kClosing) {
      if (fin_sent_ && h.ack == snd_nxt_) data_acked -= 1;  // FIN slot
    }
    const auto pop = std::min<std::size_t>(data_acked, send_buf_.size());
    send_buf_.consume(pop);
    snd_una_ = h.ack;
    // The cumulative ACK point only advances, and never past what was
    // sent — the guards above enforce it today; the audit keeps future
    // edits (wraparound arithmetic is easy to get wrong) honest.
    HIPCLOUD_AUDIT(seq_le(una_before, snd_una_) && seq_le(snd_una_, snd_nxt_),
                   "TCP send sequence space regressed");
    dup_acks_ = 0;
    consecutive_rtos_ = 0;

    if (timing_ && seq_le(timed_seq_ + 1, h.ack)) {
      update_rtt(stack_->loop().now() - timed_sent_at_);
      timing_ = false;
    }

    if (in_fast_recovery_) {
      if (seq_le(recover_, h.ack)) {
        in_fast_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ack: retransmit next hole immediately.
        const auto chunk = std::min<std::size_t>(mss_, send_buf_.size());
        if (chunk > 0) {
          send_segment(snd_una_, false, false, true, 0, chunk);
          ++retransmissions_;
        }
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<std::uint32_t>(mss_);  // slow start
    } else {
      // Congestion avoidance: ~1 MSS per RTT.
      cwnd_ += static_cast<std::uint32_t>(
          std::max<std::size_t>(1, mss_ * mss_ / std::max(1u, cwnd_)));
    }

    if (flight_size() == 0) {
      cancel_rto();
    } else {
      arm_rto();
    }

    // FIN acknowledged?
    if (fin_sent_ && h.ack == snd_nxt_) {
      if (state_ == State::kFinWait1) {
        state_ = State::kFinWait2;
      } else if (state_ == State::kLastAck) {
        become_closed();
        return;
      } else if (state_ == State::kClosing) {
        enter_time_wait();
        return;
      }
    }
    try_send();
  } else if (h.ack == snd_una_ && flight_size() > 0) {
    // Duplicate ACK.
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_fast_recovery_) {
      in_fast_recovery_ = true;
      recover_ = snd_nxt_;
      ssthresh_ = std::max<std::uint32_t>(
          flight_size() / 2, 2 * static_cast<std::uint32_t>(mss_));
      cwnd_ = ssthresh_ + 3 * static_cast<std::uint32_t>(mss_);
      const auto chunk = std::min<std::size_t>(mss_, send_buf_.size());
      if (chunk > 0) {
        send_segment(snd_una_, false, false, true, 0, chunk);
        ++retransmissions_;
        timing_ = false;
      }
    } else if (in_fast_recovery_) {
      cwnd_ += static_cast<std::uint32_t>(mss_);
      try_send();
    }
  }
}

// hipcheck:hot
void TcpConnection::process_data(const TcpHeader& h, crypto::Buffer data) {
  const std::uint32_t rcv_nxt_before = rcv_nxt_;
  const std::uint32_t seg_seq = h.seq;
  if (h.fin) {
    peer_fin_seq_valid_ = true;
    peer_fin_seq_ = seg_seq + static_cast<std::uint32_t>(data.size());
  }
  if (!data.empty()) {
    if (seq_le(seg_seq, rcv_nxt_)) {
      // In-order (possibly with overlap).
      const std::uint32_t overlap = rcv_nxt_ - seg_seq;
      if (overlap < data.size()) {
        // Strip the overlap in place and hand the buffer through — the
        // common overlap==0 case moves the segment with zero copies.
        data.pop_front(overlap);
        rcv_nxt_ += static_cast<std::uint32_t>(data.size());
        bytes_received_ += data.size();
        if (on_data_) on_data_(std::move(data));
        // Drain contiguous reassembly segments.
        for (auto it = reassembly_.begin(); it != reassembly_.end();) {
          if (seq_gt(it->first, rcv_nxt_)) break;
          const std::uint32_t ov = rcv_nxt_ - it->first;
          if (ov < it->second.size()) {
            crypto::Buffer more = std::move(it->second);
            more.pop_front(ov);
            rcv_nxt_ += static_cast<std::uint32_t>(more.size());
            bytes_received_ += more.size();
            if (on_data_) on_data_(std::move(more));
          }
          it = reassembly_.erase(it);
        }
      }
    } else {
      // Out of order: stash for later, ack current rcv_nxt_ (dup ack).
      reassembly_.insert_or_assign(seg_seq, std::move(data));
    }
  }

  // Receive-side mirror of the send-side audit: the next-expected
  // pointer is monotone; delivering the same byte range twice (or
  // skipping one) would corrupt the application stream undetectably.
  HIPCLOUD_AUDIT(seq_le(rcv_nxt_before, rcv_nxt_),
                 "TCP receive sequence space regressed");

  // FIN processing once all data before it has arrived.
  if (peer_fin_seq_valid_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    peer_fin_seq_valid_ = false;
    switch (state_) {
      case State::kEstablished:
        state_ = State::kCloseWait;
        send_ack();
        if (on_close_) on_close_();
        return;
      case State::kFinWait1:
        // Simultaneous close.
        state_ = fin_sent_ && snd_una_ == snd_nxt_ ? State::kTimeWait
                                                   : State::kClosing;
        send_ack();
        if (state_ == State::kTimeWait) enter_time_wait();
        return;
      case State::kFinWait2:
        send_ack();
        enter_time_wait();
        return;
      default:
        send_ack();
        return;
    }
  }
  send_ack();
}

void TcpConnection::enter_time_wait() {
  state_ = State::kTimeWait;
  cancel_rto();
  auto self = weak_from_this();
  stack_->loop().schedule(kTimeWaitDuration, [self] {
    if (const auto conn = self.lock()) conn->become_closed();
  });
  if (on_close_) on_close_();
}

void TcpConnection::become_closed() {
  if (state_ == State::kClosed) return;
  const bool notify = state_ != State::kTimeWait;
  state_ = State::kClosed;
  cancel_rto();
  if (notify && on_close_) on_close_();
  stack_->remove(this);
}

// ---------------------------------------------------------------------------
// TcpStack

TcpStack::TcpStack(Node* node, TcpConfig config)
    : node_(node), config_(config) {
  node_->register_protocol(IpProto::kTcp,
                           [this](Packet&& pkt) { on_packet(std::move(pkt)); });
}

TcpStack::~TcpStack() {
  // Connections still open at teardown hold application callbacks that
  // usually capture the connection's own shared_ptr; break those cycles so
  // the connection table actually frees.
  for (auto& [key, conn] : connections_) conn->drop_handlers();
}

sim::EventLoop& TcpStack::loop() { return node_->network().loop(); }

std::uint16_t TcpStack::ephemeral_port() {
  for (;;) {
    const std::uint16_t port = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 32768;
    bool taken = false;
    for (const auto& [tuple, conn] : connections_) {
      if (tuple.local_port == port) {
        taken = true;
        break;
      }
    }
    if (!taken && !listeners_.count(port)) return port;
  }
}

std::uint32_t TcpStack::random_isn() {
  return static_cast<std::uint32_t>(node_->network().rng().next());
}

std::shared_ptr<TcpConnection> TcpStack::connect(
    const Endpoint& remote, std::optional<IpAddr> src_addr) {
  IpAddr local_addr;
  if (src_addr) {
    local_addr = *src_addr;
  } else {
    const auto selected = node_->select_source(remote.addr);
    if (!selected) {
      throw std::runtime_error("TcpStack::connect: no source address on " +
                               node_->name() + " for " +
                               remote.addr.to_string());
    }
    local_addr = *selected;
  }
  const Endpoint local{local_addr, ephemeral_port()};
  auto conn = std::shared_ptr<TcpConnection>(
      // hipcheck:allow(raw-alloc): private ctor blocks make_shared; the shared_ptr owns it
      new TcpConnection(this, local, remote, config_));
  connections_[FourTuple{local.addr, local.port, remote.addr, remote.port}] =
      conn;
  conn->start_connect();
  return conn;
}

void TcpStack::listen(std::uint16_t port, AcceptFn on_accept) {
  if (listeners_.count(port)) {
    throw std::runtime_error("TcpStack: port already listening");
  }
  listeners_[port] = std::move(on_accept);
}

void TcpStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

// hipcheck:hot
void TcpStack::transmit(const Endpoint& local, const Endpoint& remote,
                        const TcpHeader& header,
                        const crypto::BufferQueue& data, std::size_t offset,
                        std::size_t len) {
  Packet pkt;
  pkt.src = local.addr;
  pkt.dst = remote.addr;
  pkt.proto = IpProto::kTcp;
  // Pooled buffer with headroom for ESP/encap/Teredo prepends downstream
  // and tailroom for ICV + cipher padding — the whole secure path then
  // works in place on this one allocation.
  crypto::Buffer buf = node_->network().buffer_pool().make(
      TcpHeader::kSize + len, /*headroom=*/96, /*tailroom=*/32);
  header.write(buf.data());
  if (len != 0) data.copy_out(offset, len, buf.data() + TcpHeader::kSize);
  pkt.payload = std::move(buf);
  pkt.stamp_l3_overhead();
  node_->send(std::move(pkt));
}

// hipcheck:hot
void TcpStack::on_packet(Packet&& pkt) {
  TcpHeader h;
  try {
    h = TcpHeader::parse_header(pkt.payload.view());
  } catch (const std::runtime_error&) {
    return;
  }
  pkt.payload.pop_front(TcpHeader::kSize);
  const FourTuple key{pkt.dst, h.dst_port, pkt.src, h.src_port};
  const auto it = connections_.find(key);
  if (it != connections_.end()) {
    // Hold a strong ref: handling may close and remove the connection.
    const auto conn = it->second;
    conn->handle_segment(h, std::move(pkt.payload));
    return;
  }
  if (h.syn && !h.ack_flag) {
    const auto lit = listeners_.find(h.dst_port);
    if (lit == listeners_.end()) return;  // no RST: keep the sim quiet
    const Endpoint local{pkt.dst, h.dst_port};
    const Endpoint remote{pkt.src, h.src_port};
    auto conn = std::shared_ptr<TcpConnection>(
        // hipcheck:allow(raw-alloc): private ctor blocks make_shared; the shared_ptr owns it
        new TcpConnection(this, local, remote, config_));
    connections_[key] = conn;
    conn->start_accept(h);
    lit->second(conn);
  }
}

void TcpStack::remove(TcpConnection* conn) {
  const FourTuple key{conn->local().addr, conn->local().port,
                      conn->remote().addr, conn->remote().port};
  // Deferred erase: the connection may be deep in its own call stack (the
  // close may have been triggered from inside on_data_), so both the erase
  // and the handler drop — application closures routinely capture the
  // connection's own shared_ptr, a cycle that must be broken for a closed
  // connection to free — wait until the current callback unwinds.
  node_->network().loop().schedule(0, [this, key] {
    const auto it = connections_.find(key);
    if (it == connections_.end()) return;
    it->second->drop_handlers();
    connections_.erase(it);
  });
}

}  // namespace hipcloud::net
