#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace hipcloud::net {

/// TCP segment header. 20 bytes on the wire (we fold the window-scale
/// option into a 32-bit window field; real stacks negotiate the same
/// effect via RFC 7323, and the paper's iperf runs rely on >64 KB
/// windows).
struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  bool syn = false;
  bool fin = false;
  bool rst = false;
  bool ack_flag = false;
  std::uint32_t window = 0;

  static constexpr std::size_t kSize = 20;

  /// Write the 20 header bytes into `out` (the zero-copy path: the stack
  /// writes straight into a pooled packet buffer).
  void write(std::uint8_t* out) const;
  crypto::Bytes serialize(crypto::BytesView data) const;
  /// Parse just the header fields from the first kSize bytes.
  static TcpHeader parse_header(crypto::BytesView wire);
  /// Parses header and returns it; `data_out` receives the payload.
  static TcpHeader parse(crypto::BytesView wire, crypto::Bytes& data_out);

  std::string describe() const;
};

struct TcpConfig {
  /// Local receive window advertised to the peer (bytes).
  std::uint32_t receive_window = 87380;  // Linux default, ~85.3 KB
  /// Initial congestion window in segments.
  std::uint32_t initial_cwnd_segments = 10;
  sim::Duration min_rto = sim::from_millis(200);
  sim::Duration initial_rto = sim::from_millis(1000);
  /// Fixed MSS clamp; effective MSS also subtracts shim path overhead.
  std::size_t mss_clamp = 1460;
  /// Consecutive RTO expiries before the connection gives up and aborts
  /// (Linux tcp_retries2 analogue). Keeps simulations with dead peers
  /// finite.
  int max_consecutive_rtos = 8;
};

class TcpStack;

/// One TCP connection. Reno-style congestion control (slow start,
/// congestion avoidance, fast retransmit/recovery), cumulative ACKs,
/// out-of-order reassembly, RFC 6298 RTO estimation.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using ConnectFn = std::function<void()>;
  /// Received payload is handed over as the pooled Buffer moved out of
  /// the packet.
  using DataFn = std::function<void(crypto::Buffer)>;
  using CloseFn = std::function<void()>;

  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kLastAck,
    kClosing,
    kTimeWait,
  };

  ~TcpConnection();

  /// Queue application data for transmission. The buffer itself joins
  /// the send queue; its bytes are copied once per transmitted segment,
  /// straight into the segment's packet buffer.
  void send(crypto::Buffer data);
  /// Half-close: FIN after all queued data drains.
  void close();
  /// Abort with RST.
  void reset();

  void on_connect(ConnectFn fn) { on_connect_ = std::move(fn); }
  void on_data(DataFn fn) { on_data_ = std::move(fn); }
  void on_close(CloseFn fn) { on_close_ = std::move(fn); }

  /// Release the registered callbacks. Application closures routinely
  /// capture the connection's own shared_ptr (`conn->on_data([conn](...)`),
  /// which is a reference cycle the stack must break once the connection
  /// can never fire them again — on full close and at stack teardown.
  void drop_handlers() {
    on_connect_ = nullptr;
    on_data_ = nullptr;
    on_close_ = nullptr;
  }

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  const Endpoint& local() const { return local_; }
  const Endpoint& remote() const { return remote_; }
  std::size_t mss() const { return mss_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  /// Bytes queued or in flight (application backpressure signal).
  std::size_t send_queue_bytes() const { return send_buf_.size(); }
  /// Bytes the peer has acknowledged (sender-side goodput).
  std::uint64_t bytes_acked() const {
    const std::uint32_t flight = snd_nxt_ - snd_una_;
    return bytes_sent_ > flight ? bytes_sent_ - flight : 0;
  }
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  friend class TcpStack;

  TcpConnection(TcpStack* stack, Endpoint local, Endpoint remote,
                const TcpConfig& config);

  void start_connect();
  void start_accept(const TcpHeader& syn);
  void handle_segment(const TcpHeader& header, crypto::Buffer data);
  void try_send();
  /// Transmit one segment carrying `len` bytes of the send queue from
  /// `offset` (0 for pure control segments).
  void send_segment(std::uint32_t seq, bool syn, bool fin, bool ack,
                    std::size_t offset = 0, std::size_t len = 0);
  void send_ack();
  void send_rst();
  void process_ack(const TcpHeader& header);
  void process_data(const TcpHeader& header, crypto::Buffer data);
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void update_rtt(sim::Duration measured);
  void enter_time_wait();
  void become_closed();
  std::uint32_t flight_size() const { return snd_nxt_ - snd_una_; }
  std::uint32_t usable_window() const;

  TcpStack* stack_;
  Endpoint local_;
  Endpoint remote_;
  TcpConfig config_;
  State state_ = State::kClosed;
  std::size_t mss_ = 1460;

  // Send side.
  std::uint32_t iss_ = 0;        // initial send sequence
  std::uint32_t snd_una_ = 0;    // oldest unacknowledged
  std::uint32_t snd_nxt_ = 0;    // next to send
  std::uint32_t peer_window_ = 0;
  crypto::BufferQueue send_buf_;  // bytes from snd_una_ onwards
  bool fin_queued_ = false;
  bool fin_sent_ = false;

  // Receive side.
  std::uint32_t irs_ = 0;      // initial receive sequence
  std::uint32_t rcv_nxt_ = 0;  // next expected
  std::map<std::uint32_t, crypto::Buffer> reassembly_;
  bool peer_fin_seq_valid_ = false;
  std::uint32_t peer_fin_seq_ = 0;

  // Congestion control (Reno).
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0xffffffff;
  std::uint32_t dup_acks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint32_t recover_ = 0;

  // RTO estimation (RFC 6298).
  bool rtt_valid_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  sim::Duration rto_;
  sim::EventHandle rto_timer_;
  bool rto_armed_ = false;
  int consecutive_rtos_ = 0;
  // RTT sampling: one timed segment at a time (Karn's algorithm).
  bool timing_ = false;
  std::uint32_t timed_seq_ = 0;
  sim::Time timed_sent_at_ = 0;

  // Callbacks + stats.
  ConnectFn on_connect_;
  DataFn on_data_;
  CloseFn on_close_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t retransmissions_ = 0;
};

/// Per-node TCP layer: connection table + listeners.
class TcpStack {
 public:
  using AcceptFn = std::function<void(std::shared_ptr<TcpConnection>)>;

  explicit TcpStack(Node* node, TcpConfig config = {});
  ~TcpStack();

  /// Active open. The returned connection fires on_connect when
  /// established. `src_addr` pins the source address (e.g. an LSI or HIT);
  /// otherwise source selection applies.
  std::shared_ptr<TcpConnection> connect(
      const Endpoint& remote, std::optional<IpAddr> src_addr = std::nullopt);

  /// Passive open on a local port (any local address).
  void listen(std::uint16_t port, AcceptFn on_accept);
  void close_listener(std::uint16_t port);

  Node* node() { return node_; }
  const TcpConfig& config() const { return config_; }
  sim::EventLoop& loop();

  std::uint64_t active_connections() const { return connections_.size(); }

 private:
  friend class TcpConnection;

  struct FourTuple {
    IpAddr local_addr;
    std::uint16_t local_port;
    IpAddr remote_addr;
    std::uint16_t remote_port;
    auto operator<=>(const FourTuple&) const = default;
  };

  void on_packet(Packet&& pkt);
  /// Send one segment whose payload is `len` bytes of `data` from
  /// `offset`, copied straight into the pooled packet buffer.
  void transmit(const Endpoint& local, const Endpoint& remote,
                const TcpHeader& header, const crypto::BufferQueue& data,
                std::size_t offset, std::size_t len);
  void remove(TcpConnection* conn);
  std::uint16_t ephemeral_port();
  std::uint32_t random_isn();

  Node* node_;
  TcpConfig config_;
  std::map<FourTuple, std::shared_ptr<TcpConnection>> connections_;
  std::map<std::uint16_t, AcceptFn> listeners_;
  std::uint16_t next_ephemeral_ = 32768;
};

}  // namespace hipcloud::net
