// User-space TCP: enough of RFC 793 to reproduce every TCP behavior the
// paper depends on.
//
// Implemented: three-way handshake, SYN retransmission with exponential
// backoff, RST generation and handling, ICMP error handling, reliable
// bidirectional byte streams with cumulative ACKs and out-of-order
// reassembly, graceful FIN teardown including simultaneous close and
// TIME_WAIT, and — crucially for §4.4 — *simultaneous open*, where a socket
// in SYN_SENT that receives a raw SYN answers with a SYN-ACK replaying its
// original ISS.
//
// The paper's two observed OS behaviors for TCP hole punching (§4.3) are a
// stack-level policy:
//   * kBsd: an inbound SYN matching an in-progress connect() is married to
//     the connecting socket; connect() succeeds.
//   * kLinuxWindows: the SYN is given to the listen socket instead; accept()
//     yields the working socket and the original connect() fails with
//     kAddressInUse. The spawned connection replays the doomed connect
//     socket's ISS, which is what makes the double-behavior-2 case of §4.4
//     converge ("the stream created itself on the wire").
//
// Not implemented (nothing in the paper needs them): congestion control,
// window scaling, SACK, delayed ACKs, Nagle, urgent data, checksums.

#ifndef SRC_TRANSPORT_TCP_H_
#define SRC_TRANSPORT_TCP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/netsim/event_loop.h"
#include "src/netsim/packet.h"
#include "src/transport/tcp_types.h"
#include "src/util/bytes.h"
#include "src/util/flat_hash.h"
#include "src/util/slab.h"
#include "src/util/result.h"

namespace natpunch {

namespace obs {
class Counter;
}  // namespace obs

class Host;
class TcpStack;

class TcpSocket {
 public:
  using ConnectCallback = std::function<void(Status)>;
  using AcceptCallback = std::function<void(TcpSocket* accepted)>;
  using DataCallback = std::function<void(const Bytes& data)>;
  // Fired when the connection ends for any reason after establishment
  // (remote FIN fully processed, RST, or retransmission failure).
  using ClosedCallback = std::function<void(Status)>;

  explicit TcpSocket(TcpStack* stack);

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // --- Berkeley-style API ---

  // SO_REUSEADDR / SO_REUSEPORT: must be set before Bind on every socket
  // sharing the port (§4.1).
  void SetReuseAddr(bool on) { reuse_addr_ = on; }
  bool reuse_addr() const { return reuse_addr_; }

  // Bind to a local port (0 = ephemeral). Enforces the standard rule:
  // binding an already-bound port fails with kAddressInUse unless every
  // socket involved set reuse_addr.
  Status Bind(uint16_t port);

  // Passive open. One listener per port.
  Status Listen(AcceptCallback on_accept);

  // Active open (asynchronous). The callback fires exactly once with the
  // outcome. Multiple sockets bound to the same port (with reuse_addr) may
  // connect to different remote endpoints concurrently — the TCP hole
  // punching socket arrangement of Figure 7.
  Status Connect(const Endpoint& remote, ConnectCallback on_connect);

  // Queue stream data. Valid in kEstablished / kCloseWait.
  Status Send(Bytes data);

  void SetDataCallback(DataCallback cb) { data_cb_ = std::move(cb); }
  void SetClosedCallback(ClosedCallback cb) { closed_cb_ = std::move(cb); }

  // Graceful close (FIN after queued data drains).
  void Close();
  // Hard close: send RST, drop state.
  void Abort();

  // --- Introspection ---

  TcpState state() const { return state_; }
  Endpoint local_endpoint() const { return tuple_.local; }
  Endpoint remote_endpoint() const { return tuple_.remote; }
  uint16_t local_port() const { return tuple_.local.port; }
  // True when this socket was produced by a listener (paper Fig. 7 cares
  // which of connect()/accept() yielded the working stream).
  bool via_accept() const { return via_accept_; }
  Host* host() const;
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class TcpStack;

  // Segment processing entry point, after stack demux.
  void HandleSegment(const Packet& p);

  void HandleSegmentSynSent(const Packet& p);
  void HandleSegmentSynReceived(const Packet& p);
  void HandleSegmentConnected(const Packet& p);  // kEstablished and later

  void SendControl(bool syn, bool ack, bool fin, bool rst, uint32_t seq, uint32_t ack_seq);
  // Sends send_buffer_ bytes [seq, seq + len) as one segment.
  void SendDataSegment(uint32_t seq, uint32_t len, bool fin);
  // Bytes from buffer_base_ on: unacknowledged, then unsent.
  uint32_t buffered() const { return static_cast<uint32_t>(send_buffer_.size() - send_head_); }
  // Delivers received stream bytes to the data callback.
  void Deliver(const uint8_t* data, size_t len);
  void SendAck();

  void EnterEstablished();
  void FailConnect(const Status& status);
  void HandleRst(const Status& status);
  void ProcessAck(uint32_t ack_seq);
  void ProcessPayload(const Packet& p);
  void MaybeSendFin();
  void TrySendData();
  void ArmRetransmit();
  void CancelRetransmit();
  void OnRetransmitTimeout();
  void EnterTimeWait();
  // Detach from demux maps; terminal state kClosed. Socket object stays
  // alive (owned by the stack) so application pointers never dangle.
  void Teardown();

  TcpStack* stack_;
  TcpState state_ = TcpState::kClosed;
  FourTuple tuple_;
  bool reuse_addr_ = false;
  bool bound_ = false;
  bool bind_registered_ = false;  // has an entry in the stack's bound_ map
  bool registered_tuple_ = false;
  bool via_accept_ = false;
  bool doomed_ = false;  // kLinuxWindows policy hijacked our SYN (§4.3)
  TcpSocket* parent_listener_ = nullptr;  // for sockets spawned by a listener
  TcpSocket* next_bound_ = nullptr;       // next socket bound to our port
  bool accept_delivered_ = false;

  // Send state.
  uint32_t iss_ = 0;
  uint32_t snd_una_ = 0;
  uint32_t snd_nxt_ = 0;
  uint32_t snd_wnd_ = 65535;
  uint32_t buffer_base_ = 0;  // sequence number of send_buffer_[send_head_]
  // Stream bytes; the acknowledged prefix [0, send_head_) is dropped lazily
  // (ProcessAck), so popping acknowledged bytes never moves the rest.
  Bytes send_buffer_;
  size_t send_head_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  uint32_t fin_seq_ = 0;

  // Receive state.
  uint32_t irs_ = 0;
  uint32_t rcv_nxt_ = 0;
  std::map<uint32_t, Bytes> out_of_order_;
  bool peer_fin_seen_ = false;
  uint32_t peer_fin_seq_ = 0;

  // Timers.
  EventLoop::EventId retransmit_event_ = EventLoop::kInvalidEventId;
  EventLoop::EventId time_wait_event_ = EventLoop::kInvalidEventId;
  int retransmit_count_ = 0;
  SimDuration current_rto_;

  // Callbacks.
  ConnectCallback connect_cb_;
  AcceptCallback accept_cb_;
  DataCallback data_cb_;
  ClosedCallback closed_cb_;

  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

class TcpStack {
 public:
  TcpStack(Host* host, TcpConfig config);
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  // Create a socket owned by this stack. The pointer stays valid for the
  // stack's lifetime (closed sockets are retained in kClosed state).
  TcpSocket* CreateSocket();

  const TcpConfig& config() const { return config_; }
  Host* host() const { return host_; }

  // Host demux entry points.
  void HandlePacket(const Packet& packet);
  void HandleIcmpError(const Packet& icmp);

  bool IsPortBound(uint16_t port) const;

 private:
  friend class TcpSocket;

  Status RegisterBind(TcpSocket* socket, uint16_t port);
  void UnregisterBind(TcpSocket* socket);
  Status RegisterListener(TcpSocket* socket);
  void UnregisterListener(TcpSocket* socket);
  Status RegisterConnection(TcpSocket* socket);
  void UnregisterConnection(TcpSocket* socket);

  uint32_t GenerateIss();
  // RST in response to a segment with no matching connection (RFC 793 p.36).
  void SendRstFor(const Packet& packet);
  // Spawn a connection in kSynReceived from a listener receiving SYN.
  // `replay_iss` carries the doomed connector's ISS in the hijack case.
  void SpawnFromListener(TcpSocket* listener, const Packet& syn,
                         std::optional<uint32_t> replay_iss);

  Host* host_;
  TcpConfig config_;
  // Sockets come from the slab (the swarm's TCP legs hold hundreds of
  // thousands of ~400-byte connection objects); the roster vector keeps
  // creation order for teardown. Closed sockets are retained in kClosed
  // state, so the pool only ever grows to the high-water mark.
  Slab<TcpSocket, 128> socket_pool_;
  std::vector<TcpSocket*> sockets_;
  // Per-segment demux tables, all flat-hash (see src/util/flat_hash.h).
  // bound_ maps a port to the newest socket bound to it; the sockets sharing
  // the port (SO_REUSEADDR) are chained through next_bound_.
  FlatHashMap<FourTuple, TcpSocket*, FourTupleHash> connections_;
  FlatHashMap<uint16_t, TcpSocket*> listeners_;
  FlatHashMap<uint16_t, TcpSocket*> bound_;
  // Reused buffer for the bytes handed to a socket's data callback (which
  // takes const Bytes&). Moved out for the call, so a nested delivery
  // starts from an empty buffer rather than clobbering the outer one.
  Bytes rx_scratch_;

  // Registry names: tcp.<host>.retransmits / simultaneous_opens / rsts_sent.
  // Null when the owning Network has no metrics registry.
  obs::Counter* metric_retransmits_ = nullptr;
  obs::Counter* metric_simultaneous_opens_ = nullptr;
  obs::Counter* metric_rsts_sent_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_TRANSPORT_TCP_H_
