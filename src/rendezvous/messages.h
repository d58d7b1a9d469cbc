// Rendezvous wire protocol (the role of server S in §3.1 / §4.2).
//
// One message schema serves both transports: UDP carries one message per
// datagram; TCP prefixes each message with a u16 length (MessageFramer).
//
// Address obfuscation: when enabled, every IPv4 address in a message body is
// transmitted as its one's complement, the §3.1/§5.3 countermeasure against
// NATs that blindly rewrite address-like payload bytes. Client and server
// must agree on the setting; the codec takes it as a parameter so the
// "bad NAT × obfuscation" ablation is a single flag flip.

#ifndef SRC_RENDEZVOUS_MESSAGES_H_
#define SRC_RENDEZVOUS_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/netsim/address.h"
#include "src/netsim/payload.h"
#include "src/util/bytes.h"

namespace natpunch {

enum class RvMsgType : uint8_t {
  kRegister = 1,       // client -> S: client_id + private endpoint (§3.1)
  kRegisterOk = 2,     // S -> client: observed public endpoint
  kConnectRequest = 3, // A -> S: "help me reach target_id" (+ nonce, strategy)
  kConnectForward = 4, // S -> B: A's public+private endpoints (+ nonce)
  kConnectAck = 5,     // S -> A: B's public+private endpoints (+ nonce)
  kConnectError = 6,   // S -> A: target not registered
  kKeepAlive = 7,      // client -> S: refresh NAT mapping + registration
  kRelayData = 8,      // client -> S: payload for target_id (§2.2 relaying)
  kRelayForward = 9,   // S -> client: relayed payload from client_id
  kSequentialReady = 10,  // B -> S -> A: §4.5 step 3->4 signal
  kKeepAliveAck = 11,  // S -> client: keepalive echo carrying the epoch
};

// How the requesting peer intends to establish connectivity; forwarded
// verbatim so the responder runs the matching procedure.
enum class ConnectStrategy : uint8_t {
  kHolePunch = 1,   // §3.2 (UDP) / §4.2 (TCP) parallel hole punching
  kReversal = 2,    // §2.3 connection reversal
  kRelayOnly = 3,   // §2.2 pure relaying
  kSequential = 4,  // §4.5 sequential (NatTrav-style) TCP punching
  kPredicted = 5,   // §5.1 port prediction for symmetric NATs
};

struct RendezvousMessage {
  RvMsgType type = RvMsgType::kKeepAlive;
  uint64_t client_id = 0;  // sender identity (register) or origin (forwards)
  uint64_t target_id = 0;  // destination peer for requests/relays
  uint64_t nonce = 0;      // session authentication token (§3.4)
  // Server incarnation number, stamped by S into every server->client
  // message (0 from clients). A client that sees the epoch change knows S
  // restarted and lost its registration table, and must re-register.
  uint64_t epoch = 0;
  ConnectStrategy strategy = ConnectStrategy::kHolePunch;
  Endpoint public_ep;
  Endpoint private_ep;
  Bytes payload;
};

Bytes EncodeRendezvousMessage(const RendezvousMessage& msg, bool obfuscate_addresses);
// Byte-identical to EncodeRendezvousMessage, built straight into a packet
// payload; the form the client and server send. A message without payload
// (a keepalive, an ack) fits inline, so a UDP send of one never allocates.
// The three-argument form writes `epoch` in place of msg.epoch, so a sender
// that stamps its own epoch need not copy the message (payload included).
Payload EncodeRendezvousMessagePayload(const RendezvousMessage& msg, bool obfuscate_addresses,
                                       uint64_t epoch);
inline Payload EncodeRendezvousMessagePayload(const RendezvousMessage& msg,
                                              bool obfuscate_addresses) {
  return EncodeRendezvousMessagePayload(msg, obfuscate_addresses, msg.epoch);
}
std::optional<RendezvousMessage> DecodeRendezvousMessage(ConstByteSpan data,
                                                         bool obfuscate_addresses);

// Reassembles length-prefixed messages from a TCP byte stream.
//
// Armor: a length prefix above max_frame marks the stream as desynchronized
// or hostile. The framer drops its whole buffer and counts the event; there
// is no resync point in a length-prefixed stream, so the owner should treat
// the connection as poisoned. The cap is two-tier: control-only streams keep
// the tight 8 KiB default, while data-bearing boundaries (p2p streams, the
// rendezvous connection that carries relay payloads) raise it to the u16
// prefix's own ceiling via set_max_frame(kMaxDataFrame).
class MessageFramer {
 public:
  static constexpr size_t kDefaultMaxFrame = 8192;
  // Largest frame the u16 length prefix can describe; boundaries that carry
  // bulk application payloads use this instead of the control-plane default.
  static constexpr size_t kMaxDataFrame = 65535;

  // Frame a message body for stream transmission.
  static Bytes Frame(ConstByteSpan body);

  // Feed stream bytes; returns every complete message body now available.
  std::vector<Bytes> Append(const Bytes& data);

  // Feed stream bytes and call on_body(ConstByteSpan) for every complete
  // message body, in order, without allocating per message. A body is a
  // view into `data` or into the framer's buffer, valid only during its
  // call; on_body must neither feed nor destroy this framer. Only a partial
  // frame left at the end is copied into the buffer.
  template <typename OnBody>
  void Append(ConstByteSpan data, OnBody&& on_body);

  void set_max_frame(size_t max_frame) { max_frame_ = max_frame; }
  // Number of times an over-limit length prefix forced a buffer drop.
  uint64_t oversize_frames() const { return oversize_frames_; }
  // True when the framer has hit an oversize prefix; the stream past that
  // point is unparseable and the connection should be torn down.
  bool poisoned() const { return oversize_frames_ > 0; }

 private:
  Bytes buffer_;
  size_t max_frame_ = kDefaultMaxFrame;
  uint64_t oversize_frames_ = 0;
};

template <typename OnBody>
void MessageFramer::Append(ConstByteSpan data, OnBody&& on_body) {
  // With nothing buffered, frames are parsed straight out of `data`.
  const bool direct = buffer_.empty();
  if (!direct) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }
  const uint8_t* bytes = direct ? data.data() : buffer_.data();
  const size_t size = direct ? data.size() : buffer_.size();
  size_t pos = 0;
  while (size - pos >= 2) {
    const size_t len = static_cast<size_t>(bytes[pos]) << 8 | bytes[pos + 1];
    if (len > max_frame_) {
      // A length prefix beyond any legitimate message means the stream is
      // desynchronized (corruption) or hostile (memory-exhaustion header).
      // There is no way to resynchronize a length-prefixed stream, so drop
      // everything buffered; the transport layer owns reconnecting.
      ++oversize_frames_;
      buffer_.clear();
      return;
    }
    if (size - pos - 2 < len) {
      break;
    }
    on_body(ConstByteSpan(bytes + pos + 2, len));
    pos += 2 + len;
  }
  if (direct) {
    buffer_.assign(bytes + pos, bytes + size);
  } else {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(pos));
  }
}

}  // namespace natpunch

#endif  // SRC_RENDEZVOUS_MESSAGES_H_
