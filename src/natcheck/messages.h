// NAT Check wire protocol (§6.1).
//
// Faithful to the paper's test method: the client talks to three
// well-known servers at different global IP addresses. Server 2 forwards
// UDP requests to server 3 (whose reply tests unsolicited-traffic
// filtering) and coordinates the TCP go-ahead dance that stages a
// simultaneous open between the client and server 3. Server-to-server
// coordination runs over UDP.
//
// Deliberately reproduced limitation (§6.3): like the original tool, these
// messages do NOT obfuscate embedded IP addresses, so a payload-rewriting
// NAT corrupts them — the fleet benchmark can quantify that artifact.

#ifndef SRC_NATCHECK_MESSAGES_H_
#define SRC_NATCHECK_MESSAGES_H_

#include <cstdint>
#include <optional>

#include "src/netsim/address.h"
#include "src/netsim/payload.h"
#include "src/util/bytes.h"

namespace natpunch {

enum class NcMsgType : uint8_t {
  kUdpPing = 1,       // client -> s1/s2: observe me
  kUdpPong = 2,       // server -> client: your endpoint as I see it
  kUdpForward = 3,    // s2 -> s3: probe this client endpoint
  kUdpProbe = 4,      // s3 -> client: unsolicited datagram (filter test)
  kUdpHairpin = 5,    // client second socket -> client first socket, via NAT
  kTcpHello = 6,      // client -> s1/s2 over the stream
  kTcpReply = 7,      // server -> client: observed endpoint (+ s3 verdict on s2)
  kTcpForward = 8,    // s2 -> s3 (UDP): connect to this client endpoint
  kTcpGoAhead = 9,    // s3 -> s2 (UDP): verdict on the inbound attempt
  kTcpHairpinHello = 10,  // client secondary port -> own public endpoint
  kTcpHairpinReply = 11,
};

// Verdict carried in kTcpGoAhead / relayed inside kTcpReply from server 2.
enum class NcProbeVerdict : uint8_t {
  kInProgress = 0,  // still retransmitting after the 5 s window (NAT drops)
  kConnected = 1,   // the unsolicited SYN went through (NAT does not filter)
  kRefused = 2,     // RST came back (§5.2 misbehavior)
};

struct NcMessage {
  NcMsgType type = NcMsgType::kUdpPing;
  uint64_t session = 0;
  uint8_t server_index = 0;        // which server is speaking (1..3)
  Endpoint observed;               // client endpoint as seen by the server
  NcProbeVerdict verdict = NcProbeVerdict::kInProgress;
};

Bytes EncodeNcMessage(const NcMessage& msg);
// Byte-identical to EncodeNcMessage, built straight into a packet payload's
// inline buffer (no heap allocation): the form every send path uses.
Payload EncodeNcMessagePayload(const NcMessage& msg);
std::optional<NcMessage> DecodeNcMessage(ConstByteSpan data);

}  // namespace natpunch

#endif  // SRC_NATCHECK_MESSAGES_H_
