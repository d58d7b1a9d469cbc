// Packet-level trace capture.
//
// Every hop (send, deliver, drop, NAT translation) can be recorded with the
// reason, which lets tests assert statements from the paper directly — e.g.
// "B's NAT dropped A's first SYN as unsolicited" or "NAT C hairpinned the
// datagram back inside". Disabled by default; recording costs nothing when
// off.
//
// The recorder is allocation-free on the hot path: node names are interned
// once (Node/Lan cache their TraceNodeId at construction) and the per-record
// detail text lives in a bounded inline buffer instead of a std::string, so
// recording a hop never touches the heap once the records vector has warmed
// up its capacity.

#ifndef SRC_NETSIM_TRACE_H_
#define SRC_NETSIM_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/netsim/packet.h"
#include "src/netsim/sim_time.h"

namespace natpunch {

enum class TraceEvent {
  kSend,                // node emitted a packet onto a LAN
  kDeliver,             // packet handed to a node's protocol stack
  kForward,             // router/NAT re-emitted a packet
  kDropLoss,            // random link loss
  kDropNoRoute,         // no routing table entry
  kDropNoNextHop,       // next hop not present on the LAN (no "ARP" answer)
  kDropTtl,             // TTL expired
  kDropPrivateLeak,     // private address routed onto the global realm
  kNatTranslateOut,     // NAT rewrote an outbound packet
  kNatTranslateIn,      // NAT rewrote an inbound packet
  kNatHairpin,          // NAT looped a packet back to the private side (§3.5)
  kNatDropUnsolicited,  // NAT silently dropped unsolicited inbound (§5.2 good)
  kNatRejectRst,        // NAT answered unsolicited SYN with RST (§5.2 bad)
  kNatRejectIcmp,       // NAT answered unsolicited packet with ICMP (§5.2 bad)
  kNatDropNoMapping,    // inbound with no matching translation
  kNatPayloadRewrite,   // NAT blindly rewrote an address inside the payload (§5.3)
  kLinkDown,            // packet dropped because the segment is administratively down
  kDropBurst,           // Gilbert-Elliott burst-loss drop (bad state)
  kFault,               // fault-injection engine executed a scheduled fault
  kCorrupt,             // adversarial fault: payload bits flipped in flight
  kDuplicate,           // adversarial fault: packet delivered twice
  kReorder,             // adversarial fault: packet held back past its peers
  kTruncate,            // adversarial fault: payload cut short in flight
};

std::string_view TraceEventName(TraceEvent e);

// Interned node name; index into the recorder's name table. 0 is the empty
// name.
using TraceNodeId = uint32_t;

// Bounded inline detail text. Every detail the simulator itself produces
// ("ip:port=>ip:port" at worst) fits; an append past the capacity replaces
// the tail with a "…" sentinel so a clipped diagnostic can never be read as
// complete. Building one never allocates, which is what lets the always-on
// NAT translate/drop paths record rich reasons without perturbing the
// zero-allocation packet path.
class TraceDetail {
 public:
  static constexpr size_t kCapacity = 55;

  TraceDetail() = default;
  TraceDetail(const char* text) { Append(std::string_view(text)); }    // NOLINT: implicit
  TraceDetail(std::string_view text) { Append(text); }                 // NOLINT: implicit
  TraceDetail(const std::string& text) { Append(std::string_view(text)); }  // NOLINT: implicit

  bool empty() const { return size() == 0; }
  std::string_view view() const { return std::string_view(buf_, size()); }
  // True when any Append overflowed the buffer; view() then ends in "…".
  bool truncated() const { return (size_ & kTruncatedBit) != 0; }

  TraceDetail& Append(std::string_view text);
  TraceDetail& Append(const Endpoint& ep);  // "a.b.c.d:port"
  TraceDetail& Append(Ipv4Address ip);      // "a.b.c.d"
  TraceDetail& Append(uint64_t value);

 private:
  // The truncation flag rides the high bit of size_ (size <= 55 < 128) so
  // the sentinel costs no extra record bytes.
  static constexpr uint8_t kTruncatedBit = 0x80;

  size_t size() const { return size_ & ~kTruncatedBit; }

  uint8_t size_ = 0;
  char buf_[kCapacity];
};

// Variadic builder: Detail(private_ep, "=>", mapped_ep).
template <typename... Parts>
TraceDetail Detail(const Parts&... parts) {
  TraceDetail d;
  (d.Append(parts), ...);
  return d;
}

class TraceRecorder;

struct TraceRecord {
  SimTime time;
  TraceNodeId node = 0;
  TraceEvent event = TraceEvent::kSend;
  uint64_t packet_id = 0;
  IpProtocol protocol = IpProtocol::kUdp;
  Endpoint src;
  Endpoint dst;
  TraceDetail detail;

  // Needs the recorder that produced the record to resolve the node name.
  std::string ToString(const TraceRecorder& trace) const;
};

class TraceRecorder {
 public:
  TraceRecorder() { names_.emplace_back(); }  // id 0 = ""

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Find-or-add `name` in the table. Nodes and Lans intern once at
  // construction and record with the id thereafter.
  TraceNodeId Intern(std::string_view name);
  const std::string& NodeName(TraceNodeId id) const { return names_[id]; }
  // Number of interned names including id 0 (the empty name); every node id
  // is < name_count(). The Chrome-trace exporter iterates this to emit one
  // named timeline row per node.
  size_t name_count() const { return names_.size(); }

  void Record(SimTime time, TraceNodeId node, TraceEvent event, const Packet& packet,
              TraceDetail detail = TraceDetail()) {
    if (!enabled_) {
      return;
    }
    records_.push_back(TraceRecord{time, node, event, packet.id, packet.protocol, packet.src(),
                                   packet.dst(), detail});
  }

  // Convenience overload interning on the fly; test and tooling code keeps
  // passing plain strings.
  void Record(SimTime time, const std::string& node, TraceEvent event, const Packet& packet,
              TraceDetail detail = TraceDetail()) {
    if (!enabled_) {
      return;
    }
    Record(time, Intern(node), event, packet, detail);
  }

  // Record an event with no associated packet (fault-injection actions,
  // link state changes). packet_id stays 0 and the endpoints unspecified.
  void RecordEvent(SimTime time, TraceNodeId node, TraceEvent event, TraceDetail detail);
  void RecordEvent(SimTime time, const std::string& node, TraceEvent event, TraceDetail detail) {
    if (!enabled_) {
      return;
    }
    RecordEvent(time, Intern(node), event, detail);
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  // Drops the records but keeps the vector capacity and the name table, so a
  // warmed-up recorder stays allocation-free after a Clear().
  void Clear() { records_.clear(); }
  // Full reset: also forgets interned names (Network::Reset). The name
  // index keeps its slot array, so a reset recorder re-interns a world's
  // names without allocating.
  void ClearAll() {
    records_.clear();
    names_.resize(1);
    std::fill(index_.begin(), index_.end(), TraceNodeId{0});
  }

  // Number of records matching `event` (optionally restricted to a node).
  size_t Count(TraceEvent event) const;
  size_t Count(TraceEvent event, TraceNodeId node) const;
  size_t Count(TraceEvent event, const std::string& node) const;

  // Dump all records, one line each; handy in failing tests.
  std::string Dump() const;

 private:
  // Slot in index_ holding `name`'s id, or the empty slot where it belongs.
  size_t FindSlot(std::string_view name) const;

  bool enabled_ = false;
  std::vector<TraceRecord> records_;
  std::vector<std::string> names_;  // id -> name
  // name -> id: open addressing with linear probing over a power-of-two
  // slot array of ids into names_, 0 marking an empty slot (id 0, the empty
  // name, is never indexed). Kept at most half full.
  std::vector<TraceNodeId> index_;
};

}  // namespace natpunch

#endif  // SRC_NETSIM_TRACE_H_
