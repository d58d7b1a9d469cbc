// A Lan is one broadcast domain / address realm segment.
//
// The paper's Figure 1 topology maps directly: each private network is a Lan,
// and the "main" global realm is a Lan with is_global set (which additionally
// drops leaked RFC 1918 destinations, as real inter-domain routing would).
// Latency, jitter, and loss are per-Lan so experiments can, e.g., make one
// client's access link slower to control which SYN arrives first.

#ifndef SRC_NETSIM_LAN_H_
#define SRC_NETSIM_LAN_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/netsim/address.h"
#include "src/netsim/event_loop.h"
#include "src/netsim/packet.h"
#include "src/netsim/sim_time.h"
#include "src/netsim/trace.h"
#include "src/util/flat_hash.h"
#include "src/util/inline_vector.h"

namespace natpunch {

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

class Network;
class Node;

// Gilbert-Elliott two-state burst-loss model. The channel wanders between a
// "good" and a "bad" state per transmitted packet; loss probability depends
// on the state, which is what produces the correlated loss bursts real
// access links exhibit (and that independent `loss` cannot). Disabled by
// default so it draws no randomness unless asked for.
struct GilbertElliottConfig {
  bool enabled = false;
  double p_good_to_bad = 0.01;  // per-packet transition probability good->bad
  double p_bad_to_good = 0.25;  // per-packet transition probability bad->good
  double loss_good = 0.0;       // loss probability while in the good state
  double loss_bad = 1.0;        // loss probability while in the bad state
};

// Adversarial in-flight mangling: seeded, deterministic byte-level hostility
// on top of the loss models. Each fault kind is independent and draws
// randomness only while its probability is non-zero, so enabling one (or
// none) never perturbs the RNG stream consumed by the others — golden traces
// for non-hostile configs stay bit-identical. Every applied fault is traced
// (kCorrupt/kDuplicate/kReorder/kTruncate) and counted via obs metrics
// (`lan.<name>.corrupted/duplicated/reordered/truncated`).
struct MangleConfig {
  double corrupt = 0.0;        // per-packet probability of flipping payload bits
  int corrupt_max_bits = 3;    // 1..corrupt_max_bits bits flipped per corruption
  double truncate = 0.0;       // probability of cutting the payload short
  double duplicate = 0.0;      // probability of delivering the packet twice
  double reorder = 0.0;        // probability of holding the packet back
  SimDuration reorder_hold = Millis(50);  // max extra hold; actual in [1us, hold]

  bool any() const { return corrupt > 0.0 || truncate > 0.0 || duplicate > 0.0 || reorder > 0.0; }
};

struct LanConfig {
  SimDuration latency = Millis(5);     // one-way propagation delay
  SimDuration jitter = Micros(0);      // extra uniform delay in [0, jitter]
  double loss = 0.0;                // independent per-packet loss probability
  GilbertElliottConfig burst{};     // correlated burst loss, on top of `loss`
  MangleConfig mangle{};            // adversarial corruption/dup/reorder/truncate
  // Shared-medium capacity in bits/s; 0 = infinite. Packets serialize one
  // at a time, so a saturated segment queues (and delays) everything on it.
  double bandwidth_bps = 0.0;
  bool is_global = false;  // the public Internet realm
};

// The slots in which every Lan of one Network parks its in-flight packets.
// Chunks double in size from kFirstChunk slots and never move, each slot is
// constructed when the pool first reaches it, and freed slots go on one
// LIFO free list, so the slot a delivery frees is the next transmit's.
//
// One pool per Network rather than per Lan: a pool only grows, so it costs
// its owner's high-water mark, and the most packets a whole Network has in
// flight at once is far below the sum of every Lan's own peak (each private
// Lan of a swarm peaks once, during its pair's punch ramp). Chunks rather
// than one flat vector, whose growth would copy the pool and free its old
// multi-megabyte block, moving glibc's mmap threshold and with it peak RSS.
// A small first chunk keeps small worlds in small allocations.
//
// Observability: AttachMetrics wires mem.lan_deliveries.{live,peak,chunks}
// gauges; with no registry nothing is recorded.
class DeliveryPool {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr uint32_t kFirstChunk = 16;

  // An in-flight delivery parked in a slot. Its event id is reserved at
  // transmit time, so it keeps the (time, sequence) key a scheduled closure
  // would have had. `prev`/`next` link the owning Lan's in-flight list;
  // `next` also threads the free list.
  struct PendingDelivery {
    int64_t time = 0;           // delivery time, micros
    EventLoop::EventId id = 0;  // reserved by Lan::Transmit
    uint32_t prev = kNoSlot;
    uint32_t next = kNoSlot;
    uint32_t target = 0;        // index into the owning Lan's attachments
    bool armed = false;         // (time, id) key pushed into the heap
    Packet packet;
  };
  static_assert(sizeof(PendingDelivery) <= 168,
                "in-flight delivery footprint budget; see DESIGN.md Memory footprint");

  DeliveryPool() = default;
  ~DeliveryPool();

  DeliveryPool(const DeliveryPool&) = delete;
  DeliveryPool& operator=(const DeliveryPool&) = delete;

  // Takes a free slot, or constructs the next one (adding a chunk if the
  // last is full). Earlier slots never move.
  uint32_t Acquire();
  // Returns a delivered (or dropped) slot to the free list. Frees a
  // heap-spilled payload the receiver did not take, so an idle slot never
  // pins a jumbo buffer.
  void Release(uint32_t slot);

  // Chunk k holds kFirstChunk << k slots and starts at slot
  // kFirstChunk * (2^k - 1).
  PendingDelivery& operator[](uint32_t slot) {
    const int k = std::bit_width((slot / kFirstChunk) + 1) - 1;
    return chunks_[k][slot + kFirstChunk - (kFirstChunk << k)];
  }

  size_t live() const { return live_; }    // slots holding a packet in flight
  size_t peak() const { return peak_; }    // high-water live count this run
  size_t slots() const { return slot_count_; }  // slots constructed so far
  size_t chunks() const { return chunks_.size(); }
  size_t capacity() const { return size_t{kFirstChunk} * ((size_t{1} << chunks_.size()) - 1); }

  // Network::Reset: a new run starts its peak from the (empty) live count.
  // Keeps the chunks and republishes every gauge.
  void ResetPeak();

  // Registers mem.lan_deliveries.{live,peak,chunks}. Null registry detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct ChunkDeleter {
    void operator()(PendingDelivery* chunk) const { ::operator delete(chunk); }
  };
  std::vector<std::unique_ptr<PendingDelivery[], ChunkDeleter>> chunks_;
  uint32_t slot_count_ = 0;
  uint32_t free_ = kNoSlot;
  size_t live_ = 0;
  size_t peak_ = 0;
  obs::Gauge* metric_live_ = nullptr;
  obs::Gauge* metric_peak_ = nullptr;
  obs::Gauge* metric_chunks_ = nullptr;
};

// In-flight packets wait in one list per Lan, sorted by (delivery time,
// event id) and threaded through the Network's DeliveryPool; only the list
// head is armed in the event loop's heap (see event_loop.h, "Reserved
// events"). With constant latency every new packet lands on the tail in
// O(1), and the heap holds one key per busy Lan instead of one per packet in
// flight, so its pushes and pops stay shallow.
//
// A Lan must not outlive its Network: its slots, clock and event ids all
// belong to the Network.
class Lan final : private EventLoop::ReservedOwner {
 public:
  Lan(Network* network, std::string name, LanConfig config);
  // Cancels every delivery still in flight and returns its slot to the pool.
  ~Lan();

  Lan(const Lan&) = delete;
  Lan& operator=(const Lan&) = delete;

  const std::string& name() const { return name_; }
  const LanConfig& config() const { return config_; }
  void set_config(const LanConfig& config) { config_ = config; }

  // Administrative link state (fault injection: a partition takes the
  // segment down; every Transmit while down is dropped with kLinkDown).
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  // Whether the Gilbert-Elliott channel currently sits in the bad state.
  bool burst_bad_state() const { return burst_bad_; }

  // Registered by Node::AttachTo.
  void Attach(Node* node, int iface, Ipv4Address ip);

  bool HasAddress(Ipv4Address ip) const;

  // Emit `packet` toward `next_hop` on this segment. Applies loss and delay,
  // then delivers to the attachment owning next_hop, if any. The packet is
  // consumed (parked in a DeliveryPool slot) only when it survives the
  // loss/link checks.
  void Transmit(Node* sender, Ipv4Address next_hop, Packet&& packet);

  uint64_t packets_transmitted() const { return packets_; }
  uint64_t bytes_transmitted() const { return bytes_; }

 private:
  struct Attachment {
    Node* node;
    int iface;
    Ipv4Address ip;
  };

  using PendingDelivery = DeliveryPool::PendingDelivery;
  static constexpr uint32_t kNoSlot = DeliveryPool::kNoSlot;
  // Past this many attachments (the global realm: every NAT and server) a
  // Lan indexes its addresses instead of scanning them per packet. Smaller
  // Lans, the many private segments of fleet worlds, build no index and
  // allocate nothing for it.
  static constexpr size_t kIndexedAttachments = 8;

  // The attachment a packet for `next_hop` sent by `sender` goes to: one
  // owning next_hop on another node if there is one, else the first owner
  // (a node may address itself), else null.
  const Attachment* Resolve(const Node* sender, Ipv4Address next_hop) const;

  // EventLoop::ReservedOwner: the armed head is due / the loop was Reset.
  void FireReserved() override;
  void DropReserved() override;

  // Reserve an event id for `packet` and insert it into the in-flight list
  // at its (time, id) position, arming it if it becomes the head.
  void Enqueue(int64_t time, uint32_t target, Packet&& packet);
  // Applies the MangleConfig to a packet that survived the loss models.
  // Mutates the payload in place (corrupt/truncate) and reports via `extra`
  // how long a reordered packet is held past its computed delay and via
  // `duplicate` whether a second copy must be scheduled.
  void Mangle(Packet& packet, SimDuration& extra, bool& duplicate);
  PendingDelivery& delivery(uint32_t slot) { return (*pool_)[slot]; }

  Network* network_;
  DeliveryPool* pool_;  // the Network's
  std::string name_;
  TraceNodeId trace_id_ = 0;
  LanConfig config_;
  bool up_ = true;
  bool burst_bad_ = false;  // Gilbert-Elliott channel state
  // A private LAN (a NAT and its host) fits inline; the global realm spills.
  InlineVector<Attachment, 2> attachments_;
  // ip -> index of its first attachment; built once the Lan has more than
  // kIndexedAttachments attachments, empty (and unallocated) before that.
  FlatHashMap<uint32_t, uint32_t> ip_index_;
  SimTime medium_free_at_;  // when the shared medium finishes its last frame
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint32_t head_ = kNoSlot;  // earliest in-flight delivery
  uint32_t tail_ = kNoSlot;  // latest in-flight delivery
  // Null when the Network has no metrics registry (obs::Inc is null-safe).
  obs::Counter* metric_corrupted_ = nullptr;
  obs::Counter* metric_duplicated_ = nullptr;
  obs::Counter* metric_reordered_ = nullptr;
  obs::Counter* metric_truncated_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_NETSIM_LAN_H_
