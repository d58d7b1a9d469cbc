#include "src/netsim/lan.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/netsim/network.h"
#include "src/netsim/node.h"
#include "src/obs/metrics.h"

namespace natpunch {

DeliveryPool::~DeliveryPool() {
  for (uint32_t slot = 0; slot < slot_count_; ++slot) {
    std::destroy_at(&(*this)[slot]);
  }
}

uint32_t DeliveryPool::Acquire() {
  uint32_t slot = free_;
  if (slot != kNoSlot) {
    free_ = (*this)[slot].next;
  } else {
    if (slot_count_ == capacity()) {
      std::unique_ptr<PendingDelivery[], ChunkDeleter> chunk(static_cast<PendingDelivery*>(
          ::operator new((size_t{kFirstChunk} << chunks_.size()) * sizeof(PendingDelivery))));
      chunks_.push_back(std::move(chunk));
      obs::Set(metric_chunks_, static_cast<int64_t>(chunks_.size()));
    }
    slot = slot_count_++;
    std::construct_at(&(*this)[slot]);
  }
  if (++live_ > peak_) {
    peak_ = live_;
    obs::Set(metric_peak_, static_cast<int64_t>(peak_));
  }
  obs::Set(metric_live_, static_cast<int64_t>(live_));
  return slot;
}

void DeliveryPool::Release(uint32_t slot) {
  PendingDelivery& d = (*this)[slot];
  if (!d.packet.payload.is_inline()) {
    d.packet.payload = Payload();
  }
  d.next = free_;
  free_ = slot;
  --live_;
  obs::Set(metric_live_, static_cast<int64_t>(live_));
}

void DeliveryPool::ResetPeak() {
  peak_ = live_;
  obs::Set(metric_live_, static_cast<int64_t>(live_));
  obs::Set(metric_peak_, static_cast<int64_t>(peak_));
  obs::Set(metric_chunks_, static_cast<int64_t>(chunks_.size()));
}

void DeliveryPool::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_live_ = metric_peak_ = metric_chunks_ = nullptr;
    return;
  }
  metric_live_ = registry->GetGauge("mem.lan_deliveries.live");
  metric_peak_ = registry->GetGauge("mem.lan_deliveries.peak");
  metric_chunks_ = registry->GetGauge("mem.lan_deliveries.chunks");
  ResetPeak();
}

Lan::Lan(Network* network, std::string name, LanConfig config)
    : network_(network), pool_(&network->delivery_pool()), name_(std::move(name)), config_(config) {
  trace_id_ = network_->trace().Intern(name_);
  if (obs::MetricsRegistry* reg = network_->metrics()) {
    char metric_name[96];
    const auto metric = [&](const char* suffix) {
      const int n =
          std::snprintf(metric_name, sizeof(metric_name), "lan.%s.%s", name_.c_str(), suffix);
      return reg->GetCounter(std::string_view(metric_name, static_cast<size_t>(n)));
    };
    metric_corrupted_ = metric("corrupted");
    metric_duplicated_ = metric("duplicated");
    metric_reordered_ = metric("reordered");
    metric_truncated_ = metric("truncated");
  }
}

Lan::~Lan() {
  EventLoop& loop = network_->event_loop();
  while (head_ != kNoSlot) {
    const uint32_t slot = head_;
    head_ = delivery(slot).next;
    loop.CancelReserved(delivery(slot).id);
    pool_->Release(slot);
  }
}

void Lan::Attach(Node* node, int iface, Ipv4Address ip) {
  attachments_.push_back(Attachment{node, iface, ip});
  if (attachments_.size() <= kIndexedAttachments) {
    return;
  }
  // The first Attach past the threshold indexes every attachment so far.
  // FindOrInsert leaves an existing entry alone, so the index keeps each
  // address's first owner.
  for (size_t i = ip_index_.empty() ? 0 : attachments_.size() - 1; i < attachments_.size(); ++i) {
    bool inserted = false;
    uint32_t* owner = ip_index_.FindOrInsert(attachments_[i].ip.bits(), &inserted);
    if (inserted) {
      *owner = static_cast<uint32_t>(i);
    }
  }
}

bool Lan::HasAddress(Ipv4Address ip) const {
  if (!ip_index_.empty()) {
    return ip_index_.Contains(ip.bits());
  }
  for (const auto& a : attachments_) {
    if (a.ip == ip) {
      return true;
    }
  }
  return false;
}

const Lan::Attachment* Lan::Resolve(const Node* sender, Ipv4Address next_hop) const {
  if (!ip_index_.empty()) {
    const uint32_t* first = ip_index_.Find(next_hop.bits());
    if (first == nullptr) {
      return nullptr;
    }
    if (attachments_[*first].node != sender) {
      return &attachments_[*first];
    }
    // The first owner is the sender itself: another node may share the
    // address, which only the scan below can find.
  }
  // Single scan: prefer an attachment owning next_hop on another node, but
  // remember the first owner of any kind so a node may legitimately address
  // itself (loopback-style) when nothing else matches.
  const Attachment* target = nullptr;
  for (const auto& a : attachments_) {
    if (a.ip != next_hop) {
      continue;
    }
    if (a.node != sender) {
      return &a;
    }
    if (target == nullptr) {
      target = &a;
    }
  }
  return target;
}

void Lan::Transmit(Node* sender, Ipv4Address next_hop, Packet&& packet) {
  ++packets_;
  const size_t wire_size = packet.WireSize();
  bytes_ += wire_size;

  if (!up_) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kLinkDown, packet);
    return;
  }

  if (config_.loss > 0.0 && network_->rng().NextBool(config_.loss)) {
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropLoss, packet);
    return;
  }

  if (config_.burst.enabled) {
    // Advance the Gilbert-Elliott channel one step per transmitted packet,
    // then apply the current state's loss probability.
    burst_bad_ = burst_bad_ ? !network_->rng().NextBool(config_.burst.p_bad_to_good)
                            : network_->rng().NextBool(config_.burst.p_good_to_bad);
    const double p = burst_bad_ ? config_.burst.loss_bad : config_.burst.loss_good;
    if (p > 0.0 && network_->rng().NextBool(p)) {
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDropBurst, packet,
                               burst_bad_ ? "bad" : "good");
      return;
    }
  }

  const Attachment* target = Resolve(sender, next_hop);
  if (target == nullptr) {
    const TraceEvent event = (config_.is_global && packet.dst_ip.IsPrivate())
                                 ? TraceEvent::kDropPrivateLeak
                                 : TraceEvent::kDropNoNextHop;
    // Guarded so Detail()'s formatting is skipped when tracing is off: probes
    // to private endpoints leak onto the global Lan on every punch.
    if (network_->trace().enabled()) {
      network_->trace().Record(network_->now(), trace_id_, event, packet,
                               Detail("next_hop=", next_hop));
    }
    return;
  }

  SimDuration delay = config_.latency;
  if (config_.jitter.micros() > 0) {
    delay = delay + Micros(network_->rng().NextInRange(0, config_.jitter.micros()));
  }
  if (config_.bandwidth_bps > 0) {
    // Serialization on a shared medium: wait for the segment to go idle,
    // then occupy it for the frame's transmission time.
    const double tx_seconds = static_cast<double>(wire_size) * 8 / config_.bandwidth_bps;
    const SimDuration tx_time = Micros(static_cast<int64_t>(tx_seconds * 1e6));
    const SimTime start = std::max(network_->now(), medium_free_at_);
    medium_free_at_ = start + tx_time;
    delay = delay + (medium_free_at_ - network_->now());
  }

  // Adversarial mangling happens after the loss models and target resolution
  // so a mangled packet is always one that would otherwise have been
  // delivered intact. Corruption/truncation mutate the payload in place
  // (the duplicate, if any, carries the same damage — real duplication
  // happens downstream of the corrupting link).
  SimDuration extra_hold = Micros(0);
  bool duplicate = false;
  if (config_.mangle.any()) {
    Mangle(packet, extra_hold, duplicate);
  }

  // The duplicate reserves its id first, so it keeps its place ahead of the
  // original at equal delivery times.
  const int64_t now = network_->now().micros();
  const int64_t at = std::max(now, now + delay.micros());
  const auto target_index = static_cast<uint32_t>(target - attachments_.data());
  if (duplicate) {
    Enqueue(at, target_index, Packet(packet));
  }
  Enqueue(at + extra_hold.micros(), target_index, std::move(packet));
}

void Lan::Enqueue(int64_t time, uint32_t target, Packet&& packet) {
  EventLoop& loop = network_->event_loop();
  const uint32_t slot = pool_->Acquire();
  PendingDelivery& d = delivery(slot);
  d.time = time;
  d.id = loop.ReserveEvent(this);
  d.target = target;
  d.armed = false;
  d.packet = std::move(packet);
  // The new id is the largest issued so far, so the packet goes after every
  // delivery due at or before `time`. With constant latency that is the
  // tail; jitter, a reorder hold, or a latency drop walks back a few links.
  uint32_t after = tail_;
  while (after != kNoSlot && delivery(after).time > time) {
    after = delivery(after).prev;
  }
  d.prev = after;
  d.next = after == kNoSlot ? head_ : delivery(after).next;
  if (d.next == kNoSlot) {
    tail_ = slot;
  } else {
    delivery(d.next).prev = slot;
  }
  if (after != kNoSlot) {
    delivery(after).next = slot;
    return;
  }
  // A new head: arm it. The old head stays armed; it pops after this one.
  head_ = slot;
  d.armed = true;
  loop.ArmReserved(SimTime(time), d.id);
}

void Lan::Mangle(Packet& packet, SimDuration& extra, bool& duplicate) {
  const MangleConfig& m = config_.mangle;
  Rng& rng = network_->rng();
  // Fixed draw order (corrupt, truncate, duplicate, reorder), each kind
  // drawing only when its probability is non-zero: replays are bit-identical
  // per seed and disabling a kind never shifts the stream of the others.
  if (m.corrupt > 0.0 && !packet.payload.empty() && rng.NextBool(m.corrupt)) {
    const uint64_t max_bits = m.corrupt_max_bits < 1 ? 1 : static_cast<uint64_t>(m.corrupt_max_bits);
    const uint64_t bits = 1 + rng.NextBelow(max_bits);
    for (uint64_t i = 0; i < bits; ++i) {
      const uint64_t bit = rng.NextBelow(static_cast<uint64_t>(packet.payload.size()) * 8);
      packet.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    if (network_->trace().enabled()) {
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kCorrupt, packet,
                               Detail("bits=", bits));
    }
    obs::Inc(metric_corrupted_);
  }
  if (m.truncate > 0.0 && !packet.payload.empty() && rng.NextBool(m.truncate)) {
    const size_t new_size = static_cast<size_t>(rng.NextBelow(packet.payload.size()));
    if (network_->trace().enabled()) {
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kTruncate, packet,
                               Detail(uint64_t{packet.payload.size()}, "=>", uint64_t{new_size}));
    }
    packet.payload.resize(new_size);
    obs::Inc(metric_truncated_);
  }
  if (m.duplicate > 0.0 && rng.NextBool(m.duplicate)) {
    duplicate = true;
    network_->trace().Record(network_->now(), trace_id_, TraceEvent::kDuplicate, packet);
    obs::Inc(metric_duplicated_);
  }
  if (m.reorder > 0.0 && rng.NextBool(m.reorder)) {
    const int64_t max_us = std::max<int64_t>(1, m.reorder_hold.micros());
    extra = Micros(rng.NextInRange(1, max_us));
    if (network_->trace().enabled()) {
      network_->trace().Record(network_->now(), trace_id_, TraceEvent::kReorder, packet,
                               Detail("hold_us=", static_cast<uint64_t>(extra.micros())));
    }
    obs::Inc(metric_reordered_);
  }
}

void Lan::FireReserved() {
  // The loop dispatched the head's key. Unlink it and arm its successor
  // under the id that one reserved at transmit time (unless it was armed
  // when it became a head on insertion), then hand the packet to the node
  // straight from its slot and release the slot afterwards. HandlePacket
  // may re-enter Transmit on this or another Lan: the slot is off the
  // in-flight list and not yet free, so that Transmit takes another slot,
  // and the pool's chunks never move, so `d` stays valid even if it grows.
  const uint32_t slot = head_;
  PendingDelivery& d = delivery(slot);
  head_ = d.next;
  if (head_ == kNoSlot) {
    tail_ = kNoSlot;
  } else {
    PendingDelivery& next = delivery(head_);
    next.prev = kNoSlot;
    if (!next.armed) {
      next.armed = true;
      network_->event_loop().ArmReserved(SimTime(next.time), next.id);
    }
  }
  const Attachment& to = attachments_[d.target];
  Node* const node = to.node;
  const int iface = to.iface;
  network_->trace().Record(network_->now(), node->trace_id(), TraceEvent::kDeliver, d.packet);
  node->HandlePacket(iface, std::move(d.packet));
  pool_->Release(slot);
}

void Lan::DropReserved() {
  // The loop was Reset and forgot every reserved id: free the whole list.
  // Later calls for the same Lan find it empty.
  while (head_ != kNoSlot) {
    const uint32_t slot = head_;
    head_ = delivery(slot).next;
    pool_->Release(slot);
  }
  tail_ = kNoSlot;
}

}  // namespace natpunch
