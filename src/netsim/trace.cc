#include "src/netsim/trace.h"

#include <cstdio>
#include <cstring>

namespace natpunch {

std::string_view TraceEventName(TraceEvent e) {
  switch (e) {
    case TraceEvent::kSend:
      return "SEND";
    case TraceEvent::kDeliver:
      return "DELIVER";
    case TraceEvent::kForward:
      return "FORWARD";
    case TraceEvent::kDropLoss:
      return "DROP_LOSS";
    case TraceEvent::kDropNoRoute:
      return "DROP_NO_ROUTE";
    case TraceEvent::kDropNoNextHop:
      return "DROP_NO_NEXT_HOP";
    case TraceEvent::kDropTtl:
      return "DROP_TTL";
    case TraceEvent::kDropPrivateLeak:
      return "DROP_PRIVATE_LEAK";
    case TraceEvent::kNatTranslateOut:
      return "NAT_OUT";
    case TraceEvent::kNatTranslateIn:
      return "NAT_IN";
    case TraceEvent::kNatHairpin:
      return "NAT_HAIRPIN";
    case TraceEvent::kNatDropUnsolicited:
      return "NAT_DROP_UNSOLICITED";
    case TraceEvent::kNatRejectRst:
      return "NAT_REJECT_RST";
    case TraceEvent::kNatRejectIcmp:
      return "NAT_REJECT_ICMP";
    case TraceEvent::kNatDropNoMapping:
      return "NAT_DROP_NO_MAPPING";
    case TraceEvent::kNatPayloadRewrite:
      return "NAT_PAYLOAD_REWRITE";
    case TraceEvent::kLinkDown:
      return "LINK_DOWN";
    case TraceEvent::kDropBurst:
      return "DROP_BURST";
    case TraceEvent::kFault:
      return "FAULT";
    case TraceEvent::kCorrupt:
      return "CORRUPT";
    case TraceEvent::kDuplicate:
      return "DUPLICATE";
    case TraceEvent::kReorder:
      return "REORDER";
    case TraceEvent::kTruncate:
      return "TRUNCATE";
  }
  return "?";
}

TraceDetail& TraceDetail::Append(std::string_view text) {
  if (truncated()) {
    return *this;  // tail already replaced by the sentinel; keep it last
  }
  const size_t used = size();
  size_t n = text.size();
  if (n <= kCapacity - used) {
    std::memcpy(buf_ + used, text.data(), n);
    size_ = static_cast<uint8_t>(used + n);
    return *this;
  }
  // Overflow: fill the buffer, then overwrite the last three bytes with a
  // UTF-8 ellipsis so the clipped detail is visibly incomplete.
  static_assert(kCapacity >= 3, "no room for the truncation sentinel");
  n = kCapacity - used;
  std::memcpy(buf_ + used, text.data(), n);
  std::memcpy(buf_ + kCapacity - 3, "\xe2\x80\xa6", 3);
  size_ = static_cast<uint8_t>(kCapacity) | kTruncatedBit;
  return *this;
}

TraceDetail& TraceDetail::Append(Ipv4Address ip) {
  char tmp[16];
  const uint32_t b = ip.bits();
  const int n = std::snprintf(tmp, sizeof(tmp), "%u.%u.%u.%u", (b >> 24) & 0xff, (b >> 16) & 0xff,
                              (b >> 8) & 0xff, b & 0xff);
  return Append(std::string_view(tmp, static_cast<size_t>(n)));
}

TraceDetail& TraceDetail::Append(const Endpoint& ep) {
  Append(ep.ip);
  char tmp[8];
  const int n = std::snprintf(tmp, sizeof(tmp), ":%u", ep.port);
  return Append(std::string_view(tmp, static_cast<size_t>(n)));
}

TraceDetail& TraceDetail::Append(uint64_t value) {
  char tmp[24];
  const int n = std::snprintf(tmp, sizeof(tmp), "%llu", static_cast<unsigned long long>(value));
  return Append(std::string_view(tmp, static_cast<size_t>(n)));
}

std::string TraceRecord::ToString(const TraceRecorder& trace) const {
  std::string out = time.ToString() + " " + trace.NodeName(node) + " " +
                    std::string(TraceEventName(event)) + " " +
                    std::string(IpProtocolName(protocol)) + " " + src.ToString() + "->" +
                    dst.ToString() + " #" + std::to_string(packet_id);
  if (!detail.empty()) {
    out += " (";
    out += detail.view();
    out += ")";
  }
  return out;
}

size_t TraceRecorder::FindSlot(std::string_view name) const {
  const size_t mask = index_.size() - 1;
  size_t i = std::hash<std::string_view>{}(name) & mask;
  while (index_[i] != 0 && names_[index_[i]] != name) {
    i = (i + 1) & mask;
  }
  return i;
}

TraceNodeId TraceRecorder::Intern(std::string_view name) {
  if (2 * names_.size() > index_.size()) {
    // Double the slot array and re-index every name, so that it stays at
    // most half full after this insert.
    index_.assign(std::max<size_t>(16, 2 * index_.size()), TraceNodeId{0});
    for (TraceNodeId id = 1; id < names_.size(); ++id) {
      index_[FindSlot(names_[id])] = id;
    }
  }
  const size_t slot = FindSlot(name);
  if (index_[slot] == 0) {
    index_[slot] = static_cast<TraceNodeId>(names_.size());
    names_.emplace_back(name);
  }
  return index_[slot];
}

void TraceRecorder::RecordEvent(SimTime time, TraceNodeId node, TraceEvent event,
                                TraceDetail detail) {
  if (!enabled_) {
    return;
  }
  TraceRecord record;
  record.time = time;
  record.node = node;
  record.event = event;
  record.detail = detail;
  records_.push_back(record);
}

size_t TraceRecorder::Count(TraceEvent event) const {
  size_t n = 0;
  for (const auto& r : records_) {
    if (r.event == event) {
      ++n;
    }
  }
  return n;
}

size_t TraceRecorder::Count(TraceEvent event, TraceNodeId node) const {
  size_t n = 0;
  for (const auto& r : records_) {
    if (r.event == event && r.node == node) {
      ++n;
    }
  }
  return n;
}

size_t TraceRecorder::Count(TraceEvent event, const std::string& node) const {
  if (index_.empty()) {
    return 0;
  }
  const TraceNodeId id = index_[FindSlot(node)];
  return id == 0 ? 0 : Count(event, id);
}

std::string TraceRecorder::Dump() const {
  std::string out;
  for (const auto& r : records_) {
    out += r.ToString(*this);
    out.push_back('\n');
  }
  return out;
}

}  // namespace natpunch
