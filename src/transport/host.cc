#include "src/transport/host.h"

#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace natpunch {

Host::Host(Network* network, std::string name, HostConfig config)
    : Node(network, std::move(name)), config_(config), udp_(this), tcp_(this, config_.tcp) {
  if (obs::MetricsRegistry* reg = network_->metrics()) {
    char metric_name[96];
    const int n = std::snprintf(metric_name, sizeof(metric_name), "wire.%s.malformed_drops",
                                name_.c_str());
    metric_malformed_ = reg->GetCounter(std::string_view(metric_name, static_cast<size_t>(n)));
  }
}

Host::~Host() = default;

Ipv4Address Host::primary_address() const {
  return iface_count() > 0 ? iface_ip(0) : Ipv4Address();
}

EventLoop& Host::loop() { return network_->event_loop(); }
Rng& Host::rng() { return network_->rng(); }

uint16_t Host::AllocateEphemeralPort(IpProtocol protocol) {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? 49152 : static_cast<uint16_t>(next_ephemeral_ + 1);
    const bool in_use =
        protocol == IpProtocol::kTcp ? tcp_.IsPortBound(port) : udp_.IsPortBound(port);
    if (!in_use) {
      return port;
    }
  }
  return 0;
}

void Host::SendFromTransport(Packet&& packet) { SendPacket(std::move(packet)); }

void Host::CountMalformedDrop() {
  ++malformed_drops_;
  obs::Inc(metric_malformed_);
}

void Host::HandlePacket(int iface, Packet&& packet) {
  (void)iface;
  if (!OwnsAddress(packet.dst_ip)) {
    // Hosts do not forward.
    return;
  }
  switch (packet.protocol) {
    case IpProtocol::kUdp:
      udp_.HandlePacket(packet);
      break;
    case IpProtocol::kTcp:
      tcp_.HandlePacket(packet);
      break;
    case IpProtocol::kIcmp:
      if (packet.icmp.original_protocol == IpProtocol::kUdp) {
        udp_.HandleIcmpError(packet);
      } else if (packet.icmp.original_protocol == IpProtocol::kTcp) {
        tcp_.HandleIcmpError(packet);
      }
      break;
  }
}

}  // namespace natpunch
