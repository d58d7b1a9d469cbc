// Host: an end system with a UDP stack and a TCP stack.
//
// Hosts never forward packets; anything not addressed to one of their
// interfaces is dropped, and segments/datagrams for closed ports elicit the
// usual RST / ICMP port-unreachable responses (configurable, because those
// responses are part of what hole punching has to tolerate — a punch probe
// that reaches the *wrong* host on a private network draws exactly these).

#ifndef SRC_TRANSPORT_HOST_H_
#define SRC_TRANSPORT_HOST_H_

#include <string>

#include "src/netsim/network.h"
#include "src/netsim/node.h"
#include "src/transport/tcp.h"
#include "src/transport/udp.h"

namespace natpunch {

namespace obs {
class Counter;
}  // namespace obs

struct HostConfig {
  TcpConfig tcp;
  // Real hosts answer datagrams to closed UDP ports with ICMP port
  // unreachable; that error is how a puncher learns a candidate is dead.
  bool icmp_on_closed_udp_port = true;
};

class Host : public Node {
 public:
  Host(Network* network, std::string name, HostConfig config = HostConfig{});
  ~Host() override;

  UdpStack& udp() { return udp_; }
  TcpStack& tcp() { return tcp_; }
  const HostConfig& config() const { return config_; }

  void HandlePacket(int iface, Packet&& packet) override;

  // First interface's address; hosts in this library are single-homed.
  Ipv4Address primary_address() const;

  // Next free ephemeral port (49152-65535) for the given protocol.
  uint16_t AllocateEphemeralPort(IpProtocol protocol);

  EventLoop& loop();
  Rng& rng();

  // Transport stacks emit through this so every packet goes via routing.
  void SendFromTransport(Packet&& packet);

  // Wire armor accounting: every protocol endpoint on this host (rendezvous,
  // natcheck, TURN, puncher, framed TCP streams) calls this when it drops a
  // frame that failed strict decoding. Counted locally always and as the
  // `wire.<host>.malformed_drops` metric when metrics are enabled, so a
  // hostile-network run can audit exactly where garbage was shed.
  void CountMalformedDrop();
  uint64_t malformed_drops() const { return malformed_drops_; }

 private:
  HostConfig config_;
  // Held by value: a host and its stacks are one allocation.
  UdpStack udp_;
  TcpStack tcp_;
  uint16_t next_ephemeral_ = 49152;
  uint64_t malformed_drops_ = 0;
  obs::Counter* metric_malformed_ = nullptr;  // null when metrics disabled
};

}  // namespace natpunch

#endif  // SRC_TRANSPORT_HOST_H_
