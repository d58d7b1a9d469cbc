// The outcome of one NAT Check run — the data underlying Table 1.

#ifndef SRC_NATCHECK_REPORT_H_
#define SRC_NATCHECK_REPORT_H_

#include <string>

#include "src/netsim/address.h"

namespace natpunch {

struct NatCheckReport {
  // --- UDP test (§6.1.1) ---
  bool udp_reachable = false;  // both servers answered
  Endpoint udp_public_1;
  Endpoint udp_public_2;
  // Same public endpoint toward both servers: the §5.1 precondition.
  bool udp_consistent = false;
  // Server 3's unsolicited reply never arrived (per-session firewall).
  bool udp_filters_unsolicited = true;
  bool udp_hairpin_tested = false;
  bool udp_hairpin = false;

  // --- TCP test (§6.1.2) ---
  bool tcp_tested = false;
  bool tcp_reachable = false;
  Endpoint tcp_public_1;
  Endpoint tcp_public_2;
  bool tcp_consistent = false;
  // The unsolicited SYN reached our listen socket (NAT does not filter).
  bool tcp_unsolicited_passed = false;
  // Actively rejected: server 3 drew an RST, and/or our follow-up connect
  // to server 3 was refused (§5.2 bad behavior).
  bool tcp_rejects_unsolicited = false;
  // Our outbound connect to server 3 completed (the simultaneous open).
  bool tcp_punch_connect_ok = false;
  bool tcp_hairpin_tested = false;
  bool tcp_hairpin = false;

  // --- Device health (filled by the fleet harness, not the client) ---
  // Reboots the device under test suffered during the run (chaos engine)
  // and translation-table entries reclaimed by idle expiry.
  uint64_t nat_reboots = 0;
  uint64_t nat_expired_mappings = 0;

  // Paper §6.2 classification.
  bool UdpHolePunchCompatible() const { return udp_reachable && udp_consistent; }
  bool TcpHolePunchCompatible() const {
    return tcp_reachable && tcp_consistent && !tcp_rejects_unsolicited;
  }

  std::string ToString() const;

  friend bool operator==(const NatCheckReport&, const NatCheckReport&) = default;
};

}  // namespace natpunch

#endif  // SRC_NATCHECK_REPORT_H_
