// The simulated NAT fleet that stands in for the paper's 380 user reports.
//
// Substitution (documented in DESIGN.md): the paper gathered NAT Check
// results from volunteers across the Internet; we cannot ship their
// routers, so each Table 1 row becomes a vendor profile whose device
// behavior mix is constructed to match the reported fractions exactly:
//   * UDP hole punching column  -> fraction of cone (endpoint-independent
//     mapping) devices;
//   * TCP column -> among TCP-reporting cone devices, the fraction that
//     silently DROP unsolicited SYNs (the rest send RST/ICMP, §5.2);
//   * hairpin columns -> hairpin_udp / hairpin_tcp flags within the subset
//     of reports whose NAT Check version ran that test (this models the
//     differing denominators in Table 1 — §6.2 explains them as later tool
//     versions).
// bench_table1 then *measures* each device with the NAT Check reproduction
// and regenerates the table; configured vs. measured discrepancies expose
// exactly the instrument artifacts §6.3 discusses.

#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/nat/nat_config.h"
#include "src/natcheck/report.h"

namespace natpunch {

class Scenario;

struct VendorProfile {
  std::string name;
  // "yes/n" pairs straight out of Table 1.
  int udp_yes = 0;
  int udp_n = 0;
  int udp_hairpin_yes = 0;
  int udp_hairpin_n = 0;
  int tcp_yes = 0;
  int tcp_n = 0;
  int tcp_hairpin_yes = 0;
  int tcp_hairpin_n = 0;
};

// The twelve rows of Table 1 plus an "Other" bucket sized so the totals
// match the paper's All Vendors line (380/335/286 data points). Note: the
// paper's per-vendor TCP-hairpin counts sum to 40 while the All Vendors row
// says 37; the Other bucket is clamped at zero and EXPERIMENTS.md records
// the discrepancy.
std::vector<VendorProfile> PaperTable1Vendors();

struct DeviceSpec {
  std::string vendor;
  NatConfig config;
  // Which tests this "report" includes (NAT Check version modeling).
  bool reports_udp_hairpin = false;
  bool reports_tcp = false;
  bool reports_tcp_hairpin = false;
};

// Expand vendor profiles into one DeviceSpec per report, matching every
// Table 1 numerator and denominator exactly. Orthogonal flavor knobs
// (filtering, port allocation, timeouts) are sampled from `seed`.
std::vector<DeviceSpec> BuildFleet(const std::vector<VendorProfile>& vendors, uint64_t seed);

// Run the NAT Check reproduction against one simulated device: a fresh
// network with the client behind the device NAT and the three check
// servers in the global realm. When `events` is non-null, the number of
// simulator events the run processed is added to it.
NatCheckReport RunNatCheckOn(const DeviceSpec& device, uint64_t seed,
                             uint64_t* events = nullptr);

// The same run inside a caller-owned arena: `scenario` is Reset to `seed`
// first, which leaves it bit-identical to a fresh one, so the report equals
// RunNatCheckOn's while the arena's warmed-up capacities are reused. This is
// what RunFleet does for every device.
NatCheckReport RunNatCheckIn(Scenario& scenario, const DeviceSpec& device, uint64_t seed,
                             uint64_t* events = nullptr);

// Why reports failed the §6.2 classification — the taxonomy behind each
// "no" in Table 1. Buckets are mutually exclusive per report and protocol:
// a report counts under its first failed precondition only (unreachable
// before inconsistent before rejected).
struct FailureTaxonomy {
  int udp_unreachable = 0;    // a UDP check server never answered
  int udp_inconsistent = 0;   // symmetric mapping: different public endpoints
  int tcp_unreachable = 0;
  int tcp_inconsistent = 0;
  int tcp_rejected = 0;  // §5.2: RST/ICMP answered the unsolicited SYN
  // Device health over this vendor's runs (chaos reboots, idle expiry).
  uint64_t device_reboots = 0;
  uint64_t expired_mappings = 0;

  friend bool operator==(const FailureTaxonomy&, const FailureTaxonomy&) = default;
};

struct VendorTally {
  int udp_yes = 0;
  int udp_n = 0;
  int udp_hairpin_yes = 0;
  int udp_hairpin_n = 0;
  int tcp_yes = 0;
  int tcp_n = 0;
  int tcp_hairpin_yes = 0;
  int tcp_hairpin_n = 0;
  FailureTaxonomy taxonomy;

  void Add(const DeviceSpec& device, const NatCheckReport& report);

  friend bool operator==(const VendorTally&, const VendorTally&) = default;
};

struct Table1Result {
  std::vector<std::pair<std::string, VendorTally>> rows;  // vendor order preserved
  VendorTally total;
  uint64_t events = 0;  // simulator events processed across every device run

  friend bool operator==(const Table1Result&, const Table1Result&) = default;
};

// Run the whole fleet sequentially on one reused Scenario arena; each
// device's simulation starts from a Reset that is bit-identical to a fresh
// Network. This is the determinism oracle for RunFleetParallel.
Table1Result RunFleet(const std::vector<DeviceSpec>& devices, uint64_t seed);

// Run the fleet on `n_threads` worker threads (0 = hardware concurrency).
// Each worker owns one Scenario arena reused (via Reset) across the devices
// it pulls, each device's seed is drawn from the same per-device seed
// sequence as the sequential path, and reports are written into a pre-sized
// vector by device index before being tallied in device order — so the
// Table1Result is bit-identical to RunFleet's regardless of thread count or
// scheduling.
Table1Result RunFleetParallel(const std::vector<DeviceSpec>& devices, uint64_t seed,
                              unsigned n_threads = 0);

// Render in the paper's layout; when `paper` is non-null, print its numbers
// alongside for comparison.
std::string FormatTable1(const Table1Result& result,
                         const std::vector<VendorProfile>* paper = nullptr);

}  // namespace natpunch

#endif  // SRC_FLEET_FLEET_H_
