#include "src/fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>

#include "src/natcheck/client.h"
#include "src/natcheck/servers.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace natpunch {
namespace {

void Shuffle(std::vector<int>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

std::vector<int> SamplePrefix(std::vector<int> pool, size_t k, Rng& rng) {
  Shuffle(pool, rng);
  pool.resize(std::min(k, pool.size()));
  return pool;
}

}  // namespace

std::vector<VendorProfile> PaperTable1Vendors() {
  // Table 1 verbatim. {name, udp_yes/n, udp_hairpin_yes/n, tcp_yes/n,
  // tcp_hairpin_yes/n}.
  std::vector<VendorProfile> vendors = {
      {"Linksys", 45, 46, 5, 42, 33, 38, 3, 38},
      {"Netgear", 31, 37, 3, 35, 19, 30, 0, 30},
      {"D-Link", 16, 21, 11, 21, 9, 19, 2, 19},
      {"Draytek", 2, 17, 3, 12, 2, 7, 0, 7},
      {"Belkin", 14, 14, 1, 14, 11, 11, 0, 11},
      {"Cisco", 12, 12, 3, 9, 6, 7, 2, 7},
      {"SMC", 12, 12, 3, 10, 8, 9, 2, 9},
      {"ZyXEL", 7, 9, 1, 8, 0, 7, 0, 7},
      {"3Com", 7, 7, 1, 7, 5, 6, 0, 6},
      {"Windows", 31, 33, 11, 32, 16, 31, 28, 31},
      {"Linux", 26, 32, 3, 25, 16, 24, 2, 24},
      {"FreeBSD", 7, 9, 3, 6, 2, 3, 1, 1},
  };
  // "Other": whatever is missing relative to the All Vendors row
  // (310/380, 80/335, 184/286, 37/286). The paper's per-vendor TCP-hairpin
  // numerators sum to 40 > 37; clamp the bucket at zero (see DESIGN.md).
  VendorProfile other{"Other", 0, 0, 0, 0, 0, 0, 0, 0};
  VendorProfile sums{"", 0, 0, 0, 0, 0, 0, 0, 0};
  for (const auto& v : vendors) {
    sums.udp_yes += v.udp_yes;
    sums.udp_n += v.udp_n;
    sums.udp_hairpin_yes += v.udp_hairpin_yes;
    sums.udp_hairpin_n += v.udp_hairpin_n;
    sums.tcp_yes += v.tcp_yes;
    sums.tcp_n += v.tcp_n;
    sums.tcp_hairpin_yes += v.tcp_hairpin_yes;
    sums.tcp_hairpin_n += v.tcp_hairpin_n;
  }
  other.udp_yes = 310 - sums.udp_yes;
  other.udp_n = 380 - sums.udp_n;
  other.udp_hairpin_yes = 80 - sums.udp_hairpin_yes;
  other.udp_hairpin_n = 335 - sums.udp_hairpin_n;
  other.tcp_yes = 184 - sums.tcp_yes;
  other.tcp_n = 286 - sums.tcp_n;
  other.tcp_hairpin_yes = std::max(0, 37 - sums.tcp_hairpin_yes);
  // 286 - 190 = 96, but the bucket only has 94 TCP-reporting devices; the
  // hairpin test rides on the TCP test, so clamp (another facet of the same
  // Table 1 inconsistency).
  other.tcp_hairpin_n = std::min(286 - sums.tcp_hairpin_n, other.tcp_n);
  vendors.push_back(other);
  return vendors;
}

std::vector<DeviceSpec> BuildFleet(const std::vector<VendorProfile>& vendors, uint64_t seed) {
  Rng rng(seed);
  std::vector<DeviceSpec> fleet;
  for (const auto& vendor : vendors) {
    const int n = vendor.udp_n;
    std::vector<int> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);

    std::vector<bool> in_tcp(static_cast<size_t>(n), false);
    std::vector<bool> in_udp_hairpin(static_cast<size_t>(n), false);
    std::vector<bool> in_tcp_hairpin(static_cast<size_t>(n), false);
    const std::vector<int> tcp_subset =
        SamplePrefix(all, static_cast<size_t>(vendor.tcp_n), rng);
    for (int i : tcp_subset) {
      in_tcp[static_cast<size_t>(i)] = true;
    }
    for (int i : SamplePrefix(all, static_cast<size_t>(vendor.udp_hairpin_n), rng)) {
      in_udp_hairpin[static_cast<size_t>(i)] = true;
    }
    for (int i : SamplePrefix(tcp_subset, static_cast<size_t>(vendor.tcp_hairpin_n), rng)) {
      in_tcp_hairpin[static_cast<size_t>(i)] = true;
    }

    // Cone (endpoint-independent) mapping: exactly udp_yes devices, placed
    // into the TCP-reporting subset first so the TCP quota is satisfiable.
    std::vector<bool> cone(static_cast<size_t>(n), false);
    std::vector<int> order;
    {
      std::vector<int> subset = tcp_subset;
      Shuffle(subset, rng);
      std::vector<int> rest;
      for (int i : all) {
        if (!in_tcp[static_cast<size_t>(i)]) {
          rest.push_back(i);
        }
      }
      Shuffle(rest, rng);
      order = subset;
      order.insert(order.end(), rest.begin(), rest.end());
    }
    for (int k = 0; k < vendor.udp_yes && k < n; ++k) {
      cone[static_cast<size_t>(order[static_cast<size_t>(k)])] = true;
    }

    // Unsolicited-TCP policy: among cone devices in the TCP subset, exactly
    // tcp_yes silently drop; the rest reject (mostly RST, sometimes ICMP).
    std::vector<bool> drops(static_cast<size_t>(n), true);
    {
      std::vector<int> cone_in_tcp;
      for (int i : tcp_subset) {
        if (cone[static_cast<size_t>(i)]) {
          cone_in_tcp.push_back(i);
        }
      }
      Shuffle(cone_in_tcp, rng);
      for (size_t k = 0; k < cone_in_tcp.size(); ++k) {
        drops[static_cast<size_t>(cone_in_tcp[k])] = k < static_cast<size_t>(vendor.tcp_yes);
      }
    }

    // Hairpin flags, exactly matching the quotas within each subset.
    std::vector<bool> hairpin_udp(static_cast<size_t>(n), false);
    {
      std::vector<int> members;
      for (int i : all) {
        if (in_udp_hairpin[static_cast<size_t>(i)]) {
          members.push_back(i);
        }
      }
      Shuffle(members, rng);
      for (size_t k = 0; k < members.size() && k < static_cast<size_t>(vendor.udp_hairpin_yes);
           ++k) {
        hairpin_udp[static_cast<size_t>(members[k])] = true;
      }
    }
    std::vector<bool> hairpin_tcp(static_cast<size_t>(n), false);
    {
      std::vector<int> members;
      for (int i : all) {
        if (in_tcp_hairpin[static_cast<size_t>(i)]) {
          members.push_back(i);
        }
      }
      Shuffle(members, rng);
      for (size_t k = 0; k < members.size() && k < static_cast<size_t>(vendor.tcp_hairpin_yes);
           ++k) {
        hairpin_tcp[static_cast<size_t>(members[k])] = true;
      }
    }

    for (int i : all) {
      DeviceSpec device;
      device.vendor = vendor.name;
      device.reports_udp_hairpin = in_udp_hairpin[static_cast<size_t>(i)];
      device.reports_tcp = in_tcp[static_cast<size_t>(i)];
      device.reports_tcp_hairpin = in_tcp_hairpin[static_cast<size_t>(i)];
      NatConfig& config = device.config;
      config.mapping = cone[static_cast<size_t>(i)] ? NatMapping::kEndpointIndependent
                                                    : NatMapping::kAddressAndPortDependent;
      if (!drops[static_cast<size_t>(i)]) {
        config.unsolicited_tcp =
            rng.NextBool(0.75) ? NatUnsolicitedTcp::kRst : NatUnsolicitedTcp::kIcmp;
      }
      config.hairpin_udp = hairpin_udp[static_cast<size_t>(i)];
      config.hairpin_tcp = hairpin_tcp[static_cast<size_t>(i)];
      // Orthogonal flavor: filtering, port allocation, idle timers. A
      // rejecting device never gets endpoint-independent filtering — under
      // EI filtering the rejection policy could never fire, which would
      // contradict the device's Table 1 classification.
      if (config.IsCone()) {
        const double roll = rng.NextDouble();
        const bool rejecting = config.unsolicited_tcp != NatUnsolicitedTcp::kDrop;
        config.filtering = roll < 0.6 ? NatFiltering::kAddressAndPortDependent
                           : (roll < 0.85 || rejecting)
                               ? NatFiltering::kAddressDependent
                               : NatFiltering::kEndpointIndependent;
        config.port_allocation = rng.NextBool(0.5) ? NatPortAllocation::kSequential
                                                   : NatPortAllocation::kPortPreserving;
      } else {
        config.filtering = NatFiltering::kAddressAndPortDependent;
        config.port_allocation = rng.NextBool(0.7) ? NatPortAllocation::kSequential
                                                   : NatPortAllocation::kRandom;
      }
      const int64_t timeouts[] = {30, 60, 120, 180};
      config.udp_timeout = Seconds(timeouts[rng.NextBelow(4)]);
      fleet.push_back(device);
    }
  }
  return fleet;
}

// Scenario::Reset(seed) leaves the simulation state bit-identical to a
// freshly constructed Scenario, so a worker can burn through thousands of
// devices on one Network/EventLoop without re-paying the allocation storm;
// the events_processed() counter restarts at zero on Reset, which is what
// makes the per-device event count exact.
NatCheckReport RunNatCheckIn(Scenario& scenario, const DeviceSpec& device, uint64_t seed,
                             uint64_t* events) {
  Scenario::Options options;
  options.seed = seed;
  scenario.Reset(options);
  Host* s1 = scenario.AddPublicHost("S1", Ipv4Address::FromOctets(18, 181, 0, 31));
  Host* s2 = scenario.AddPublicHost("S2", Ipv4Address::FromOctets(18, 181, 0, 32));
  Host* s3 = scenario.AddPublicHost("S3", Ipv4Address::FromOctets(18, 181, 0, 33));
  NattedSite site = scenario.AddNattedSite(
      "dev", device.config, Ipv4Address::FromOctets(155, 99, 25, 11),
      Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 1);

  NatCheckServers servers(s1, s2, s3);
  Status status = servers.Start();
  if (!status.ok()) {
    return NatCheckReport{};
  }
  NatCheckServerAddrs addrs;
  addrs.udp1 = servers.udp_endpoint(1);
  addrs.udp2 = servers.udp_endpoint(2);
  addrs.tcp1 = servers.tcp_endpoint(1);
  addrs.tcp2 = servers.tcp_endpoint(2);
  addrs.tcp3 = servers.tcp_endpoint(3);

  NatCheckClientConfig client_config;
  client_config.test_udp_hairpin = device.reports_udp_hairpin;
  client_config.test_tcp = device.reports_tcp;
  client_config.test_tcp_hairpin = device.reports_tcp_hairpin;

  NatCheckClient client(site.host(0), addrs, client_config);
  NatCheckReport report;
  bool finished = false;
  client.Run(4321, [&](Result<NatCheckReport> result) {
    finished = true;
    if (result.ok()) {
      report = *result;
    }
  });
  scenario.net().RunFor(Seconds(90));
  (void)finished;
  if (events != nullptr) {
    *events += scenario.net().event_loop().events_processed();
  }
  report.nat_reboots = site.nat->stats().reboots;
  report.nat_expired_mappings = site.nat->stats().expired_mappings;
  return report;
}

NatCheckReport RunNatCheckOn(const DeviceSpec& device, uint64_t seed, uint64_t* events) {
  Scenario scenario;
  return RunNatCheckIn(scenario, device, seed, events);
}

void VendorTally::Add(const DeviceSpec& device, const NatCheckReport& report) {
  ++udp_n;
  udp_yes += report.UdpHolePunchCompatible() ? 1 : 0;
  if (device.reports_udp_hairpin) {
    ++udp_hairpin_n;
    udp_hairpin_yes += (report.udp_hairpin_tested && report.udp_hairpin) ? 1 : 0;
  }
  if (device.reports_tcp) {
    ++tcp_n;
    tcp_yes += report.TcpHolePunchCompatible() ? 1 : 0;
  }
  if (device.reports_tcp_hairpin) {
    ++tcp_hairpin_n;
    tcp_hairpin_yes += (report.tcp_hairpin_tested && report.tcp_hairpin) ? 1 : 0;
  }
  if (!report.udp_reachable) {
    ++taxonomy.udp_unreachable;
  } else if (!report.udp_consistent) {
    ++taxonomy.udp_inconsistent;
  }
  if (device.reports_tcp) {
    if (!report.tcp_reachable) {
      ++taxonomy.tcp_unreachable;
    } else if (!report.tcp_consistent) {
      ++taxonomy.tcp_inconsistent;
    } else if (report.tcp_rejects_unsolicited) {
      ++taxonomy.tcp_rejected;
    }
  }
  taxonomy.device_reboots += report.nat_reboots;
  taxonomy.expired_mappings += report.nat_expired_mappings;
}

namespace {

// Per-device seeds, drawn in device order from the fleet seed. Both runners
// use this sequence, so a device's simulation is identical no matter which
// thread (or which runner) executes it.
std::vector<uint64_t> DeviceSeeds(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> seeds(count);
  for (auto& s : seeds) {
    s = rng.NextU64();
  }
  return seeds;
}

// Fold per-device reports into Table 1 rows, strictly in device order —
// this is what makes the parallel runner's output bit-identical to the
// sequential oracle: completion order never touches the tally.
Table1Result TallyInDeviceOrder(const std::vector<DeviceSpec>& devices,
                                const std::vector<NatCheckReport>& reports, uint64_t events) {
  Table1Result result;
  result.events = events;
  auto row_for = [&result](const std::string& vendor) -> VendorTally& {
    for (auto& [name, tally] : result.rows) {
      if (name == vendor) {
        return tally;
      }
    }
    result.rows.emplace_back(vendor, VendorTally{});
    return result.rows.back().second;
  };
  for (size_t i = 0; i < devices.size(); ++i) {
    row_for(devices[i].vendor).Add(devices[i], reports[i]);
    result.total.Add(devices[i], reports[i]);
  }
  return result;
}

}  // namespace

Table1Result RunFleet(const std::vector<DeviceSpec>& devices, uint64_t seed) {
  const std::vector<uint64_t> seeds = DeviceSeeds(devices.size(), seed);
  std::vector<NatCheckReport> reports(devices.size());
  uint64_t events = 0;
  Scenario scenario;  // one arena for the whole fleet
  for (size_t i = 0; i < devices.size(); ++i) {
    reports[i] = RunNatCheckIn(scenario, devices[i], seeds[i], &events);
  }
  return TallyInDeviceOrder(devices, reports, events);
}

Table1Result RunFleetParallel(const std::vector<DeviceSpec>& devices, uint64_t seed,
                              unsigned n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  n_threads = static_cast<unsigned>(
      std::min<size_t>(n_threads, std::max<size_t>(1, devices.size())));

  const std::vector<uint64_t> seeds = DeviceSeeds(devices.size(), seed);
  std::vector<NatCheckReport> reports(devices.size());
  std::vector<uint64_t> events_per_thread(n_threads, 0);
  // Work-stealing by atomic index: each simulation is fully isolated (its
  // worker's private Network/EventLoop/Rng arena, reset between devices), so
  // workers share nothing but the input vector and their disjoint output
  // slots.
  std::atomic<size_t> next{0};
  auto worker = [&](unsigned thread_index) {
    Scenario scenario;  // one arena per worker, reused across its devices
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= devices.size()) {
        return;
      }
      reports[i] = RunNatCheckIn(scenario, devices[i], seeds[i],
                                 &events_per_thread[thread_index]);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n_threads - 1);
  for (unsigned t = 1; t < n_threads; ++t) {
    threads.emplace_back(worker, t);
  }
  worker(0);  // the calling thread pulls its weight too
  for (auto& t : threads) {
    t.join();
  }
  uint64_t events = 0;
  for (uint64_t e : events_per_thread) {
    events += e;
  }
  return TallyInDeviceOrder(devices, reports, events);
}

namespace {

std::string Cell(int yes, int n) {
  if (n == 0) {
    return "      --     ";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%4d/%-4d%3d%%", yes, n, (100 * yes + n / 2) / n);
  return buf;
}

}  // namespace

std::string FormatTable1(const Table1Result& result, const std::vector<VendorProfile>* paper) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-10s | %-13s | %-13s | %-13s | %-13s\n", "NAT",
                "UDP punch", "UDP hairpin", "TCP punch", "TCP hairpin");
  out += line;
  out += std::string(74, '-') + "\n";
  for (const auto& [name, tally] : result.rows) {
    std::snprintf(line, sizeof(line), "%-10s | %s | %s | %s | %s\n", name.c_str(),
                  Cell(tally.udp_yes, tally.udp_n).c_str(),
                  Cell(tally.udp_hairpin_yes, tally.udp_hairpin_n).c_str(),
                  Cell(tally.tcp_yes, tally.tcp_n).c_str(),
                  Cell(tally.tcp_hairpin_yes, tally.tcp_hairpin_n).c_str());
    out += line;
    if (paper != nullptr) {
      for (const auto& v : *paper) {
        if (v.name == name) {
          std::snprintf(line, sizeof(line), "%-10s | %s | %s | %s | %s\n", "  (paper)",
                        Cell(v.udp_yes, v.udp_n).c_str(),
                        Cell(v.udp_hairpin_yes, v.udp_hairpin_n).c_str(),
                        Cell(v.tcp_yes, v.tcp_n).c_str(),
                        Cell(v.tcp_hairpin_yes, v.tcp_hairpin_n).c_str());
          out += line;
          break;
        }
      }
    }
  }
  out += std::string(74, '-') + "\n";
  std::snprintf(line, sizeof(line), "%-10s | %s | %s | %s | %s\n", "All",
                Cell(result.total.udp_yes, result.total.udp_n).c_str(),
                Cell(result.total.udp_hairpin_yes, result.total.udp_hairpin_n).c_str(),
                Cell(result.total.tcp_yes, result.total.tcp_n).c_str(),
                Cell(result.total.tcp_hairpin_yes, result.total.tcp_hairpin_n).c_str());
  out += line;
  if (paper != nullptr) {
    std::snprintf(line, sizeof(line), "%-10s | %s | %s | %s | %s\n", "  (paper)",
                  Cell(310, 380).c_str(), Cell(80, 335).c_str(), Cell(184, 286).c_str(),
                  Cell(37, 286).c_str());
    out += line;
  }
  return out;
}

}  // namespace natpunch
