// Determinism regression tests for the fleet runners: the sequential
// RunFleet is the oracle, and RunFleetParallel must reproduce its
// Table1Result bit-for-bit at any thread count. Uses a trimmed vendor list
// so each case stays fast — the full 380-device run lives in bench_table1.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace natpunch {
namespace {

// Small but non-trivial: mixed cone/symmetric mapping, partial TCP and
// hairpin subsets, plus a vendor with no TCP reports at all.
std::vector<VendorProfile> TinyVendors() {
  return {
      // {name, udp_yes/n, udp_hairpin_yes/n, tcp_yes/n, tcp_hairpin_yes/n}
      {"AlphaNet", 4, 5, 1, 4, 3, 4, 1, 4},
      {"BetaGate", 2, 4, 1, 3, 1, 2, 0, 2},
      {"GammaBox", 3, 3, 0, 0, 0, 0, 0, 0},
  };
}

std::vector<DeviceSpec> TinyFleet() { return BuildFleet(TinyVendors(), /*seed=*/77); }

TEST(FleetTest, BuildFleetIsDeterministic) {
  const auto a = BuildFleet(TinyVendors(), 77);
  const auto b = BuildFleet(TinyVendors(), 77);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vendor, b[i].vendor);
    EXPECT_EQ(a[i].reports_tcp, b[i].reports_tcp);
    EXPECT_EQ(a[i].config.mapping, b[i].config.mapping);
    EXPECT_EQ(a[i].config.filtering, b[i].config.filtering);
    EXPECT_EQ(a[i].config.udp_timeout.micros(), b[i].config.udp_timeout.micros());
  }
}

TEST(FleetTest, SequentialRunsAreIdentical) {
  const auto fleet = TinyFleet();
  const Table1Result first = RunFleet(fleet, /*seed=*/6);
  const Table1Result second = RunFleet(fleet, /*seed=*/6);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.events, 0u);
  // Sanity: every device landed in a row and the totals cover the fleet.
  EXPECT_EQ(first.rows.size(), 3u);
  EXPECT_EQ(first.total.udp_n, 12);
}

TEST(FleetTest, ParallelMatchesSequentialOracle) {
  const auto fleet = TinyFleet();
  const Table1Result oracle = RunFleet(fleet, /*seed=*/6);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const Table1Result parallel = RunFleetParallel(fleet, /*seed=*/6, threads);
    EXPECT_EQ(parallel, oracle) << "thread count " << threads;
  }
}

TEST(FleetTest, ParallelHardwareConcurrencyMatchesOracle) {
  const auto fleet = TinyFleet();
  const Table1Result oracle = RunFleet(fleet, /*seed=*/6);
  EXPECT_EQ(RunFleetParallel(fleet, /*seed=*/6, /*n_threads=*/0), oracle);
}

TEST(FleetTest, ParallelWithMoreThreadsThanDevices) {
  std::vector<VendorProfile> one = {{"Solo", 1, 1, 0, 1, 1, 1, 0, 1}};
  const auto fleet = BuildFleet(one, 3);
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(RunFleetParallel(fleet, 6, 8), RunFleet(fleet, 6));
}

// The cold-world allocation cuts (the trace name index, hosts holding their
// stacks by value, pooled and inline containers) lean on Scenario::Reset
// leaving a reused arena bit-identical to a fresh one. Every report from a
// fresh Scenario per device must equal the reused arena's, and tallying
// them must reproduce RunFleet.
TEST(FleetTest, FreshScenarioReportsEqualReusedArenaReports) {
  std::vector<DeviceSpec> devices = TinyFleet();
  const std::vector<DeviceSpec> calibrated = BuildFleet(PaperTable1Vendors(), /*seed=*/2005);
  for (size_t i = 0; i < calibrated.size(); i += 10) {
    devices.push_back(calibrated[i]);  // every vendor row of Table 1
  }
  constexpr uint64_t kFleetSeed = 6;
  // RunFleet's per-device seeds: drawn in device order from the fleet seed.
  Rng seeds(kFleetSeed);
  Scenario arena;
  Table1Result fresh;
  uint64_t reused_events = 0;
  for (const DeviceSpec& device : devices) {
    const uint64_t seed = seeds.NextU64();
    const NatCheckReport cold = RunNatCheckOn(device, seed, &fresh.events);
    const NatCheckReport warm = RunNatCheckIn(arena, device, seed, &reused_events);
    EXPECT_EQ(cold, warm) << device.vendor << "\nfresh:  " << cold.ToString()
                          << "\nreused: " << warm.ToString();
    auto row = std::find_if(fresh.rows.begin(), fresh.rows.end(),
                            [&](const auto& r) { return r.first == device.vendor; });
    if (row == fresh.rows.end()) {
      fresh.rows.emplace_back(device.vendor, VendorTally{});
      row = fresh.rows.end() - 1;
    }
    row->second.Add(device, cold);
    fresh.total.Add(device, cold);
  }
  EXPECT_EQ(reused_events, fresh.events);
  EXPECT_EQ(fresh, RunFleet(devices, kFleetSeed));
}

TEST(FleetTest, EmptyFleet) {
  const std::vector<DeviceSpec> none;
  const Table1Result seq = RunFleet(none, 6);
  EXPECT_EQ(RunFleetParallel(none, 6, 4), seq);
  EXPECT_EQ(seq.total.udp_n, 0);
  EXPECT_TRUE(seq.rows.empty());
}

}  // namespace
}  // namespace natpunch
