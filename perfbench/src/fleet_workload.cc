// fleet: the Table 1 NAT Check over the calibrated 380-device fleet,
// replicated into slices and run through RunFleet, one call per slice.
//
// Thousands of tiny cold simulations: Scenario::Reset, the TCP stack, NAT
// mapping creation and natcheck dominate, while timers, the timer wheel and
// NAT flow-cache hits are barely used. It is the control workload for
// steady-state optimisations.
//
// Checks: every slice's per-vendor tallies equal the calibrated Table 1 row
// counts, and RunFleetParallel at 2 and 4 threads returns a Table1Result
// bit-identical to RunFleet's on the same replicated fleet.

#include <cstdio>
#include <cstdlib>

#include "perfbench/src/bench.h"
#include "src/fleet/fleet.h"
#include "src/natcheck/client.h"
#include "src/natcheck/servers.h"
#include "src/scenario/scenario.h"

namespace perfbench {
namespace {

using namespace natpunch;

// Reports in `tally` that disagree with the calibrated profile: each report
// moves exactly one "yes" count, so the absolute differences count them.
uint64_t Disagreements(const VendorTally& tally, const VendorProfile& p) {
  const auto diff = [](int a, int b) { return static_cast<uint64_t>(std::abs(a - b)); };
  return diff(tally.udp_yes, p.udp_yes) + diff(tally.udp_n, p.udp_n) +
         diff(tally.udp_hairpin_yes, p.udp_hairpin_yes) +
         diff(tally.udp_hairpin_n, p.udp_hairpin_n) + diff(tally.tcp_yes, p.tcp_yes) +
         diff(tally.tcp_n, p.tcp_n) + diff(tally.tcp_hairpin_yes, p.tcp_hairpin_yes) +
         diff(tally.tcp_hairpin_n, p.tcp_hairpin_n);
}

// NAT flow-cache counters for one NAT Check run with the metrics registry on,
// driven through the natcheck API the same way RunFleet drives it (three
// check servers, the device NAT in front of one client). RunFleet itself
// never enables the registry, so the traced pass samples the base fleet
// this way.
struct FlowCache {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

FlowCache SampleNatCheck(const DeviceSpec& device, uint64_t seed) {
  Scenario::Options options;
  options.seed = seed;
  options.metrics = true;
  Scenario scenario(options);
  Host* s1 = scenario.AddPublicHost("S1", Ipv4Address::FromOctets(18, 181, 0, 31));
  Host* s2 = scenario.AddPublicHost("S2", Ipv4Address::FromOctets(18, 181, 0, 32));
  Host* s3 = scenario.AddPublicHost("S3", Ipv4Address::FromOctets(18, 181, 0, 33));
  NattedSite site =
      scenario.AddNattedSite("dev", device.config, Ipv4Address::FromOctets(155, 99, 25, 11),
                             Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 1);
  NatCheckServers servers(s1, s2, s3);
  FlowCache out;
  if (!servers.Start().ok()) {
    return out;
  }
  NatCheckServerAddrs addrs;
  addrs.udp1 = servers.udp_endpoint(1);
  addrs.udp2 = servers.udp_endpoint(2);
  addrs.tcp1 = servers.tcp_endpoint(1);
  addrs.tcp2 = servers.tcp_endpoint(2);
  addrs.tcp3 = servers.tcp_endpoint(3);
  NatCheckClientConfig config;
  config.test_udp_hairpin = device.reports_udp_hairpin;
  config.test_tcp = device.reports_tcp;
  config.test_tcp_hairpin = device.reports_tcp_hairpin;
  NatCheckClient client(site.host(0), addrs, config);
  client.Run(4321, [](Result<NatCheckReport>) {});
  scenario.net().RunFor(Seconds(90));
  out.hits = SumCounters(scenario.net().metrics(), "nat.", ".flowcache_hits");
  out.misses = SumCounters(scenario.net().metrics(), "nat.", ".flowcache_misses");
  return out;
}

}  // namespace

LegResult RunFleetLeg(const LegOptions& options) {
  LegResult result;
  const std::vector<VendorProfile> vendors = PaperTable1Vendors();
  // 380-device slices per measured second on the reference host (4-vCPU x86
  // cloud VM, Release build).
  constexpr double kSlicesPerSecond = 60;
  const size_t slices = options.scale == Scale::kMain
                            ? std::max<size_t>(32, static_cast<size_t>(options.seconds *
                                                                       kSlicesPerSecond))
                            : 300;
  const int parallel_replicas = options.scale == Scale::kMain ? 10 : 4;

  // Set-up: expand the vendor profiles into the calibrated device fleet (the
  // fleet seed bench_table1 and EXPERIMENTS.md use). One expansion takes
  // under 0.1 ms, so each sample times a batch of them. The expansion is a
  // pure function of the profiles and the seed, so a sample is taken again
  // before every setup_every-th slice, outside its timing. setup_s is the
  // median sample over the batch size, each divided by the slowdown of the
  // slice that follows it (see kFastEnd). The seed drives every NAT Check
  // run below.
  constexpr uint64_t kCalibratedFleetSeed = 2005;
  constexpr size_t kSetupSamples = 16;
  constexpr int kBuildsPerSample = 20;
  std::vector<DeviceSpec> fleet;
  std::vector<double> setup_s;
  const auto build = [&] {
    auto span = Tracer::Span(options.tracer, "fleet.setup");
    const auto start = Clock::now();
    for (int b = 0; b < kBuildsPerSample; ++b) {
      fleet = BuildFleet(vendors, kCalibratedFleetSeed);
    }
    setup_s.push_back(SecondsSince(start) / kBuildsPerSample);
  };
  build();
  const size_t setup_every = std::max<size_t>(1, slices / kSetupSamples);

  std::vector<double> slice_ms;
  double run_s = 0;
  VendorTally total;
  uint64_t events = 0;
  uint64_t reports = 0;
  for (size_t i = 0; i < slices; ++i) {
    if (i > 0 && i % setup_every == 0) {
      build();
    }
    options.speed->Tick();
    auto span = Tracer::Span(options.tracer, "fleet.slice");
    const auto start = Clock::now();
    const Table1Result slice = RunFleet(fleet, Mix(options.seed, 100 + i));
    const double s = SecondsSince(start);
    run_s += s;
    slice_ms.push_back(s * 1e3);
    events += slice.events;
    reports += fleet.size();
    uint64_t wrong = 0;
    for (size_t v = 0; v < slice.rows.size() && v < vendors.size(); ++v) {
      wrong += Disagreements(slice.rows[v].second, vendors[v]);
    }
    wrong += slice.rows.size() == vendors.size() ? 0 : fleet.size();
    char what[96];
    std::snprintf(what, sizeof(what), "slice %zu: %llu reports disagree with Table 1", i,
                  static_cast<unsigned long long>(wrong));
    result.Count(fleet.size(), std::min<uint64_t>(wrong, fleet.size()), what);
    const VendorTally& t = slice.total;
    total.udp_yes += t.udp_yes;
    total.udp_hairpin_yes += t.udp_hairpin_yes;
    total.tcp_yes += t.tcp_yes;
    total.tcp_hairpin_yes += t.tcp_hairpin_yes;
    total.taxonomy.udp_unreachable += t.taxonomy.udp_unreachable;
    total.taxonomy.udp_inconsistent += t.taxonomy.udp_inconsistent;
    total.taxonomy.tcp_unreachable += t.taxonomy.tcp_unreachable;
    total.taxonomy.tcp_inconsistent += t.taxonomy.tcp_inconsistent;
    total.taxonomy.tcp_rejected += t.taxonomy.tcp_rejected;
  }

  // Parallel leg, outside the measured window: RunFleetParallel at 2 and 4
  // threads against RunFleet on one replicated fleet, checked bit-identical.
  std::vector<DeviceSpec> big;
  for (int r = 0; r < parallel_replicas; ++r) {
    big.insert(big.end(), fleet.begin(), fleet.end());
  }
  const uint64_t parallel_seed = Mix(options.seed, 31);
  const int reps = options.traced ? 3 : 1;
  std::vector<double> seq_ms;
  std::vector<double> t2_ms;
  std::vector<double> t4_ms;
  uint64_t parallel_events = 0;
  {
    auto span = Tracer::Span(options.tracer, "fleet.parallel");
    for (int rep = 0; rep < reps; ++rep) {
      auto start = Clock::now();
      const Table1Result oracle = RunFleet(big, parallel_seed);
      seq_ms.push_back(SecondsSince(start) * 1e3);
      for (unsigned threads : {2u, 4u}) {
        start = Clock::now();
        const Table1Result parallel = RunFleetParallel(big, parallel_seed, threads);
        (threads == 2 ? t2_ms : t4_ms).push_back(SecondsSince(start) * 1e3);
        result.Check(parallel == oracle,
                     "RunFleetParallel at " + std::to_string(threads) +
                         " threads diverged from RunFleet",
                     big.size());
      }
      parallel_events = oracle.events;
    }
  }

  const double fast_slice_ms = FastEnd(slice_ms);
  result.throughput = static_cast<double>(fleet.size()) / (fast_slice_ms / 1e3);
  result.sim = {{"fleet.reports", reports},
                {"fleet.udp_yes", static_cast<uint64_t>(total.udp_yes)},
                {"fleet.udp_hairpin_yes", static_cast<uint64_t>(total.udp_hairpin_yes)},
                {"fleet.tcp_yes", static_cast<uint64_t>(total.tcp_yes)},
                {"fleet.tcp_hairpin_yes", static_cast<uint64_t>(total.tcp_hairpin_yes)},
                {"fleet.parallel_events", parallel_events},
                {"natcheck.udp_unreachable", static_cast<uint64_t>(total.taxonomy.udp_unreachable)},
                {"natcheck.udp_inconsistent",
                 static_cast<uint64_t>(total.taxonomy.udp_inconsistent)},
                {"natcheck.tcp_unreachable", static_cast<uint64_t>(total.taxonomy.tcp_unreachable)},
                {"natcheck.tcp_inconsistent",
                 static_cast<uint64_t>(total.taxonomy.tcp_inconsistent)},
                {"natcheck.tcp_rejected", static_cast<uint64_t>(total.taxonomy.tcp_rejected)},
                {"netsim.events", events}};
  for (size_t k = 0; k < setup_s.size(); ++k) {
    setup_s[k] *= fast_slice_ms / slice_ms[k * setup_every];
  }
  result.e2e["setup_s"] = {Median(setup_s), "s"};
  result.e2e["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  result.e2e["fleet_reports_per_s"] = {result.throughput, "1/s"};

  auto& l = result.layer;
  const FailureTaxonomy& tax = total.taxonomy;
  l["samples.fleet_slices"] = {static_cast<double>(slices), "count"};
  l["fleet.replica_host_ms_p50"] = {Percentile(slice_ms, 0.5), "ms"};
  l["fleet.replica_host_ms_p90"] = {Percentile(slice_ms, 0.9), "ms"};
  l["fleet.parallel_speedup_t2"] = {Median(seq_ms) / Median(t2_ms), "x"};
  l["fleet.parallel_speedup_t4"] = {Median(seq_ms) / Median(t4_ms), "x"};
  l["netsim.run_ns_per_event"] = {run_s * 1e9 / static_cast<double>(events), "ns"};
  l["netsim.events_per_report"] = {static_cast<double>(events) / static_cast<double>(reports),
                                   "count"};
  l["natcheck.taxonomy.udp_unreachable"] = {static_cast<double>(tax.udp_unreachable), "count"};
  l["natcheck.taxonomy.udp_inconsistent"] = {static_cast<double>(tax.udp_inconsistent), "count"};
  l["natcheck.taxonomy.tcp_unreachable"] = {static_cast<double>(tax.tcp_unreachable), "count"};
  l["natcheck.taxonomy.tcp_inconsistent"] = {static_cast<double>(tax.tcp_inconsistent), "count"};
  l["natcheck.taxonomy.tcp_rejected"] = {static_cast<double>(tax.tcp_rejected), "count"};
  if (options.traced) {
    auto span = Tracer::Span(options.tracer, "fleet.flowcache_sample");
    FlowCache cache;
    for (size_t i = 0; i < fleet.size(); ++i) {
      const FlowCache one = SampleNatCheck(fleet[i], Mix(options.seed, 41 + i));
      cache.hits += one.hits;
      cache.misses += one.misses;
    }
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    l["nat.flowcache_hit_ratio"] = {Ratio(static_cast<double>(cache.hits), lookups), "ratio"};
    l["nat.flowcache_hits"] = {static_cast<double>(cache.hits), "count"};
    l["nat.flowcache_lookups"] = {lookups, "count"};
  }
  return result;
}

}  // namespace perfbench
