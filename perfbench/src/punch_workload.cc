// punch: many independent pairs connected through a rendezvous introduction
// (ConnectToPeer), each pair drawn from the seed.
//
//   topology   Fig. 4 common NAT (with hairpin), Fig. 5 different NATs, or
//              Fig. 6 multilevel NAT
//   transport  UDP over a 4-shard rendezvous tier (so lookups forward across
//              shards), or TCP with BSD or Linux accept policies against a
//              single server (TCP registrations are shard-local)
//   NATs       configs drawn from the BuildFleet mix calibrated to Table 1
//   links      per-pair Internet jitter and loss
//
// This is the write side of the NAT table and the punchers: mapping
// creation, filtered drops, TCP simultaneous open and RST retries. Every
// outcome is checked against the paper's predicate for its pair (Predict).

#include <cstdio>
#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "src/core/tcp_puncher.h"
#include "src/core/udp_puncher.h"
#include "src/fleet/fleet.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace natpunch;

enum class Topo { kFig4, kFig5, kFig6 };
enum class Transport { kUdp, kTcpBsd, kTcpLinux };
enum class Expect { kConnect, kNoConnect, kEither };

constexpr int kShards = 4;
constexpr size_t kBatch = 128;  // pairs per host-time round

struct PairSpec {
  Topo topo = Topo::kFig5;
  Transport transport = Transport::kUdp;
  NatConfig nat_a;
  NatConfig nat_b;
  NatConfig nat_c;  // Fig. 6's ISP NAT
  SimDuration jitter;
  double loss = 0;
  uint64_t sim_seed = 0;
  uint64_t id_a = 0;
  uint64_t id_b = 0;
};

bool IsTcp(Transport t) { return t != Transport::kUdp; }

bool HairpinsFor(const NatConfig& nat, Transport t) {
  return (IsTcp(t) ? nat.hairpin_tcp : nat.hairpin_udp) && !nat.hairpin_filtered;
}

// The paper's predicate for a pair (§3.3-§3.5, §4, §5.1-§5.2):
//  * behind one NAT (Fig. 4) the private endpoints meet on the LAN;
//  * endpoint-independent mapping on both sides connects directly, for TCP
//    too: RST/ICMP-sending NATs only delay it through the §4.2 retry;
//  * symmetric mapping against port-dependent filtering on both sides does
//    not connect (§5.1);
//  * behind a common ISP NAT (Fig. 6) only the public endpoints can work,
//    so the ISP NAT must hairpin (§3.5).
// Mixed cases (a symmetric NAT against looser filtering) depend on which
// probe lands first; they are run and counted but not checked.
Expect Predict(const PairSpec& p) {
  if (p.topo == Topo::kFig4) {
    return Expect::kConnect;
  }
  if (p.topo == Topo::kFig6 && !HairpinsFor(p.nat_c, p.transport)) {
    return Expect::kNoConnect;
  }
  const bool all_cone =
      p.nat_a.IsCone() && p.nat_b.IsCone() && (p.topo != Topo::kFig6 || p.nat_c.IsCone());
  if (all_cone) {
    return Expect::kConnect;
  }
  if (p.topo == Topo::kFig5 &&
      p.nat_a.filtering == NatFiltering::kAddressAndPortDependent &&
      p.nat_b.filtering == NatFiltering::kAddressAndPortDependent) {
    return Expect::kNoConnect;
  }
  return Expect::kEither;
}

// Fills `pairs` (keeping its storage) with the pair plan for `seed`.
void DrawPairs(uint64_t seed, std::vector<PairSpec>* pairs) {
  const std::vector<DeviceSpec> fleet = BuildFleet(PaperTable1Vendors(), Mix(seed, 11));
  Rng rng(Mix(seed, 12));
  const auto nat = [&] { return fleet[rng.NextBelow(fleet.size())].config; };
  for (PairSpec& p : *pairs) {
    p.topo = static_cast<Topo>(rng.NextBelow(3));
    p.transport = static_cast<Transport>(rng.NextBelow(3));
    p.nat_a = nat();
    p.nat_b = nat();
    p.nat_c = nat();
    if (p.topo == Topo::kFig4) {
      p.nat_a.hairpin_udp = true;
      p.nat_a.hairpin_tcp = true;
    }
    p.jitter = Micros(static_cast<int64_t>(rng.NextBelow(5001)));
    p.loss = 0.01 * rng.NextDouble();
    p.sim_seed = rng.NextU64();
    p.id_a = 1 + (rng.NextU64() >> 1);
    p.id_b = p.id_a + 1 + rng.NextBelow(1u << 20);
  }
}

struct PairOutcome {
  bool registered = false;
  bool connected = false;
  int64_t connect_sim_us = 0;
  uint64_t events = 0;
  uint64_t rsts = 0;
};

// Host time and registry readings the traced pass accumulates.
struct Layers {
  std::vector<double> build_ms;
  std::vector<double> register_ms;
  double run_s = 0;  // host time inside RunFor
  uint64_t run_events = 0;
  uint64_t forwards = 0;
  uint64_t flow_hits = 0;
  uint64_t flow_misses = 0;
  uint64_t mappings = 0;
  uint64_t filtered = 0;
  uint64_t tcp_retransmits = 0;
  uint64_t simultaneous_opens = 0;
  uint64_t punch_attempts = 0;
  uint64_t punch_successes = 0;
};

class PairRun {
 public:
  PairRun(const PairSpec& spec, const LegOptions& options, Layers* layers)
      : spec_(spec), options_(options), layers_(layers) {}

  PairOutcome Run() {
    {
      auto span = Tracer::Span(options_.tracer, "punch.build");
      const auto start = Clock::now();
      Build();
      layers_->build_ms.push_back(SecondsSince(start) * 1e3);
    }
    {
      auto span = Tracer::Span(options_.tracer, "punch.register", net().metrics());
      const auto start = Clock::now();
      Register();
      layers_->register_ms.push_back(SecondsSince(start) * 1e3);
    }
    outcome_.registered = Registered();
    if (outcome_.registered) {
      Connect();
    }
    outcome_.events = net().event_loop().events_processed();
    if (IsTcp(spec_.transport)) {
      outcome_.rsts = static_cast<uint64_t>(tcp_pa_->last_stats().refused);
    }
    Collect();
    return outcome_;
  }

 private:
  Network& net() { return scenario_->net(); }

  void Build() {
    Scenario::Options so;
    so.seed = spec_.sim_seed;
    so.internet_loss = spec_.loss;
    so.metrics = options_.traced;
    so.host_config.tcp.accept_policy = spec_.transport == Transport::kTcpLinux
                                           ? TcpAcceptPolicy::kLinuxWindows
                                           : TcpAcceptPolicy::kBsd;
    Host* server = nullptr;
    switch (spec_.topo) {
      case Topo::kFig4: {
        Fig4Topology t = MakeFig4(spec_.nat_a, so);
        scenario_ = std::move(t.scenario);
        server = t.server;
        a_ = t.a;
        b_ = t.b;
        break;
      }
      case Topo::kFig5: {
        Fig5Topology t = MakeFig5(spec_.nat_a, spec_.nat_b, so);
        scenario_ = std::move(t.scenario);
        server = t.server;
        a_ = t.a;
        b_ = t.b;
        break;
      }
      case Topo::kFig6: {
        Fig6Topology t = MakeFig6(spec_.nat_c, spec_.nat_a, spec_.nat_b, so);
        scenario_ = std::move(t.scenario);
        server = t.server;
        a_ = t.a;
        b_ = t.b;
        break;
      }
    }
    LanConfig internet = scenario_->internet()->config();
    internet.jitter = spec_.jitter;
    scenario_->internet()->set_config(internet);

    if (IsTcp(spec_.transport)) {
      servers_.push_back(std::make_unique<RendezvousServer>(server, kServerPort));
      servers_.back()->Start();
      tcp_a_ = std::make_unique<TcpRendezvousClient>(a_, servers_.back()->endpoint(), spec_.id_a);
      tcp_b_ = std::make_unique<TcpRendezvousClient>(b_, servers_.back()->endpoint(), spec_.id_b);
      tcp_pa_ = std::make_unique<TcpHolePuncher>(tcp_a_.get());
      tcp_pb_ = std::make_unique<TcpHolePuncher>(tcp_b_.get());
      tcp_pb_->SetIncomingStreamCallback([](TcpP2pStream*) {});
      return;
    }
    std::vector<Endpoint> shard_eps;
    for (int i = 0; i < kShards; ++i) {
      shard_eps.emplace_back(Ipv4Address::FromOctets(18, 181, 0, static_cast<uint8_t>(50 + i)),
                             kServerPort);
    }
    for (int i = 0; i < kShards; ++i) {
      Host* host = scenario_->AddPublicHost("R" + std::to_string(i), shard_eps[i].ip);
      RendezvousServer::Options ro;
      ro.shard.shards = shard_eps;
      ro.shard.index = static_cast<uint32_t>(i);
      servers_.push_back(std::make_unique<RendezvousServer>(host, kServerPort, ro));
      servers_.back()->Start();
    }
    const ShardRing ring(shard_eps);
    udp_a_ = std::make_unique<UdpRendezvousClient>(a_, ring, spec_.id_a);
    udp_b_ = std::make_unique<UdpRendezvousClient>(b_, ring, spec_.id_b);
    udp_pa_ = std::make_unique<UdpHolePuncher>(udp_a_.get());
    udp_pb_ = std::make_unique<UdpHolePuncher>(udp_b_.get());
  }

  bool Registered() const {
    return IsTcp(spec_.transport) ? tcp_a_->registered() && tcp_b_->registered()
                                  : udp_a_->registered() && udp_b_->registered();
  }

  // Registration retries on its own (UDP resends, TCP SYN backoff), so run
  // until both clients are registered, within a budget that covers the
  // retry schedules at the worst drawn loss.
  void Register() {
    if (IsTcp(spec_.transport)) {
      tcp_a_->Connect(4321, [](Result<Endpoint>) {});
      tcp_b_->Connect(4321, [](Result<Endpoint>) {});
    } else {
      udp_a_->Register(4321, [](Result<Endpoint>) {});
      udp_b_->Register(4321, [](Result<Endpoint>) {});
    }
    auto span = Tracer::Span(options_.tracer, "punch.run_for", net().metrics());
    const SimTime deadline = net().now() + Seconds(20);
    do {
      RunFor(Millis(500));
    } while (!Registered() && net().now() < deadline);
  }

  void Connect() {
    started_ = net().now();
    {
      auto span = Tracer::Span(options_.tracer, "punch.connect_to_peer", net().metrics());
      if (IsTcp(spec_.transport)) {
        tcp_pa_->ConnectToPeer(spec_.id_b, [this](Result<TcpP2pStream*> r) { Finish(r.ok()); });
      } else {
        udp_pa_->ConnectToPeer(spec_.id_b, [this](Result<UdpP2pSession*> r) { Finish(r.ok()); });
      }
    }
    // Run in short windows until the attempt resolves; both punchers give up
    // on their own deadline (10 s UDP, 30 s TCP) well inside the budget.
    auto span = Tracer::Span(options_.tracer, "punch.run_for", net().metrics());
    const SimTime deadline = started_ + (IsTcp(spec_.transport) ? Seconds(35) : Seconds(12));
    while (!done_ && net().now() < deadline) {
      RunFor(Millis(250));
    }
  }

  void Finish(bool connected) {
    done_ = true;
    outcome_.connected = connected;
    outcome_.connect_sim_us = (net().now() - started_).micros();
  }

  void RunFor(SimDuration d) {
    const uint64_t before = net().event_loop().events_processed();
    const auto start = Clock::now();
    net().RunFor(d);
    layers_->run_s += SecondsSince(start);
    layers_->run_events += net().event_loop().events_processed() - before;
  }

  void Collect() {
    const obs::MetricsRegistry* reg = net().metrics();
    if (reg == nullptr) {
      return;
    }
    layers_->forwards += SumCounters(reg, "rendezvous.shard", ".forwards");
    layers_->flow_hits += SumCounters(reg, "nat.", ".flowcache_hits");
    layers_->flow_misses += SumCounters(reg, "nat.", ".flowcache_misses");
    layers_->mappings += SumCounters(reg, "nat.", ".mappings_created");
    layers_->filtered += SumCounters(reg, "nat.", ".filtered_drops");
    layers_->tcp_retransmits += SumCounters(reg, "tcp.", ".retransmits");
    layers_->simultaneous_opens += SumCounters(reg, "tcp.", ".simultaneous_opens");
    layers_->punch_attempts += SumCounters(reg, "punch.attempts", "");
    layers_->punch_successes += SumCounters(reg, "punch.successes", "");
  }

  const PairSpec& spec_;
  const LegOptions& options_;
  Layers* layers_;
  PairOutcome outcome_;
  bool done_ = false;
  SimTime started_;
  // Declaration order is teardown order in reverse: punchers and clients go
  // before the servers, and everything before the scenario that owns hosts.
  std::unique_ptr<Scenario> scenario_;
  Host* a_ = nullptr;
  Host* b_ = nullptr;
  std::vector<std::unique_ptr<RendezvousServer>> servers_;
  std::unique_ptr<UdpRendezvousClient> udp_a_, udp_b_;
  std::unique_ptr<UdpHolePuncher> udp_pa_, udp_pb_;
  std::unique_ptr<TcpRendezvousClient> tcp_a_, tcp_b_;
  std::unique_ptr<TcpHolePuncher> tcp_pa_, tcp_pb_;
};

const char* TopoName(Topo t) {
  switch (t) {
    case Topo::kFig4:
      return "fig4";
    case Topo::kFig5:
      return "fig5";
    case Topo::kFig6:
      return "fig6";
  }
  return "?";
}

}  // namespace

LegResult RunPunchLeg(const LegOptions& options) {
  LegResult result;
  // Pairs per measured second on the reference host (4-vCPU x86 cloud VM,
  // Release build); the companion size keeps >= 10 samples beyond the p99.
  constexpr double kPairsPerSecond = 10000;
  const size_t count = options.scale == Scale::kMain
                           ? std::max<size_t>(kBatch * 8, static_cast<size_t>(
                                                              options.seconds * kPairsPerSecond))
                           : 32768;
  const size_t total = (count + kBatch - 1) / kBatch * kBatch;

  // Set-up: draw the pair plan (fleet mix, topologies, links). The plan is a
  // pure function of the seed, so it is drawn again in place before every
  // setup_every-th batch, outside its timing. setup_s is the median draw,
  // each divided by the slowdown of the batch that follows it (see
  // kFastEnd).
  std::vector<PairSpec> pairs(total);
  std::vector<double> setup_s;
  const auto draw = [&] {
    auto span = Tracer::Span(options.tracer, "punch.setup");
    const auto start = Clock::now();
    DrawPairs(options.seed, &pairs);
    setup_s.push_back(SecondsSince(start));
  };
  draw();
  const size_t setup_every = std::max<size_t>(1, total / kBatch / 16);

  Layers layers;
  std::vector<double> batch_s;
  std::vector<double> connect_ms;
  uint64_t direct = 0;
  uint64_t expect_connect = 0;
  uint64_t expect_none = 0;
  uint64_t rsts = 0;
  uint64_t tcp_pairs = 0;
  uint64_t udp_pairs = 0;
  uint64_t events = 0;
  uint64_t connect_us = 0;
  for (size_t b = 0; b < total; b += kBatch) {
    if (b > 0 && b / kBatch % setup_every == 0) {
      draw();
    }
    options.speed->Tick();
    auto batch_span = Tracer::Span(options.tracer, "punch.batch");
    const auto start = Clock::now();
    for (size_t i = b; i < b + kBatch; ++i) {
      const PairSpec& spec = pairs[i];
      auto pair_span = Tracer::Span(options.tracer, "punch.pair");
      const PairOutcome out = PairRun(spec, options, &layers).Run();
      const Expect expect = Predict(spec);
      char what[160];
      std::snprintf(what, sizeof(what), "pair %zu (%s, %s, a=%s, b=%s): %s", i,
                    TopoName(spec.topo), IsTcp(spec.transport) ? "tcp" : "udp",
                    spec.nat_a.Rfc3489Class().c_str(), spec.nat_b.Rfc3489Class().c_str(),
                    !out.registered ? "registration failed"
                    : out.connected ? "connected against the predicate"
                                    : "did not connect against the predicate");
      result.Check(out.registered && (expect == Expect::kEither ||
                                      out.connected == (expect == Expect::kConnect)),
                   what);
      expect_connect += expect == Expect::kConnect ? 1 : 0;
      expect_none += expect == Expect::kNoConnect ? 1 : 0;
      if (out.connected) {
        ++direct;
        connect_ms.push_back(static_cast<double>(out.connect_sim_us) / 1e3);
        connect_us += static_cast<uint64_t>(out.connect_sim_us);
      }
      (IsTcp(spec.transport) ? tcp_pairs : udp_pairs) += 1;
      rsts += out.rsts;
      events += out.events;
    }
    batch_s.push_back(SecondsSince(start));
  }

  const double pairs_d = static_cast<double>(total);
  const double fast_batch_s = FastEnd(batch_s);
  result.throughput = static_cast<double>(kBatch) / fast_batch_s;
  result.sim = {{"punch.pairs", total},
                {"punch.connected", direct},
                {"punch.expect_connect", expect_connect},
                {"punch.expect_no_connect", expect_none},
                {"punch.connect_sim_us_total", connect_us},
                {"punch.tcp_pairs", tcp_pairs},
                {"punch.tcp_rsts", rsts},
                {"netsim.events", events}};
  for (size_t k = 0; k < setup_s.size(); ++k) {
    setup_s[k] *= fast_batch_s / batch_s[k * setup_every];
  }
  result.e2e["setup_s"] = {Median(setup_s), "s"};
  result.e2e["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  result.e2e["punch_attempts_per_s"] = {result.throughput, "1/s"};
  result.e2e["punch_direct_pct"] = {100.0 * static_cast<double>(direct) / pairs_d, "%"};
  result.e2e["punch_connect_sim_ms_p50"] = {Percentile(connect_ms, 0.50), "ms"};
  result.e2e["punch_connect_sim_ms_p99"] = {Percentile(connect_ms, 0.99), "ms"};

  auto& l = result.layer;
  l["samples.punch_connect"] = {static_cast<double>(connect_ms.size()), "count"};
  l["scenario.build_host_ms"] = {Median(layers.build_ms), "ms"};
  l["rendezvous.register_host_ms"] = {Median(layers.register_ms), "ms"};
  l["netsim.run_ns_per_event"] = {Ratio(layers.run_s * 1e9, static_cast<double>(layers.run_events)),
                                  "ns"};
  l["netsim.events_per_attempt"] = {static_cast<double>(events) / pairs_d, "count"};
  l["tcp.rsts_per_attempt"] = {Ratio(static_cast<double>(rsts), static_cast<double>(tcp_pairs)),
                               "count"};
  if (options.traced) {
    const double flow_lookups = static_cast<double>(layers.flow_hits + layers.flow_misses);
    l["rendezvous.forwards_per_attempt"] = {
        Ratio(static_cast<double>(layers.forwards), static_cast<double>(udp_pairs)), "count"};
    l["nat.flowcache_hit_ratio"] = {Ratio(static_cast<double>(layers.flow_hits), flow_lookups),
                                    "ratio"};
    l["nat.flowcache_hits"] = {static_cast<double>(layers.flow_hits), "count"};
    l["nat.flowcache_lookups"] = {flow_lookups, "count"};
    l["nat.mappings_created_per_attempt"] = {static_cast<double>(layers.mappings) / pairs_d,
                                             "count"};
    l["nat.filtered_drops_per_attempt"] = {static_cast<double>(layers.filtered) / pairs_d,
                                           "count"};
    l["tcp.retransmits_per_attempt"] = {
        Ratio(static_cast<double>(layers.tcp_retransmits), static_cast<double>(tcp_pairs)),
        "count"};
    l["tcp.simultaneous_opens"] = {static_cast<double>(layers.simultaneous_opens), "count"};
    l["punch.success_ratio"] = {Ratio(static_cast<double>(layers.punch_successes),
                                      static_cast<double>(layers.punch_attempts)),
                                "ratio"};
    l["punch.successes"] = {static_cast<double>(layers.punch_successes), "count"};
    l["punch.attempts"] = {static_cast<double>(layers.punch_attempts), "count"};
  }
  return result;
}

}  // namespace perfbench
