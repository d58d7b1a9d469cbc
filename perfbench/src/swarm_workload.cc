// swarm: about 100k UDP sessions punched with PunchAtEndpoints across NATted
// site pairs, then held in steady state with jittered keepalives and one
// empty datagram per session per simulated second (bench_swarm's unsharded
// leg, driven step by step).
//
// A step is 125 ms of simulated time: one eighth of the sessions send from
// both ends (the Send loop), then the event loop runs (RunFor). Most host
// time goes to the event loop (LAN-hop closures, the timer wheel), NAT
// flow-cache hits, UDP demux and keepalives; TCP, natcheck and rendezvous
// sit idle after set-up.
//
// Checks: every pair registers, every session is established on both ends
// and stays alive, and the steady state delivers exactly the datagrams sent.

#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "src/core/resilient_session.h"
#include "src/core/udp_puncher.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/transport/tcp.h"

namespace perfbench {
namespace {

using namespace natpunch;

constexpr int kBatches = 8;                    // steps per simulated second
constexpr SimDuration kStep = Millis(125);

struct Side {
  Host* host = nullptr;
  uint64_t client_id = 0;
  std::unique_ptr<UdpRendezvousClient> client;
  std::unique_ptr<UdpHolePuncher> puncher;
  Endpoint public_ep;
};

// One swarm population: the rendezvous server, the NATted site pairs and
// their registered clients and punchers.
struct Swarm {
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<RendezvousServer> server;
  std::vector<Lan*> lans;
  std::vector<Side> a;
  std::vector<Side> b;
  std::vector<UdpP2pSession*> initiator;
  std::vector<UdpP2pSession*> responder;

  Network& net() { return scenario->net(); }
};

// Set-up: topology, server, clients, registration.
std::unique_ptr<Swarm> BuildSwarm(uint64_t seed, size_t pairs, bool metrics, Tracer* tracer,
                                  double* build_ms, double* register_ms) {
  auto swarm = std::make_unique<Swarm>();
  auto start = Clock::now();
  {
    auto span = Tracer::Span(tracer, "swarm.build");
    Scenario::Options options;
    options.seed = seed;
    options.metrics = metrics;
    swarm->scenario = std::make_unique<Scenario>(options);
    Scenario& scenario = *swarm->scenario;
    Host* server_host = scenario.AddPublicHost("S", ServerIp());
    swarm->server = std::make_unique<RendezvousServer>(server_host, kServerPort);
    swarm->server->Start();
    swarm->lans.push_back(scenario.internet());

    UdpPunchConfig punch;
    punch.keepalive_interval = Seconds(5);
    punch.keepalive_jitter = Seconds(1);
    punch.session_expiry = Seconds(300);
    punch.try_private_endpoint = false;

    swarm->a.resize(pairs);
    swarm->b.resize(pairs);
    const Ipv4Prefix private_prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24);
    for (size_t p = 0; p < pairs; ++p) {
      const auto hi = static_cast<uint8_t>(p >> 8);
      const auto lo = static_cast<uint8_t>(p & 0xff);
      NattedSite site_a = scenario.AddNattedSite("a" + std::to_string(p), NatConfig{},
                                                 Ipv4Address::FromOctets(20, hi, lo, 1),
                                                 private_prefix, 1);
      NattedSite site_b = scenario.AddNattedSite("b" + std::to_string(p), NatConfig{},
                                                 Ipv4Address::FromOctets(21, hi, lo, 1),
                                                 private_prefix, 1);
      swarm->lans.push_back(site_a.lan);
      swarm->lans.push_back(site_b.lan);
      swarm->a[p].host = site_a.host(0);
      swarm->b[p].host = site_b.host(0);
      swarm->a[p].client_id = 1000 + p;
      swarm->b[p].client_id = 1000000 + p;
      for (Side* side : {&swarm->a[p], &swarm->b[p]}) {
        side->client = std::make_unique<UdpRendezvousClient>(side->host,
                                                             swarm->server->endpoint(),
                                                             side->client_id);
        side->puncher = std::make_unique<UdpHolePuncher>(side->client.get(), punch);
      }
    }
  }
  *build_ms = SecondsSince(start) * 1e3;
  start = Clock::now();
  {
    auto span = Tracer::Span(tracer, "swarm.register", swarm->net().metrics());
    for (std::vector<Side>* sides : {&swarm->a, &swarm->b}) {
      for (Side& side : *sides) {
        Side* s = &side;
        side.client->Register(4321, [s](Result<Endpoint> r) {
          if (r.ok()) {
            s->public_ep = *r;
          }
        });
      }
    }
    swarm->net().RunFor(Seconds(3));
  }
  *register_ms = SecondsSince(start) * 1e3;
  return swarm;
}

// Punch ramp: pair by pair, both ends arm the same nonce and probe each
// other's registered endpoint, 250 ms of simulated time apart. Appends the
// host time of each pair's step and adds the time inside PunchAtEndpoints.
void Ramp(Swarm* swarm, const LegOptions& options, size_t per_pair,
          std::vector<double>* pair_s, double* punch_call_s) {
  Network& net = swarm->net();
  const obs::MetricsRegistry* reg = net.metrics();
  auto ramp_span = Tracer::Span(options.tracer, "swarm.punch_ramp", reg);
  swarm->initiator.reserve(swarm->a.size() * per_pair);
  swarm->responder.reserve(swarm->a.size() * per_pair);
  for (size_t p = 0; p < swarm->a.size(); ++p) {
    options.speed->Tick();
    const auto start = Clock::now();
    Side& a = swarm->a[p];
    Side& b = swarm->b[p];
    b.puncher->SetIncomingSessionCallback(
        [swarm](UdpP2pSession* s) { swarm->responder.push_back(s); });
    {
      auto span = Tracer::Span(options.tracer, "swarm.punch_calls");
      const auto calls = Clock::now();
      for (size_t s = 0; s < per_pair; ++s) {
        const uint64_t nonce = Mix(options.seed, (p << 32) | s) | 1;
        b.puncher->PunchAtEndpoints(a.client_id, nonce, a.public_ep, Endpoint{}, nullptr);
        a.puncher->PunchAtEndpoints(b.client_id, nonce, b.public_ep, Endpoint{},
                                    [swarm](Result<UdpP2pSession*> r) {
                                      if (r.ok()) {
                                        swarm->initiator.push_back(*r);
                                      }
                                    });
      }
      *punch_call_s += SecondsSince(calls);
    }
    {
      auto span = Tracer::Span(options.tracer, "swarm.run_for", reg);
      net.RunFor(Millis(250));
    }
    pair_s->push_back(SecondsSince(start));
  }
  auto span = Tracer::Span(options.tracer, "swarm.run_for", reg);
  net.RunFor(Seconds(3));
}

// Host timings of one set-up.
struct SetupSample {
  double setup_s = 0;
  double build_ms = 0;
  double register_ms = 0;
  double punch_call_s = 0;
  std::vector<double> pair_s;
};

SetupSample Setup(uint64_t sim_seed, size_t pairs, size_t per_pair, const LegOptions& options,
                  std::unique_ptr<Swarm>* swarm) {
  SetupSample sample;
  const auto start = Clock::now();
  *swarm = BuildSwarm(sim_seed, pairs, options.traced, options.tracer, &sample.build_ms,
                      &sample.register_ms);
  Ramp(swarm->get(), options, per_pair, &sample.pair_s, &sample.punch_call_s);
  sample.setup_s = SecondsSince(start);
  return sample;
}

struct RegistrySnapshot {
  uint64_t flow_hits = 0;
  uint64_t flow_misses = 0;
  uint64_t timers_wheel = 0;
  uint64_t wheel_cascades = 0;

  static RegistrySnapshot Take(const obs::MetricsRegistry* reg) {
    return {SumCounters(reg, "nat.", ".flowcache_hits"),
            SumCounters(reg, "nat.", ".flowcache_misses"),
            SumCounters(reg, "loop.timers_wheel", ""), SumCounters(reg, "loop.wheel_cascades", "")};
  }
};

uint64_t LanPackets(const Swarm& swarm) {
  uint64_t total = 0;
  for (const Lan* lan : swarm.lans) {
    total += lan->packets_transmitted();
  }
  return total;
}

}  // namespace

void AddPoolMetrics(const std::map<std::string, int64_t>& peaks,
                    std::map<std::string, Metric>* layer) {
  // Object sizes of the pools whose element type is public; the TURN
  // allocation and rendezvous client records are private to their owners.
  const std::map<std::string, size_t> object_bytes = {
      {"udp_sessions", sizeof(UdpP2pSession)},
      {"resilient_sessions", sizeof(ResilientSession)},
      {"tcp_sockets", sizeof(TcpSocket)}};
  for (const auto& [pool, peak] : peaks) {
    (*layer)["mem." + pool + ".peak"] = {static_cast<double>(peak), "count"};
    if (const auto it = object_bytes.find(pool); it != object_bytes.end()) {
      (*layer)["mem." + pool + ".bytes"] = {
          static_cast<double>(peak) * static_cast<double>(it->second), "B"};
    }
  }
}

LegResult RunSwarmLeg(const LegOptions& options) {
  LegResult result;
  // The steady state runs in rounds of kBatches steps (one simulated second,
  // every session sends once). Rounds per measured second on the reference
  // host (4-vCPU x86 cloud VM, Release build) at 100k sessions; a run takes
  // at least 13 rounds (104 steps). The companion runs the same population.
  constexpr double kRoundsPerSecond = 5;
  const size_t pairs = 64;
  const size_t per_pair = 1563;
  const size_t total = pairs * per_pair;
  const size_t rounds =
      options.scale == Scale::kMain
          ? std::max<size_t>(13, static_cast<size_t>(options.seconds * kRoundsPerSecond))
          : 16;
  const size_t steps = rounds * kBatches;
  const uint64_t sim_seed = Mix(options.seed, 51);

  // Set-up: build the population, register it, and ramp its sessions up.
  // This population runs the steady state; two more set-ups follow it.
  std::vector<SetupSample> samples;
  std::unique_ptr<Swarm> swarm;
  {
    auto span = Tracer::Span(options.tracer, "swarm.setup");
    samples.push_back(Setup(sim_seed, pairs, per_pair, options, &swarm));
  }
  Network& net = swarm->net();
  const obs::MetricsRegistry* reg = net.metrics();
  uint64_t registered = 0;
  for (std::vector<Side>* sides : {&swarm->a, &swarm->b}) {
    for (const Side& side : *sides) {
      registered += side.public_ep.IsUnspecified() ? 0 : 1;
    }
  }
  result.Check(registered == 2 * pairs, "a swarm client failed to register", 2 * pairs);
  const std::vector<UdpP2pSession*>& initiator = swarm->initiator;
  const std::vector<UdpP2pSession*>& responder = swarm->responder;
  const size_t established = std::min(initiator.size(), responder.size());
  result.Check(established == total,
               "punch shortfall: " + std::to_string(initiator.size()) + " initiator / " +
                   std::to_string(responder.size()) + " responder sessions",
               total);
  if (established != total) {
    result.e2e["setup_s"] = {samples[0].setup_s, "s"};
    return result;
  }

  // Steady state. Warm-up steps fill the pools before anything is timed.
  uint64_t sends = 0;
  std::vector<double> step_ms;
  std::vector<uint64_t> step_events;
  double send_s = 0;
  double run_s = 0;
  uint64_t run_events = 0;
  const size_t batch = (total + kBatches - 1) / kBatches;
  const auto step = [&](size_t index, bool timed) {
    options.speed->Tick();
    auto step_span = Tracer::Span(options.tracer, "swarm.step", reg);
    const size_t begin = (index % kBatches) * batch;
    const size_t end = std::min(total, begin + batch);
    const auto start = Clock::now();
    {
      auto span = Tracer::Span(options.tracer, "swarm.send_loop");
      for (size_t i = begin; i < end; ++i) {
        initiator[i]->Send(Bytes{});
        responder[i]->Send(Bytes{});
      }
    }
    const auto sent = Clock::now();
    const uint64_t events_before = net.event_loop().events_processed();
    {
      auto span = Tracer::Span(options.tracer, "swarm.run_for", reg);
      net.RunFor(kStep);
    }
    if (timed) {
      const auto done = Clock::now();
      sends += 2 * (end - begin);
      send_s += std::chrono::duration<double>(sent - start).count();
      run_s += std::chrono::duration<double>(done - sent).count();
      run_events += net.event_loop().events_processed() - events_before;
      step_events.push_back(net.event_loop().events_processed() - events_before);
      step_ms.push_back(std::chrono::duration<double, std::milli>(done - start).count());
    }
  };
  const auto delivered = [&] {
    uint64_t n = 0;
    for (size_t i = 0; i < total; ++i) {
      n += initiator[i]->datagrams_received() + responder[i]->datagrams_received();
    }
    return n;
  };
  for (size_t i = 0; i < 2 * kBatches; ++i) {
    step(i, false);
  }
  const uint64_t delivered_before = delivered();
  const uint64_t events_before = net.event_loop().events_processed();
  const uint64_t lan_before = LanPackets(*swarm);
  const RegistrySnapshot reg_before = RegistrySnapshot::Take(reg);
  for (size_t i = 0; i < steps; ++i) {
    step(i, true);
  }
  const uint64_t steady_events = net.event_loop().events_processed() - events_before;
  const uint64_t lan_packets = LanPackets(*swarm) - lan_before;
  const RegistrySnapshot reg_after = RegistrySnapshot::Take(reg);
  const uint64_t got = delivered() - delivered_before;
  {
    auto span = Tracer::Span(options.tracer, "swarm.run_for", reg);
    net.RunFor(Seconds(1));  // drain: nothing may arrive late
  }
  const uint64_t got_after_drain = delivered() - delivered_before;
  uint64_t alive = 0;
  for (size_t i = 0; i < total; ++i) {
    alive += (initiator[i]->alive() ? 1 : 0) + (responder[i]->alive() ? 1 : 0);
  }
  result.Check(alive == 2 * total,
               std::to_string(2 * total - alive) + " session ends died in steady state",
               2 * total);
  result.Count(sends, sends - std::min(sends, got),
               std::to_string(sends - std::min(sends, got)) + " datagrams not delivered");
  result.Check(got_after_drain == got, "datagrams delivered after their step");

  // Host time with each round's host noise taken out: a round's slowdown is
  // its host time per event over the rounds' fast end (FastNsPerEvent), and
  // each step's host time is divided by its round's slowdown. The datagram
  // rate and the step-time percentiles come from these steady step times.
  std::vector<double> round_ms(rounds, 0.0);
  std::vector<uint64_t> round_events(rounds, 0);
  for (size_t i = 0; i < steps; ++i) {
    round_ms[i / kBatches] += step_ms[i];
    round_events[i / kBatches] += step_events[i];
  }
  const double fast_ns_per_event = FastNsPerEvent(round_ms, round_events);
  std::vector<double> steady_step_ms;
  double steady_s = 0;
  for (size_t i = 0; i < steps; ++i) {
    const size_t r = i / kBatches;
    const double slowdown =
        round_ms[r] * 1e6 / static_cast<double>(round_events[r]) / fast_ns_per_event;
    steady_step_ms.push_back(step_ms[i] / slowdown);
    steady_s += steady_step_ms.back() / 1e3;
  }
  const double rss_mb = PeakRssMb();
  result.throughput = static_cast<double>(sends) / steady_s;
  result.sim = {{"swarm.sessions", total},
                {"swarm.steps", steps},
                {"swarm.datagrams_sent", sends},
                {"swarm.datagrams_delivered", got},
                {"swarm.alive_ends", alive},
                {"netsim.events_steady", steady_events},
                {"netsim.events", net.event_loop().events_processed()},
                {"netsim.lan_packets_steady", lan_packets}};
  result.e2e["peak_rss_mb"] = {rss_mb, "MiB"};
  result.e2e["swarm_datagrams_per_s"] = {result.throughput, "1/s"};
  result.e2e["swarm_step_host_ms_p50"] = {Percentile(steady_step_ms, 0.5), "ms"};
  result.e2e["swarm_step_host_ms_p90"] = {Percentile(steady_step_ms, 0.9), "ms"};
  result.e2e["bytes_per_session"] = {rss_mb * 1024.0 * 1024.0 / static_cast<double>(total), "B"};

  auto& l = result.layer;
  const double got_d = static_cast<double>(got);
  l["samples.swarm_steps"] = {static_cast<double>(steps), "count"};
  l["netsim.run_ns_per_event"] = {run_s * 1e9 / static_cast<double>(run_events), "ns"};
  l["netsim.events_per_datagram"] = {static_cast<double>(steady_events) / got_d, "count"};
  l["netsim.lan_packets_per_datagram"] = {static_cast<double>(lan_packets) / got_d, "count"};
  l["transport.send_ns_per_datagram"] = {send_s * 1e9 / static_cast<double>(sends), "ns"};
  if (options.traced) {
    const uint64_t hits = reg_after.flow_hits - reg_before.flow_hits;
    const uint64_t lookups = hits + reg_after.flow_misses - reg_before.flow_misses;
    l["nat.flowcache_hit_ratio"] = {Ratio(static_cast<double>(hits), static_cast<double>(lookups)),
                                    "ratio"};
    l["nat.flowcache_hits"] = {static_cast<double>(hits), "count"};
    l["nat.flowcache_lookups"] = {static_cast<double>(lookups), "count"};
    l["netsim.timers_wheel"] = {
        static_cast<double>(reg_after.timers_wheel - reg_before.timers_wheel), "count"};
    l["netsim.wheel_cascades"] = {
        static_cast<double>(reg_after.wheel_cascades - reg_before.wheel_cascades), "count"};
    l["netsim.heap_depth_max"] = {
        static_cast<double>(SumGauges(reg, "loop.heap_depth", "", /*max=*/true)), "count"};
    const double attempts = static_cast<double>(SumCounters(reg, "punch.attempts", ""));
    const double successes = static_cast<double>(SumCounters(reg, "punch.successes", ""));
    l["punch.success_ratio"] = {Ratio(successes, attempts), "ratio"};
    l["punch.successes"] = {successes, "count"};
    l["punch.attempts"] = {attempts, "count"};
    std::map<std::string, int64_t> peaks;
    for (const std::string& pool : SlabPools()) {
      peaks[pool] = SumGauges(reg, "mem." + pool + ".", ".peak", false);
    }
    AddPoolMetrics(peaks, &l);
  }

  // Two more set-ups, after peak RSS has been read: ru_maxrss is monotone
  // for the life of the process, so it covers only the population that ran
  // the steady state. setup_s is the median of the three set-ups.
  swarm.reset();
  {
    auto span = Tracer::Span(options.tracer, "swarm.setup");
    for (int i = 0; i < 2; ++i) {
      std::unique_ptr<Swarm> extra;
      samples.push_back(Setup(sim_seed, pairs, per_pair, options, &extra));
    }
  }
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> register_ms;
  // A ramp step's cost grows with the sessions already up, so the ramps
  // are compared position by position: the fastest of the set-ups' ramp
  // host times at each site pair, summed, is the ramp's host time. The
  // first ramp and the other two lie the steady state apart.
  std::vector<double> ramp_pair_s = samples[0].pair_s;
  double punch_call_s = 0;
  for (const SetupSample& sample : samples) {
    setup_s.push_back(sample.setup_s);
    build_ms.push_back(sample.build_ms);
    register_ms.push_back(sample.register_ms);
    punch_call_s += sample.punch_call_s;
    for (size_t p = 0; p < pairs; ++p) {
      ramp_pair_s[p] = std::min(ramp_pair_s[p], sample.pair_s[p]);
    }
  }
  double ramp_s = 0;
  for (double s : ramp_pair_s) {
    ramp_s += s;
  }
  // Each set-up divided by its slowdown: its ramp's host time over the sum
  // of the fastest ramp step times.
  for (size_t k = 0; k < samples.size(); ++k) {
    double ramp_k_s = 0;
    for (double s : samples[k].pair_s) {
      ramp_k_s += s;
    }
    setup_s[k] *= ramp_s / ramp_k_s;
  }
  result.e2e["setup_s"] = {Median(setup_s), "s"};
  result.e2e["swarm_punches_per_s"] = {static_cast<double>(total) / ramp_s, "1/s"};
  l["scenario.build_host_ms"] = {Median(build_ms), "ms"};
  l["rendezvous.register_host_ms"] = {Median(register_ms), "ms"};
  l["core.punch_ramp_ns_per_session"] = {
      punch_call_s * 1e9 / static_cast<double>(total * samples.size()), "ns"};
  return result;
}

}  // namespace perfbench
