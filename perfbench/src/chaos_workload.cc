// chaos: the seeded fault soak of bench_chaos, with enough trials for stable
// percentiles. Each trial is a Fig. 5 pair wrapped in ResilientSession with
// a TURN fallback, pumping one datagram every 500 ms for 90 s of simulated
// time while a per-trial fault plan (NAT reboots, rendezvous restarts, burst
// loss, latency spikes, one short partition) hits it. One trial in four uses
// symmetric NATs on both sides (bench_chaos's 3 of 12), which cannot punch
// and land on the relay.
//
// ResilientSession recovery, rendezvous re-registration, the TURN relay,
// fault injection and NAT reboots do the work. The simulated-time metrics
// move only when protocol behaviour changes, never with host speed.
//
// Checks: the warm-up trials replay bit-identically inside the measured
// window. A trial that ends with no path at all counts as a failed
// operation; it is an outcome, not a wrong output, so the run stays correct.

#include <functional>

#include "perfbench/src/bench.h"
#include "src/core/resilient_session.h"
#include "src/core/turn.h"
#include "src/netsim/fault.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace natpunch;

constexpr int64_t kSoakSeconds = 90;
constexpr size_t kRound = 64;  // trials per host-time round: 16 symmetric cycles

struct TrialResult {
  uint64_t faults = 0;
  uint64_t attempted = 0;
  uint64_t delivered = 0;
  std::vector<int64_t> recovery_us;
  int64_t downtime_us = 0;
  bool on_relay = false;
  bool no_path = false;
  bool connected = false;
  uint64_t events = 0;
  uint64_t relay_losses = 0;
  uint64_t sends_dropped = 0;
  std::string dead_reason;  // why the session gave up, when it did

  bool operator==(const TrialResult&) const = default;
};

// Registry and host-time readings of the traced pass.
struct Layers {
  std::vector<double> build_ms;
  double run_s = 0;
  uint64_t malformed = 0;
  uint64_t relay_fallbacks = 0;
  int64_t turn_allocations_peak = 0;
  std::map<std::string, int64_t> pool_peaks;
};

TrialResult RunTrial(uint64_t seed, bool symmetric, const LegOptions& options, Layers* layers) {
  TrialResult out;
  const auto build_start = Clock::now();
  NatConfig nat;
  if (symmetric) {
    nat.mapping = NatMapping::kAddressAndPortDependent;
    nat.filtering = NatFiltering::kAddressAndPortDependent;
    nat.port_allocation = NatPortAllocation::kRandom;
  }
  Scenario::Options scenario_options;
  scenario_options.seed = seed;
  scenario_options.metrics = options.traced;
  Fig5Topology topo = MakeFig5(nat, nat, scenario_options);
  Network& net = topo.scenario->net();
  const obs::MetricsRegistry* reg = net.metrics();

  Host* relay_host = topo.scenario->AddPublicHost("T", Ipv4Address::FromOctets(18, 181, 0, 40));
  TurnServer turn(relay_host);
  turn.Start();
  RendezvousServer server(topo.server, kServerPort);
  server.Start();
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  ca.StartKeepAlive(Seconds(1));
  cb.StartKeepAlive(Seconds(1));

  UdpPunchConfig punch;
  punch.keepalive_interval = Seconds(1);
  punch.session_expiry = Seconds(5);
  punch.punch_timeout = Seconds(3);
  UdpHolePuncher pa(&ca, punch);
  UdpHolePuncher pb(&cb, punch);
  ResilientSessionConfig resilient;
  resilient.backoff_initial = Millis(500);
  resilient.max_repunch_attempts = 4;
  resilient.turn_server = turn.endpoint();
  ResilientSessionManager ma(&pa, resilient);
  ResilientSessionManager mb(&pb, resilient);

  mb.SetIncomingSessionCallback([&out](ResilientSession* s) {
    s->SetReceiveCallback([&out](const Bytes&) { ++out.delivered; });
  });
  ResilientSession* session = nullptr;
  net.event_loop().ScheduleAfter(Seconds(2), [&] {
    ma.ConnectToPeer(2, [&](Result<ResilientSession*> r) {
      if (r.ok()) {
        session = *r;
        session->SetDeadCallback([&out](Status status) { out.dead_reason = status.ToString(); });
      }
    });
  });
  // Application traffic: one datagram toward B every 500 ms; sends during an
  // outage are attempts too, which is what availability measures.
  std::function<void()> pump = [&] {
    if (session != nullptr && session->alive()) {
      ++out.attempted;
      session->Send(Bytes{0xAB});
    }
    net.event_loop().ScheduleAfter(Millis(500), pump);
  };
  net.event_loop().ScheduleAfter(Seconds(3), pump);

  // The seeded fault plan: one fault per ~12 s slot, jittered, its kind
  // drawn from the plan rng; then one short partition that the session
  // expiry should absorb.
  Rng plan(seed * 0x9e3779b9u + 7);
  FaultScheduler faults(&net);
  for (int slot = 0; slot < 6; ++slot) {
    const SimTime at = SimTime() + Seconds(8 + slot * 12) + Millis(plan.NextInRange(0, 3000));
    switch (plan.NextBelow(5)) {
      case 0:
        faults.At(at, "nat A reboot", [&topo] { topo.site_a.nat->Reboot(); });
        break;
      case 1:
        faults.At(at, "nat B reboot", [&topo] { topo.site_b.nat->Reboot(); });
        break;
      case 2:
        faults.At(at, "rendezvous restart", [&server] {
          server.Stop();
          server.Start();
        });
        break;
      case 3: {
        GilbertElliottConfig burst;
        burst.enabled = true;
        burst.p_good_to_bad = 0.05;
        burst.p_bad_to_good = 0.3;
        burst.loss_bad = 0.9;
        faults.BurstLoss(at, topo.scenario->internet(), burst, Seconds(3));
        break;
      }
      default:
        faults.LatencySpike(at, topo.scenario->internet(), Millis(150), Seconds(3));
        break;
    }
  }
  faults.LinkDown(SimTime() + Seconds(82), topo.site_b.lan, Seconds(2));
  layers->build_ms.push_back(SecondsSince(build_start) * 1e3);

  {
    auto span = Tracer::Span(options.tracer, "chaos.run_for", reg);
    const auto start = Clock::now();
    net.RunFor(Seconds(kSoakSeconds));
    layers->run_s += SecondsSince(start);
  }

  out.faults = faults.faults_executed();
  out.events = net.event_loop().events_processed();
  out.no_path = session == nullptr || !session->alive();
  out.connected = session != nullptr;
  if (session != nullptr) {
    out.on_relay = session->path() == ResilientSession::Path::kRelay;
    out.downtime_us = session->total_downtime().micros();
    out.relay_losses = static_cast<uint64_t>(session->relay_losses());
    out.sends_dropped = session->sends_dropped();
    for (const auto& rec : session->recoveries()) {
      out.recovery_us.push_back(rec.downtime.micros());
    }
  }
  if (reg != nullptr) {
    layers->malformed += SumCounters(reg, "wire.", ".malformed_drops");
    layers->relay_fallbacks += SumCounters(reg, "resilient.relay_fallbacks", "");
    layers->turn_allocations_peak = std::max(
        layers->turn_allocations_peak, SumGauges(reg, "mem.turn_allocations.", ".peak", false));
    for (const std::string& pool : SlabPools()) {
      int64_t& peak = layers->pool_peaks[pool];
      peak = std::max(peak, SumGauges(reg, "mem." + pool + ".", ".peak", false));
    }
  }
  return out;
}

bool Symmetric(size_t trial) { return trial % 4 == 3; }

}  // namespace

LegResult RunChaosLeg(const LegOptions& options) {
  LegResult result;
  // Trials per measured second on the reference host (4-vCPU x86 cloud VM,
  // Release build); the companion keeps >= 10 recoveries beyond the p99.
  constexpr double kTrialsPerSecond = 1150;
  const size_t trials =
      options.scale == Scale::kMain
          ? std::max<size_t>(640, static_cast<size_t>(options.seconds * kTrialsPerSecond))
          : 2048;
  const auto trial_seed = [&](size_t i) { return Mix(options.seed, 1000 + i); };

  // Warm-up: the first twelve trials (three symmetric) run once; the
  // measured window replays them.
  Layers warm_layers;
  std::vector<TrialResult> warm;
  {
    auto span = Tracer::Span(options.tracer, "chaos.setup");
    for (size_t i = 0; i < 12; ++i) {
      warm.push_back(RunTrial(trial_seed(i), Symmetric(i), options, &warm_layers));
    }
  }

  Layers layers;
  std::vector<double> trial_ms;
  std::vector<uint64_t> trial_events;
  std::vector<double> recovery_ms;
  uint64_t attempted = 0;
  uint64_t delivered = 0;
  uint64_t relay_endings = 0;
  uint64_t faults = 0;
  uint64_t events = 0;
  uint64_t relay_losses = 0;
  uint64_t sends_dropped = 0;
  uint64_t downtime_us = 0;
  for (size_t i = 0; i < trials; ++i) {
    options.speed->Tick();
    auto span = Tracer::Span(options.tracer, "chaos.trial");
    const auto start = Clock::now();
    const TrialResult t = RunTrial(trial_seed(i), Symmetric(i), options, &layers);
    trial_ms.push_back(SecondsSince(start) * 1e3);
    trial_events.push_back(t.events);
    if (t.no_path) {
      // An outcome, not a wrong output: counted as a failed operation.
      result.Count(1, 1,
                   "trial " + std::to_string(i) + (Symmetric(i) ? " (symmetric)" : " (cone)") +
                       (t.connected ? " lost its path for good after " +
                                          std::to_string(t.recovery_us.size()) +
                                          " recoveries: " + t.dead_reason
                                    : " never connected"),
                   /*output_check=*/false);
    } else {
      result.Count(1, 0, "");
    }
    if (i < warm.size()) {
      result.Check(t == warm[i], "trial " + std::to_string(i) + " did not replay bit-identically");
    }
    attempted += t.attempted;
    delivered += t.delivered;
    relay_endings += t.on_relay ? 1 : 0;
    faults += t.faults;
    events += t.events;
    relay_losses += t.relay_losses;
    sends_dropped += t.sends_dropped;
    downtime_us += static_cast<uint64_t>(t.downtime_us);
    for (int64_t us : t.recovery_us) {
      recovery_ms.push_back(static_cast<double>(us) / 1e3);
    }
  }

  const double trials_d = static_cast<double>(trials);
  // Rounds of kRound consecutive trials, each with the same mix of cone and
  // symmetric trials. Their fault plans differ, so the trials are costed at
  // the rounds' fast-end host time per event (see FastNsPerEvent).
  std::vector<double> round_ms;
  std::vector<uint64_t> round_events;
  for (size_t i = 0; i + kRound <= trial_ms.size(); i += kRound) {
    round_ms.push_back(0);
    round_events.push_back(0);
    for (size_t j = i; j < i + kRound; ++j) {
      round_ms.back() += trial_ms[j];
      round_events.back() += trial_events[j];
    }
  }
  const double fast_ns_per_event = FastNsPerEvent(round_ms, round_events);
  result.throughput = trials_d / (static_cast<double>(events) * fast_ns_per_event / 1e9);
  result.sim = {{"chaos.trials", trials},
                {"chaos.datagrams_attempted", attempted},
                {"chaos.datagrams_delivered", delivered},
                {"chaos.recoveries", recovery_ms.size()},
                {"chaos.relay_endings", relay_endings},
                {"chaos.downtime_us", downtime_us},
                {"chaos.faults", faults},
                {"netsim.events", events}};
  // setup_s is the set-up of one trial: building its world (the Fig. 5
  // scenario, TURN and rendezvous servers, clients, punchers and fault
  // plan) before its soak runs. Median over the measured trials, each
  // divided by the slowdown of its round (see kFastEnd).
  std::vector<double> build_ms;
  for (size_t i = 0; i < round_ms.size() * kRound; ++i) {
    const size_t r = i / kRound;
    const double slowdown =
        round_ms[r] * 1e6 / static_cast<double>(round_events[r]) / fast_ns_per_event;
    build_ms.push_back(layers.build_ms[i] / slowdown);
  }
  result.e2e["setup_s"] = {Median(build_ms) / 1e3, "s"};
  result.e2e["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  result.e2e["chaos_trials_per_s"] = {result.throughput, "1/s"};
  result.e2e["chaos_availability_pct"] = {
      100.0 * Ratio(static_cast<double>(delivered), static_cast<double>(attempted)), "%"};
  result.e2e["chaos_recovery_sim_ms_p50"] = {Percentile(recovery_ms, 0.50), "ms"};
  result.e2e["chaos_recovery_sim_ms_p99"] = {Percentile(recovery_ms, 0.99), "ms"};

  auto& l = result.layer;
  l["samples.chaos_trials"] = {trials_d, "count"};
  l["samples.chaos_recovery"] = {static_cast<double>(recovery_ms.size()), "count"};
  l["scenario.build_host_ms"] = {Median(layers.build_ms), "ms"};
  l["netsim.run_ns_per_event"] = {layers.run_s * 1e9 / static_cast<double>(events), "ns"};
  l["netsim.fault_actions"] = {static_cast<double>(faults), "count"};
  l["resilient.recoveries_per_trial"] = {static_cast<double>(recovery_ms.size()) / trials_d,
                                         "count"};
  l["resilient.relay_fallback_ratio"] = {static_cast<double>(relay_endings) / trials_d, "ratio"};
  l["resilient.relay_endings"] = {static_cast<double>(relay_endings), "count"};
  l["resilient.relay_losses"] = {static_cast<double>(relay_losses), "count"};
  l["resilient.sends_dropped"] = {static_cast<double>(sends_dropped), "count"};
  if (options.traced) {
    l["wire.malformed_drops"] = {static_cast<double>(layers.malformed), "count"};
    l["resilient.relay_fallbacks"] = {static_cast<double>(layers.relay_fallbacks), "count"};
    l["turn.allocations_peak"] = {static_cast<double>(layers.turn_allocations_peak), "count"};
    AddPoolMetrics(layers.pool_peaks, &l);
  }
  return result;
}

}  // namespace perfbench
