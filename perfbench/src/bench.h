// Shared plumbing for the perfbench workloads: run options, the per-leg
// result every workload fills in, host-time helpers, the simulated-statistics
// digest, and registry readers.
//
// Vocabulary used throughout perfbench:
//   leg      one workload run inside one process (fleet, swarm, punch, chaos)
//   host     wall time on the machine running the benchmark
//   sim      simulated time on the event loop's clock

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/obs/metrics.h"

namespace perfbench {

// How much work a leg does. kMain is the workload named on the command line,
// sized from --seconds; kCompanion is the short fixed-size version that runs
// in its own process so every run reports every metric (see README.md).
enum class Scale { kMain, kCompanion };

class HostSpeed;

struct LegOptions {
  uint64_t seed = 1;
  Scale scale = Scale::kMain;
  double seconds = 10;
  // Traced pass: the program's metrics registry is on and `tracer` records
  // spans. The untraced pass runs the identical inputs with both off.
  bool traced = false;
  Tracer* tracer = nullptr;
  // Ticked once per round of every host-timed loop; never null.
  HostSpeed* speed = nullptr;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct LegResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // False once an output check fails. A failed operation that is an outcome
  // rather than a wrong output (a chaos trial left with no path) counts in
  // `failed` but leaves the run correct.
  bool correct = true;
  std::vector<std::string> errors;  // first few failures, for the log
  // Simulated statistics only (never host time): identical for a given seed
  // across runs, builds, and traced/untraced passes.
  std::map<std::string, uint64_t> sim;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  // The leg's host throughput, for obs.overhead_pct.
  double throughput = 0;

  void Count(uint64_t ops, uint64_t ops_failed, const std::string& what,
             bool output_check = true) {
    attempted += ops;
    failed += ops_failed;
    if (ops_failed > 0) {
      correct = correct && !output_check;
      if (errors.size() < 8) {
        errors.push_back(what);
      }
    }
  }
  void Check(bool ok, const std::string& what, uint64_t weight = 1) {
    Count(weight, ok ? 0 : weight, what);
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Host-time metrics are read from many short rounds of the same work (a fleet
// slice, a batch of pairs or trials, a simulated second of swarm steps) at
// the fast end: the 5th percentile of the rounds' host times. The machine
// is shared, and other tenants slow this process by up to 1.8x for
// stretches of a fraction of a second to over an hour. Their slowdown only
// ever adds time, so a median moves with how much of the run they cover,
// and the fast end much less. A round's slowdown is its host time over
// the fast end; set-up samples are divided by the slowdown of the round
// they ran beside. README.md ("Host noise") has the measurements.
constexpr double kFastEnd = 0.05;
inline double FastEnd(std::vector<double> round_times) {
  return Percentile(std::move(round_times), kFastEnd);
}

// Where rounds differ in work (chaos trials, swarm steps under keepalive
// waves), the fast end is taken of host time per simulated event: the
// nanoseconds per event of the fast-end round. A round's events are
// a pure function of the seed, so the leg's host time at the fast end is
// its events times this.
inline double FastNsPerEvent(const std::vector<double>& round_ms,
                             const std::vector<uint64_t>& round_events) {
  std::vector<double> ns;
  for (size_t i = 0; i < round_ms.size(); ++i) {
    ns.push_back(round_ms[i] * 1e6 / static_cast<double>(std::max<uint64_t>(1, round_events[i])));
  }
  return FastEnd(std::move(ns));
}

// The host's speed, read from a fixed reference kernel in the benchmark's
// own code, sampled between rounds. The kernel does, on a fixed input, the
// kinds of work the simulator spends its time on: allocation and free,
// hash-map updates, a priority queue and indirect calls. On the shared host
// the fast end of every round drifts, by up to 1.8x within minutes when
// other tenants are busy, and the kernel's fast end drifts with it, though
// less (README.md, "Host noise"). main.cc scales the host-time end-to-end
// metrics to a host whose kernel runs at kNominalNsPerOp.
class HostSpeed {
 public:
  static constexpr double kNominalNsPerOp = 200;

  // Samples the kernel when kInterval of host time has passed since the
  // last sample: about 3% of a round loop's time.
  void Tick() {
    if (samples_.empty() || Clock::now() - last_ >= kInterval) {
      Sample();
    }
  }
  void Sample();  // one run of the kernel, about 0.6 ms
  // Nanoseconds per kernel operation at the fast end of the samples.
  double NsPerOp() const { return FastEnd(samples_); }
  // How much slower than nominal this host ran: a host rate is multiplied
  // by it, a host time divided.
  double Slowdown() const { return NsPerOp() / kNominalNsPerOp; }

 private:
  static constexpr uint32_t kOps = 3000;
  static constexpr std::chrono::milliseconds kInterval{25};
  std::vector<double> samples_;
  Clock::time_point last_;
};

inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// Process-wide peak resident set size in MiB. ru_maxrss is monotone for the
// life of a process, so it measures a leg only because each leg runs in a
// process of its own.
inline double PeakRssMb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Deterministic per-purpose seed derivation (splitmix64 finaliser).
inline uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// FNV-1a over the leg's simulated statistics, in name order.
inline uint64_t Digest(const std::map<std::string, uint64_t>& sim) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  for (const auto& [name, value] : sim) {
    feed(name.data(), name.size());
    feed(&value, sizeof(value));
  }
  return h;
}

// Sum of the registry counters named <prefix>*<suffix> (e.g. "nat." and
// ".flowcache_hits" sums that counter over every NAT). 0 without a registry.
inline uint64_t SumCounters(const natpunch::obs::MetricsRegistry* reg, std::string_view prefix,
                            std::string_view suffix) {
  uint64_t total = 0;
  if (reg == nullptr) {
    return 0;
  }
  for (const auto& [name, counter] : reg->counters()) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += counter->value();
    }
  }
  return total;
}

// Same for gauges: the sum of current values (`max` false) or of high-water
// marks (`max` true).
inline int64_t SumGauges(const natpunch::obs::MetricsRegistry* reg, std::string_view prefix,
                         std::string_view suffix, bool max) {
  int64_t total = 0;
  if (reg == nullptr) {
    return 0;
  }
  for (const auto& [name, gauge] : reg->gauges()) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += max ? gauge->max() : gauge->value();
    }
  }
  return total;
}

// The slab pools whose peaks the traced runs report (mem.<pool>.peak).
inline const std::vector<std::string>& SlabPools() {
  static const std::vector<std::string> pools = {"udp_sessions", "resilient_sessions",
                                                 "tcp_sockets", "turn_allocations",
                                                 "rendezvous_clients"};
  return pools;
}

// mem.<pool>.peak for each pool in `peaks` (objects at the high-water mark)
// and mem.<pool>.bytes where the pool's object type is public.
void AddPoolMetrics(const std::map<std::string, int64_t>& peaks,
                    std::map<std::string, Metric>* layer);

// Workload entry points (one per *_workload.cc).
LegResult RunFleetLeg(const LegOptions& options);
LegResult RunSwarmLeg(const LegOptions& options);
LegResult RunPunchLeg(const LegOptions& options);
LegResult RunChaosLeg(const LegOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
