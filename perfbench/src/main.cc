// perfbench: runs one benchmark leg (fleet, swarm, punch or chaos) in this
// process and prints one JSON line with its checks, simulated statistics,
// digest and metrics. perfbench/run.py drives it; see README.md.
//
//   perfbench <leg> --seed N [--seconds S] [--scale main|companion]
//             [--trace 0|1] [--spans-out FILE]
//
// --trace 0 runs the leg once, untraced, and reports its end-to-end metrics.
// --trace 1 runs the same inputs twice: untraced, then traced (metrics
// registry on, spans recorded). It reports the per-layer metrics of the
// traced pass, obs.overhead_pct between the two passes, and fails the run
// if the two passes' simulated statistics differ. A companion leg runs only
// the traced pass.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory_resource>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string leg;
  uint64_t seed = 1;
  double seconds = 10;
  Scale scale = Scale::kMain;
  bool trace = false;
  std::string spans_out;
};

bool Parse(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return false;
  }
  args->leg = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--scale") {
      args->scale = std::strcmp(value, "companion") == 0 ? Scale::kCompanion : Scale::kMain;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return args->seconds > 0;
}

LegResult RunLeg(const std::string& leg, const LegOptions& options) {
  if (leg == "fleet") {
    return RunFleetLeg(options);
  }
  if (leg == "swarm") {
    return RunSwarmLeg(options);
  }
  if (leg == "punch") {
    return RunPunchLeg(options);
  }
  return RunChaosLeg(options);
}

// The end-to-end metrics that are host time: rates are multiplied by the
// host's slowdown, times divided by it (see HostSpeed).
const std::set<std::string> kHostRates = {"fleet_reports_per_s", "swarm_punches_per_s",
                                          "swarm_datagrams_per_s", "punch_attempts_per_s",
                                          "chaos_trials_per_s"};
const std::set<std::string> kHostTimes = {"setup_s", "swarm_step_host_ms_p50",
                                          "swarm_step_host_ms_p90"};

void ScaleToNominalHost(const HostSpeed& speed, std::map<std::string, Metric>* e2e) {
  for (auto& [name, metric] : *e2e) {
    if (kHostRates.contains(name)) {
      metric.value *= speed.Slowdown();
    } else if (kHostTimes.contains(name)) {
      metric.value /= speed.Slowdown();
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void Emit(const Args& args, const LegResult& r, const std::map<std::string, Metric>& metrics,
          const Tracer* tracer, const HostSpeed& speed) {
  std::string out = "{\"leg\":" + JsonString(args.leg);
  char buf[256];
  std::snprintf(buf, sizeof(buf), ",\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"digest\":\"%016" PRIx64 "\",\"host_ns_per_op\":%.6f",
                r.correct ? "true" : "false", r.attempted, r.failed, Digest(r.sim),
                speed.NsPerOp());
  out += buf;
  out += ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += JsonString(r.errors[i]);
  }
  out += "],\"sim\":{";
  bool first = true;
  for (const auto& [name, value] : r.sim) {
    std::snprintf(buf, sizeof(buf), "%s%s:%" PRIu64, first ? "" : ",", JsonString(name).c_str(),
                  value);
    out += buf;
    first = false;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%s%s:{\"value\":%.17g,\"unit\":%s}", first ? "" : ",",
                  JsonString(name).c_str(), m.value, JsonString(m.unit).c_str());
    out += buf;
    first = false;
  }
  out += "},\"spans\":{";
  if (tracer != nullptr) {
    first = true;
    for (const auto& [name, t] : tracer->TotalsByName()) {
      std::snprintf(buf, sizeof(buf),
                    "%s%s:{\"self_ms\":%.6f,\"total_ms\":%.6f,\"count\":%" PRIu64
                    ",\"events\":%" PRIu64 "}",
                    first ? "" : ",", JsonString(name).c_str(), t.self_ms, t.total_ms, t.count,
                    t.events);
      out += buf;
      first = false;
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// One block the reference kernel allocates, folds into its checksum through
// one of two functions (an indirect call), and frees.
struct Block {
  uint64_t* data;
  uint32_t size;
  uint64_t (*fold)(const Block&, uint64_t);
};
uint64_t FoldSum(const Block& b, uint64_t v) {
  for (uint32_t i = 0; i < b.size; ++i) {
    v += b.data[i];
  }
  return v;
}
uint64_t FoldXor(const Block& b, uint64_t v) {
  for (uint32_t i = 0; i < b.size; ++i) {
    v ^= b.data[i] + i;
  }
  return v;
}

}  // namespace

// The kernel allocates only from a pool over its own fixed buffer: it must
// leave the process heap as it found it (glibc malloc's trim state moves
// with what a process frees, and that changed the simulator's page faults
// per fleet slice by 100x).
void HostSpeed::Sample() {
  alignas(64) static std::byte buffer[1 << 20];
  const auto start = Clock::now();
  uint64_t acc = 0;
  {
    std::pmr::monotonic_buffer_resource arena(buffer, sizeof(buffer),
                                              std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::unordered_map<uint32_t, uint64_t> table(&pool);
    using Entry = std::pair<uint32_t, uint32_t>;
    std::priority_queue<Entry, std::pmr::vector<Entry>> queue{
        std::pmr::polymorphic_allocator<Entry>(&pool)};
    std::pmr::vector<Block> pending(&pool);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto release = [&] {
      for (const Block& b : pending) {
        acc = b.fold(b, acc);
        pool.deallocate(b.data, b.size * sizeof(uint64_t));
      }
      pending.clear();
    };
    for (uint32_t i = 0; i < kOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto key = static_cast<uint32_t>(x % 4096);
      table[key] += i;
      queue.emplace(static_cast<uint32_t>(x >> 40), key);
      if (queue.size() > 512) {
        const auto it = table.find(queue.top().second);
        queue.pop();
        if (it != table.end()) {
          acc += it->second;
          if ((acc & 1) != 0) {
            table.erase(it);
          }
        }
      }
      Block b{nullptr, 8 + (key & 15), (key & 16) != 0 ? FoldSum : FoldXor};
      b.data = static_cast<uint64_t*>(pool.allocate(b.size * sizeof(uint64_t)));
      std::fill(b.data, b.data + b.size, x);
      pending.push_back(b);
      if (pending.size() > 64) {
        release();
      }
    }
    release();
  }
  asm volatile("" : : "g"(acc) : "memory");  // the result is observable
  last_ = Clock::now();
  samples_.push_back(std::chrono::duration<double, std::nano>(last_ - start).count() / kOps);
}

namespace {

int Main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args) || (args.leg != "fleet" && args.leg != "swarm" &&
                                    args.leg != "punch" && args.leg != "chaos")) {
    std::fprintf(stderr,
                 "usage: perfbench fleet|swarm|punch|chaos --seed N [--seconds S] "
                 "[--scale main|companion] [--trace 0|1] [--spans-out FILE]\n");
    return 2;
  }
  HostSpeed speed;
  for (int i = 0; i < 16; ++i) {
    speed.Sample();
  }
  LegOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.scale = args.scale;
  options.speed = &speed;

  if (!args.trace) {
    LegResult r = RunLeg(args.leg, options);
    ScaleToNominalHost(speed, &r.e2e);
    Emit(args, r, r.e2e, nullptr, speed);
    return 0;
  }

  // Companion legs skip the untraced pass: the main leg already checks the
  // two passes against each other and gives obs.overhead_pct.
  const bool both_passes = args.scale == Scale::kMain;
  LegResult plain;
  if (both_passes) {
    plain = RunLeg(args.leg, options);
  }
  Tracer tracer(Mix(args.seed, static_cast<uint64_t>(args.leg[0])));
  options.traced = true;
  options.tracer = &tracer;
  LegResult traced = RunLeg(args.leg, options);
  if (both_passes) {
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.correct = traced.correct && plain.correct;
    traced.errors.insert(traced.errors.begin(), plain.errors.begin(), plain.errors.end());
    traced.Check(Digest(plain.sim) == Digest(traced.sim),
                 "simulated statistics differ between the untraced and traced passes");
    traced.layer["obs.overhead_pct"] = {
        100.0 * (Ratio(plain.throughput, traced.throughput) - 1), "%"};
  }
  if (!args.spans_out.empty()) {
    std::ofstream(args.spans_out) << tracer.Json() << "\n";
  }
  Emit(args, traced, traced.layer, &tracer, speed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
