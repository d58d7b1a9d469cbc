// In-memory span recorder for the traced benchmark pass.
//
// A span covers one call the benchmark makes into the simulator (a RunFor
// window, a Send loop, a fleet slice, a chaos trial...). Each span records a
// name, host start and end, its parent (the span open when it began), and
// the run id every span of one process shares. When given the scenario's
// metrics registry, a span also reads loop.events_dispatched at both
// boundaries, so event counts are attributed where the work happened.
//
// Spans stay in memory; Json() writes them out once the run has ended, with
// each span's self time (its duration minus the time its child spans cover).
// The untraced pass passes a null Tracer*, which records nothing and costs
// one branch per boundary.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace natpunch::obs {
class MetricsRegistry;
}  // namespace natpunch::obs

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(uint64_t run_id);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const natpunch::obs::MetricsRegistry* registry);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  // Opens a span named `name` (a string literal) under the innermost open
  // span. A null tracer is allowed and records nothing.
  static Scope Span(Tracer* tracer, const char* name,
                    const natpunch::obs::MetricsRegistry* registry = nullptr) {
    return Scope(tracer, name, registry);
  }

  // Self time and count per span name, in milliseconds.
  struct NameTotals {
    double self_ms = 0;
    double total_ms = 0;
    uint64_t count = 0;
    uint64_t events = 0;
  };
  std::map<std::string, NameTotals> TotalsByName() const;

  // {"run_id":..., "spans":[{"id","parent","name","start_us","end_us",
  // "self_us","events"}...]}. Times are relative to the tracer's creation.
  std::string Json() const;

 private:
  struct Record {
    const char* name;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
    const natpunch::obs::MetricsRegistry* registry;
    uint64_t events_at_start;
    uint64_t events;
  };

  int32_t Open(const char* name, const natpunch::obs::MetricsRegistry* registry);
  void Close(int32_t index);
  int64_t NowNs() const;
  std::vector<int64_t> SelfNs() const;

  uint64_t run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Record> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
