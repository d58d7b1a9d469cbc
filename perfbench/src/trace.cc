#include "perfbench/src/trace.h"

#include <cstdio>

#include "src/obs/metrics.h"

namespace perfbench {

namespace {

uint64_t EventsDispatched(const natpunch::obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    return 0;
  }
  const natpunch::obs::Counter* counter = registry->FindCounter("loop.events_dispatched");
  return counter != nullptr ? counter->value() : 0;
}

}  // namespace

Tracer::Tracer(uint64_t run_id) : run_id_(run_id), epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name,
                     const natpunch::obs::MetricsRegistry* registry)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    index_ = tracer_->Open(name, registry);
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->Close(index_);
  }
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch_)
      .count();
}

int32_t Tracer::Open(const char* name, const natpunch::obs::MetricsRegistry* registry) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Record{name, parent, NowNs(), 0, registry, EventsDispatched(registry), 0});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  Record& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.events = EventsDispatched(span.registry) - span.events_at_start;
  span.registry = nullptr;  // the scenario may not outlive the run
  open_.pop_back();
}

// Children nest strictly inside their parent (RAII scopes on one thread), so
// a span's self time is its duration minus its direct children's durations.
std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

std::map<std::string, Tracer::NameTotals> Tracer::TotalsByName() const {
  std::map<std::string, NameTotals> totals;
  const std::vector<int64_t> self = SelfNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = totals[spans_[i].name];
    t.self_ms += static_cast<double>(self[i]) / 1e6;
    t.total_ms += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    t.count += 1;
    t.events += spans_[i].events;
  }
  return totals;
}

std::string Tracer::Json() const {
  const std::vector<int64_t> self = SelfNs();
  std::string out;
  out.reserve(96 * spans_.size() + 64);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"run_id\":\"%016llx\",\"spans\":[",
                static_cast<unsigned long long>(run_id_));
  out += buf;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"self_us\":%.3f,\"events\":%llu}",
                  i == 0 ? "" : ",", i, s.parent, s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns) / 1e3, static_cast<double>(self[i]) / 1e3,
                  static_cast<unsigned long long>(s.events));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
