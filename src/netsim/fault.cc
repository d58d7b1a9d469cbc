#include "src/netsim/fault.h"

#include <utility>

namespace natpunch {

void FaultScheduler::Execute(const Fault& fault) {
  ++faults_executed_;
  network_->trace().RecordEvent(network_->now(), fault.node, TraceEvent::kFault, fault.label);
  fault.action();
}

void FaultScheduler::Schedule(SimTime at, std::string node, std::string label,
                              std::function<void()> action) {
  ++faults_scheduled_;
  Fault& fault = faults_.emplace_back();
  fault.scheduler = this;
  fault.node = std::move(node);
  fault.label = std::move(label);
  fault.action = std::move(action);
  fault.timer.Bind<&Fault::Fire>(&fault);
  network_->event_loop().ScheduleTimerAt(at, &fault.timer);
}

void FaultScheduler::LinkDown(SimTime at, Lan* lan, SimDuration downtime) {
  Schedule(at, lan->name(), "link down", [lan] { lan->set_up(false); });
  if (downtime.micros() > 0) {
    LinkUp(at + downtime, lan);
  }
}

void FaultScheduler::LinkUp(SimTime at, Lan* lan) {
  Schedule(at, lan->name(), "link up", [lan] { lan->set_up(true); });
}

void FaultScheduler::LatencySpike(SimTime at, Lan* lan, SimDuration extra,
                                  SimDuration duration) {
  Schedule(at, lan->name(), "latency spike +" + extra.ToString(), [this, lan, extra, duration] {
    const SimDuration before = lan->config().latency;
    LanConfig spiked = lan->config();
    spiked.latency = before + extra;
    lan->set_config(spiked);
    Schedule(network_->now() + duration, lan->name(), "latency restore", [lan, before] {
      LanConfig restored = lan->config();
      restored.latency = before;
      lan->set_config(restored);
    });
  });
}

void FaultScheduler::BurstLoss(SimTime at, Lan* lan, const GilbertElliottConfig& params,
                               SimDuration duration) {
  Schedule(at, lan->name(), "burst loss start", [this, lan, params, duration] {
    const GilbertElliottConfig before = lan->config().burst;
    LanConfig bursty = lan->config();
    bursty.burst = params;
    bursty.burst.enabled = true;
    lan->set_config(bursty);
    Schedule(network_->now() + duration, lan->name(), "burst loss end", [lan, before] {
      LanConfig restored = lan->config();
      restored.burst = before;
      lan->set_config(restored);
    });
  });
}

void FaultScheduler::Mangle(SimTime at, Lan* lan, const MangleConfig& params,
                            SimDuration duration) {
  Schedule(at, lan->name(), "mangle start", [this, lan, params, duration] {
    const MangleConfig before = lan->config().mangle;
    LanConfig hostile = lan->config();
    hostile.mangle = params;
    lan->set_config(hostile);
    if (duration.micros() > 0) {
      Schedule(network_->now() + duration, lan->name(), "mangle end", [lan, before] {
        LanConfig restored = lan->config();
        restored.mangle = before;
        lan->set_config(restored);
      });
    }
  });
}

void FaultScheduler::At(SimTime at, std::string label, std::function<void()> action) {
  Schedule(at, "fault", std::move(label), std::move(action));
}

}  // namespace natpunch
