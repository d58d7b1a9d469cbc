// Deterministic fault-injection engine.
//
// A FaultScheduler executes a scripted timeline of faults against a running
// Network: link partitions (up/down), latency spikes, Gilbert-Elliott burst
// loss windows, and arbitrary custom actions (NAT reboots, rendezvous server
// restarts — anything a higher layer exposes as a callback). The timeline is
// data: the same plan against the same seed reproduces the same trace
// bit-for-bit, which is what lets chaos tests assert determinism and chaos
// benches sweep seeds. Every executed fault emits a kFault trace event (plus
// the per-packet kLinkDown/kDropBurst events the faulted components record),
// so a chaos run is auditable from the trace alone.

#ifndef SRC_NETSIM_FAULT_H_
#define SRC_NETSIM_FAULT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/netsim/event_loop.h"
#include "src/netsim/network.h"

namespace natpunch {

class FaultScheduler {
 public:
  explicit FaultScheduler(Network* network) : network_(network) {}

  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  // Take `lan` down at `at`; bring it back after `downtime` (0 = stays down).
  void LinkDown(SimTime at, Lan* lan, SimDuration downtime);
  void LinkUp(SimTime at, Lan* lan);

  // Add `extra` one-way latency to `lan` during [at, at+duration). The
  // restore re-applies the latency captured when the spike started, so
  // non-overlapping spikes compose; overlapping spikes on one Lan restore to
  // the spiked value and are a plan-authoring error.
  void LatencySpike(SimTime at, Lan* lan, SimDuration extra, SimDuration duration);

  // Run `lan` under the Gilbert-Elliott parameters during [at, at+duration),
  // then restore the previous burst configuration.
  void BurstLoss(SimTime at, Lan* lan, const GilbertElliottConfig& params,
                 SimDuration duration);

  // Run `lan` under adversarial packet mangling (corruption, duplication,
  // reordering, truncation) during [at, at+duration), then restore the
  // previous mangle configuration. duration 0 = hostile until further notice.
  void Mangle(SimTime at, Lan* lan, const MangleConfig& params, SimDuration duration);

  // Execute an arbitrary fault action (NAT reboot via NatDevice::Reboot,
  // rendezvous server stop/start, mapping churn, ...). `label` names the
  // fault in the kFault trace event.
  void At(SimTime at, std::string label, std::function<void()> action);

  size_t faults_executed() const { return faults_executed_; }
  size_t faults_scheduled() const { return faults_scheduled_; }

 private:
  // One scripted fault. Its timer is intrusive, so a fault pending far in
  // the future holds no closure-ring slot and never pins the ring's window
  // open; destroying the scheduler cancels every fault still pending.
  struct Fault {
    FaultScheduler* scheduler = nullptr;
    std::string node;
    std::string label;
    std::function<void()> action;
    TimerHandle timer;

    void Fire() { scheduler->Execute(*this); }
  };

  void Execute(const Fault& fault);
  void Schedule(SimTime at, std::string node, std::string label, std::function<void()> action);

  Network* network_;
  size_t faults_executed_ = 0;
  size_t faults_scheduled_ = 0;
  std::deque<Fault> faults_;  // a deque never moves its entries: timers link by address
};

}  // namespace natpunch

#endif  // SRC_NETSIM_FAULT_H_
