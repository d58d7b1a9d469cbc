// Hierarchical timing wheel and due-run tests: exact dispatch order (the
// wheel is a staging tier in front of the due run, so dispatch must keep the
// strict (time, sequence) total order the golden traces depend on), slot
// rollover, far-future overflow parking, cancellation from every residence
// state, re-arms into flushed slots, cross-tier ties, Reset() reuse, and a
// randomized wheel-on vs wheel-off differential oracle. The scenario-level
// check at the bottom replays a full punch scenario with the wheel on and
// off and requires byte-identical Trace::Dump() output. Every slot, window
// and horizon size is derived from the loop's wheel geometry constants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/udp_puncher.h"
#include "src/netsim/event_loop.h"
#include "src/netsim/lan.h"
#include "src/netsim/network.h"
#include "src/netsim/node.h"
#include "src/rendezvous/client.h"
#include "src/rendezvous/server.h"
#include "src/scenario/scenario.h"
#include "src/util/flat_hash.h"

namespace natpunch {
namespace {

// One level-0 slot; one level-0 window (a whole level-0 wheel).
constexpr int64_t kSlotUs = int64_t{1} << EventLoop::kWheelGranularityBits;
constexpr int64_t kWindowUs = kSlotUs << EventLoop::kWheelSlotBits;
// Time covered by the whole level-`level` wheel: level 0 is one window,
// and each level above spans 64 times the one below.
constexpr int64_t LevelSpanUs(int level) {
  return kSlotUs << (EventLoop::kWheelSlotBits * (level + 1));
}
// Past this distance from the cursor a timer parks in the overflow list.
constexpr int64_t kOverflowHorizonUs = LevelSpanUs(EventLoop::kWheelLevels - 1);
static_assert(kOverflowHorizonUs > kWindowUs && kOverflowHorizonUs < (int64_t{1} << 50),
              "the derived horizons must fit comfortably in SimTime");

std::string Fired(int tag, int64_t at) {
  return "t" + std::to_string(tag) + "@" + std::to_string(at);
}

struct FireLog {
  EventLoop* loop = nullptr;
  std::vector<std::string>* log = nullptr;
  int tag = 0;
  TimerHandle handle;

  void Fire() {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "t%d@%lld", tag,
                  static_cast<long long>(loop->now().micros()));
    log->push_back(buf);
  }
};

TEST(TimerWheelTest, SlotRolloverKeepsExactOrderAcrossWindows) {
  EventLoop loop;
  std::vector<std::string> log;
  // Deadlines straddling several L0 windows and one L1 boundary, scheduled
  // out of deadline order so the wheel has to do the sorting.
  const int64_t deadlines[] = {3 * kWindowUs + 5,  kSlotUs / 2,       kWindowUs - 1,
                               kWindowUs,          kWindowUs + 1,     2 * kWindowUs + kSlotUs,
                               65 * kWindowUs + 7, 5 * kWindowUs + 3, kSlotUs * 63};
  std::vector<FireLog> timers(std::size(deadlines));
  for (size_t i = 0; i < timers.size(); ++i) {
    timers[i].loop = &loop;
    timers[i].log = &log;
    timers[i].tag = static_cast<int>(i);
    timers[i].handle.Bind<&FireLog::Fire>(&timers[i]);
    loop.ScheduleTimerAt(SimTime(deadlines[i]), &timers[i].handle);
  }
  loop.RunUntil(SimTime(70 * kWindowUs));
  // Expected: ascending deadline order (the deadlines are distinct).
  std::vector<int> order(std::size(deadlines));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return deadlines[a] < deadlines[b]; });
  std::vector<std::string> expected;
  for (const int i : order) {
    expected.push_back(Fired(i, deadlines[i]));
  }
  EXPECT_EQ(log, expected);
}

TEST(TimerWheelTest, SameDeadlineTieBreaksByScheduleOrderWithClosures) {
  for (const bool wheel : {true, false}) {
    EventLoop loop;
    loop.SetTimerWheelEnabled(wheel);
    std::vector<std::string> log;
    const int64_t when = 2 * kWindowUs + 17;
    FireLog t1{&loop, &log, 1, {}};
    FireLog t2{&loop, &log, 2, {}};
    t1.handle.Bind<&FireLog::Fire>(&t1);
    t2.handle.Bind<&FireLog::Fire>(&t2);
    loop.ScheduleAt(SimTime(when), [&] { log.push_back("c0"); });
    loop.ScheduleTimerAt(SimTime(when), &t1.handle);
    loop.ScheduleAt(SimTime(when), [&] { log.push_back("c1"); });
    loop.ScheduleTimerAt(SimTime(when), &t2.handle);
    loop.RunUntil(SimTime(3 * kWindowUs));
    ASSERT_EQ(log.size(), 4u) << "wheel=" << wheel;
    EXPECT_EQ(log[0], "c0");
    EXPECT_EQ(log[1], "t1@" + std::to_string(when));
    EXPECT_EQ(log[2], "c1");
    EXPECT_EQ(log[3], "t2@" + std::to_string(when));
  }
}

TEST(TimerWheelTest, FarFutureTimerParksInOverflowAndFiresExactly) {
  EventLoop loop;
  std::vector<std::string> log;
  FireLog farfut{&loop, &log, 9, {}};
  farfut.handle.Bind<&FireLog::Fire>(&farfut);
  // Past the level-3 horizon, so the handle parks in the overflow list and
  // must survive several rescans.
  const int64_t when = kOverflowHorizonUs + kOverflowHorizonUs / 3 + 12345;
  loop.ScheduleTimerAt(SimTime(when), &farfut.handle);
  EXPECT_EQ(loop.wheel_pending(), 1u);
  // Keep the loop busy along the way so the cursor actually travels.
  const int64_t hop_us = kOverflowHorizonUs / 50;
  std::function<void()> hop = [&] {
    if (loop.now().micros() + hop_us < when) {
      loop.ScheduleAfter(Micros(hop_us), hop);
    }
  };
  loop.ScheduleAfter(Micros(hop_us), hop);
  loop.RunUntil(SimTime(when + 1));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "t9@" + std::to_string(when));
}

TEST(TimerWheelTest, CancelWorksFromEveryResidence) {
  EventLoop loop;
  std::vector<std::string> log;
  // One timer per residence tier: level 0 (the due run after flush), level
  // 1+, and the overflow list.
  FireLog near{&loop, &log, 0, {}};
  FireLog mid{&loop, &log, 1, {}};
  FireLog far{&loop, &log, 2, {}};
  for (FireLog* t : {&near, &mid, &far}) {
    t->handle.Bind<&FireLog::Fire>(t);
  }
  loop.ScheduleTimerAt(SimTime(kSlotUs * 3), &near.handle);
  loop.ScheduleTimerAt(SimTime(kWindowUs * 7), &mid.handle);
  loop.ScheduleTimerAt(SimTime(2 * kOverflowHorizonUs), &far.handle);
  EXPECT_TRUE(near.handle.pending());
  EXPECT_TRUE(near.handle.Cancel());
  EXPECT_FALSE(near.handle.pending());
  EXPECT_FALSE(near.handle.Cancel());  // second cancel is a no-op
  EXPECT_TRUE(mid.handle.Cancel());
  EXPECT_TRUE(far.handle.Cancel());
  EXPECT_EQ(loop.wheel_pending(), 0u);
  loop.RunUntil(SimTime(kWindowUs * 10));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(TimerWheelTest, CancelDuringCascadeWindow) {
  // A timer cancelled by an earlier-firing timer in the *same* L0 window:
  // by then the victim has cascaded down to level 0, so this exercises
  // unlink after a cascade rather than the easy in-slot unlink.
  EventLoop loop;
  std::vector<std::string> log;
  FireLog victim{&loop, &log, 7, {}};
  victim.handle.Bind<&FireLog::Fire>(&victim);
  struct Killer {
    TimerHandle* target;
    TimerHandle handle;
    void Fire() { target->Cancel(); }
  } killer{&victim.handle, {}};
  killer.handle.Bind<&Killer::Fire>(&killer);
  // Same L1 slot (same window), killer a few slots earlier.
  loop.ScheduleTimerAt(SimTime(5 * kWindowUs + 2 * kSlotUs), &killer.handle);
  loop.ScheduleTimerAt(SimTime(5 * kWindowUs + 9 * kSlotUs), &victim.handle);
  loop.RunUntil(SimTime(6 * kWindowUs));
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(victim.handle.pending());
}

TEST(TimerWheelTest, RearmPendingHandleMovesDeadline) {
  EventLoop loop;
  std::vector<std::string> log;
  FireLog t{&loop, &log, 3, {}};
  t.handle.Bind<&FireLog::Fire>(&t);
  loop.ScheduleTimerAt(SimTime(4 * kWindowUs), &t.handle);
  // Pull it earlier, then push it later: only the final deadline fires.
  loop.ScheduleTimerAt(SimTime(kWindowUs), &t.handle);
  loop.ScheduleTimerAt(SimTime(2 * kWindowUs + 5), &t.handle);
  loop.RunUntil(SimTime(8 * kWindowUs));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "t3@" + std::to_string(2 * kWindowUs + 5));
}

TEST(TimerWheelTest, ResetIdlesWheelTimersAndHandlesAreReusable) {
  EventLoop loop;
  std::vector<std::string> log;
  std::vector<FireLog> timers(8);
  for (size_t i = 0; i < timers.size(); ++i) {
    timers[i].loop = &loop;
    timers[i].log = &log;
    timers[i].tag = static_cast<int>(i);
    timers[i].handle.Bind<&FireLog::Fire>(&timers[i]);
    loop.ScheduleTimerAt(SimTime(static_cast<int64_t>(i + 1) * kWindowUs), &timers[i].handle);
  }
  loop.RunUntil(SimTime(2 * kWindowUs + 1));  // fire the first two
  EXPECT_EQ(log.size(), 2u);
  loop.Reset();
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_EQ(loop.wheel_pending(), 0u);
  for (FireLog& t : timers) {
    EXPECT_FALSE(t.handle.pending());
  }
  // The same handles re-arm cleanly on the reset loop (time restarted at 0).
  log.clear();
  for (size_t i = 0; i < timers.size(); ++i) {
    loop.ScheduleTimerAt(SimTime(static_cast<int64_t>(i + 1) * kSlotUs), &timers[i].handle);
  }
  loop.RunUntil(SimTime(kWindowUs));
  EXPECT_EQ(log.size(), timers.size());
}

TEST(TimerWheelTest, DestructorCancelsPendingTimer) {
  EventLoop loop;
  std::vector<std::string> log;
  {
    FireLog doomed{&loop, &log, 4, {}};
    doomed.handle.Bind<&FireLog::Fire>(&doomed);
    loop.ScheduleTimerAt(SimTime(3 * kWindowUs), &doomed.handle);
  }  // handle destroyed while parked in the wheel
  loop.RunUntil(SimTime(5 * kWindowUs));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(loop.pending_count(), 0u);
}

// ---------------------------------------------------------------------------
// Due run: timers whose level-0 slot has been flushed. Each case puts its
// timers in one slot (the slot starting at `kDueSlot`), so the first
// dispatch in that slot has flushed all of them and wheel_pending() reads 0.
// ---------------------------------------------------------------------------

constexpr int64_t kDueSlot = 3 * kWindowUs + 5 * kSlotUs;
static_assert(kSlotUs > 100, "the due-run cases need room inside one slot");

TEST(TimerDueRunTest, CancellingADueTimerSkipsIt) {
  for (const bool wheel : {true, false}) {
    EventLoop loop;
    loop.SetTimerWheelEnabled(wheel);
    std::vector<std::string> log;
    FireLog a{&loop, &log, 1, {}};
    FireLog b{&loop, &log, 2, {}};
    FireLog c{&loop, &log, 3, {}};
    for (FireLog* t : {&a, &b, &c}) {
      t->handle.Bind<&FireLog::Fire>(t);
    }
    loop.ScheduleTimerAt(SimTime(kDueSlot + 10), &a.handle);
    loop.ScheduleTimerAt(SimTime(kDueSlot + 20), &b.handle);
    loop.ScheduleTimerAt(SimTime(kDueSlot + 30), &c.handle);
    size_t wheel_at_cancel = 99;
    loop.ScheduleAt(SimTime(kDueSlot + 15), [&] {
      wheel_at_cancel = loop.wheel_pending();
      EXPECT_TRUE(b.handle.Cancel());  // b is due, behind c and ahead of a
      EXPECT_FALSE(b.handle.pending());
    });
    loop.RunUntil(SimTime(kDueSlot + kSlotUs));
    EXPECT_EQ(wheel_at_cancel, 0u) << "wheel=" << wheel;
    EXPECT_EQ(log, (std::vector<std::string>{Fired(1, kDueSlot + 10), Fired(3, kDueSlot + 30)}))
        << "wheel=" << wheel;
    EXPECT_EQ(loop.pending_count(), 0u);
  }
}

// Re-arms itself `remaining` times, 1 us apart: every re-arm lands in the
// slot being dispatched, which has already been flushed.
struct SelfRearm {
  EventLoop* loop = nullptr;
  std::vector<std::string>* log = nullptr;
  int remaining = 0;
  TimerHandle handle;

  void Fire() {
    log->push_back(Fired(0, loop->now().micros()));
    if (remaining-- > 0) {
      loop->ScheduleTimerAfter(Micros(1), &handle);
    }
  }
};

TEST(TimerDueRunTest, RearmFromOwnCallbackIntoFlushedSlot) {
  for (const bool wheel : {true, false}) {
    EventLoop loop;
    loop.SetTimerWheelEnabled(wheel);
    std::vector<std::string> log;
    SelfRearm self{&loop, &log, 3, {}};
    self.handle.Bind<&SelfRearm::Fire>(&self);
    FireLog other{&loop, &log, 1, {}};
    other.handle.Bind<&FireLog::Fire>(&other);
    loop.ScheduleTimerAt(SimTime(kDueSlot), &self.handle);
    // Armed before self's re-arm for the same instant, so it fires first.
    loop.ScheduleTimerAt(SimTime(kDueSlot + 2), &other.handle);
    loop.RunUntil(SimTime(kDueSlot + kSlotUs));
    EXPECT_EQ(log, (std::vector<std::string>{Fired(0, kDueSlot), Fired(0, kDueSlot + 1),
                                             Fired(1, kDueSlot + 2), Fired(0, kDueSlot + 2),
                                             Fired(0, kDueSlot + 3)}))
        << "wheel=" << wheel;
    EXPECT_FALSE(self.handle.pending());
    EXPECT_EQ(loop.pending_count(), 0u);
  }
}

// Records a delivered packet's id as "p<id>@<time>".
class LogSink : public Node {
 public:
  LogSink(Network* net, std::string name, std::vector<std::string>* log)
      : Node(net, std::move(name)), log_(log) {}
  void HandlePacket(int iface, Packet&& packet) override {
    (void)iface;
    log_->push_back("p" + std::to_string(packet.id) + "@" +
                    std::to_string(network()->now().micros()));
  }

 private:
  std::vector<std::string>* log_;
};

TEST(TimerDueRunTest, SameInstantTiesAcrossTimerClosureAndLanDelivery) {
  // At one instant: a timer and a closure scheduled long before, then a LAN
  // delivery whose id is reserved at transmit time, then a timer and a
  // closure scheduled after that transmit. They must fire in exactly that
  // (schedule) order whichever tier holds each.
  for (const bool wheel : {true, false}) {
    Network net(1);
    EventLoop& loop = net.event_loop();
    loop.SetTimerWheelEnabled(wheel);
    std::vector<std::string> log;
    Lan* lan = net.CreateLan("lan", LanConfig{.latency = Micros(40)});
    auto* a = net.Create<LogSink>("a", &log);
    auto* b = net.Create<LogSink>("b", &log);
    a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
    b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
    const int64_t when = kDueSlot + 50;
    FireLog early{&loop, &log, 1, {}};
    FireLog late{&loop, &log, 2, {}};
    early.handle.Bind<&FireLog::Fire>(&early);
    late.handle.Bind<&FireLog::Fire>(&late);
    loop.ScheduleTimerAt(SimTime(when), &early.handle);
    loop.ScheduleAt(SimTime(when), [&] { log.push_back("c1"); });
    loop.ScheduleAt(SimTime(when - 40), [&] {
      Packet p;
      p.id = 7;
      p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
      lan->Transmit(a, p.dst_ip, std::move(p));
      loop.ScheduleTimerAt(SimTime(when), &late.handle);
      loop.ScheduleAt(SimTime(when), [&] { log.push_back("c2"); });
    });
    net.RunFor(Micros(when + 1));
    EXPECT_EQ(log, (std::vector<std::string>{Fired(1, when), "c1", "p7@" + std::to_string(when),
                                             Fired(2, when), "c2"}))
        << "wheel=" << wheel;
  }
}

TEST(TimerDueRunTest, ResetWhileTimersAreDue) {
  EventLoop loop;
  std::vector<std::string> log;
  std::vector<FireLog> timers(4);
  for (size_t i = 0; i < timers.size(); ++i) {
    timers[i].loop = &loop;
    timers[i].log = &log;
    timers[i].tag = static_cast<int>(i);
    timers[i].handle.Bind<&FireLog::Fire>(&timers[i]);
    loop.ScheduleTimerAt(SimTime(kDueSlot + 10 * static_cast<int64_t>(i + 1)), &timers[i].handle);
  }
  loop.RunUntil(SimTime(kDueSlot + 15));  // fires timer 0; 1..3 stay due
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(loop.wheel_pending(), 0u);
  EXPECT_EQ(loop.pending_count(), 3u);
  loop.Reset();
  EXPECT_EQ(loop.pending_count(), 0u);
  for (FireLog& t : timers) {
    EXPECT_FALSE(t.handle.pending());
    EXPECT_FALSE(t.handle.Cancel());
  }
  // Nothing left over fires, and the handles re-arm on the reset loop.
  log.clear();
  loop.ScheduleTimerAt(SimTime(kSlotUs / 2), &timers[3].handle);
  loop.RunUntil(SimTime(kDueSlot + kSlotUs));
  EXPECT_EQ(log, (std::vector<std::string>{Fired(3, kSlotUs / 2)}));
}

TEST(TimerDueRunTest, HandleDestroyedWhileDue) {
  for (const bool wheel : {true, false}) {
    EventLoop loop;
    loop.SetTimerWheelEnabled(wheel);
    std::vector<std::string> log;
    FireLog first{&loop, &log, 1, {}};
    FireLog last{&loop, &log, 3, {}};
    first.handle.Bind<&FireLog::Fire>(&first);
    last.handle.Bind<&FireLog::Fire>(&last);
    auto doomed = std::make_unique<FireLog>();
    doomed->loop = &loop;
    doomed->log = &log;
    doomed->tag = 2;
    doomed->handle.Bind<&FireLog::Fire>(doomed.get());
    loop.ScheduleTimerAt(SimTime(kDueSlot + 10), &first.handle);
    loop.ScheduleTimerAt(SimTime(kDueSlot + 20), &doomed->handle);
    loop.ScheduleTimerAt(SimTime(kDueSlot + 30), &last.handle);
    loop.RunUntil(SimTime(kDueSlot + 15));
    EXPECT_EQ(loop.wheel_pending(), 0u);
    EXPECT_EQ(loop.pending_count(), 2u);
    doomed.reset();  // its due entry must never be dispatched
    EXPECT_EQ(loop.pending_count(), 1u);
    loop.RunUntil(SimTime(kDueSlot + kSlotUs));
    EXPECT_EQ(log, (std::vector<std::string>{Fired(1, kDueSlot + 10), Fired(3, kDueSlot + 30)}))
        << "wheel=" << wheel;
    EXPECT_TRUE(loop.idle());
  }
}

// ---------------------------------------------------------------------------
// Randomized differential oracle: wheel on vs wheel off (pure due run) must
// produce identical dispatch sequences under schedule/cancel/re-arm churn.
// ---------------------------------------------------------------------------

struct DiffTimer {
  EventLoop* loop;
  std::vector<std::string>* log;
  int tag;
  TimerHandle handle;
  uint64_t rng;
  int64_t horizon;
  int64_t max_step;

  void Fire() {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "t%d@%lld", tag,
                  static_cast<long long>(loop->now().micros()));
    log->push_back(buf);
    rng = HashMix64(rng + 1);
    const int64_t step = 1 + static_cast<int64_t>(rng % static_cast<uint64_t>(max_step));
    if (loop->now().micros() + step < horizon) {
      loop->ScheduleTimerAfter(Micros(step), &handle);
    }
  }
};

std::vector<std::string> DifferentialRun(bool wheel, uint64_t seed, int n_timers,
                                         int64_t horizon, int64_t max_step) {
  EventLoop loop;
  loop.SetTimerWheelEnabled(wheel);
  std::vector<std::string> log;
  std::vector<DiffTimer> recs(n_timers);
  uint64_t rng = seed;
  for (int i = 0; i < n_timers; ++i) {
    recs[i].loop = &loop;
    recs[i].log = &log;
    recs[i].tag = i;
    recs[i].rng = HashMix64(seed * 1000 + static_cast<uint64_t>(i));
    recs[i].horizon = horizon;
    recs[i].max_step = max_step;
    recs[i].handle.Bind<&DiffTimer::Fire>(&recs[i]);
    rng = HashMix64(rng);
    loop.ScheduleTimerAfter(Micros(1 + rng % static_cast<uint64_t>(max_step)),
                            &recs[i].handle);
  }
  // Interleave closure events that cancel or re-arm random victims, so the
  // oracle also covers mixed closure/timer tie-breaking.
  for (int k = 0; k < 120; ++k) {
    rng = HashMix64(rng);
    const int64_t when = static_cast<int64_t>(rng % static_cast<uint64_t>(horizon));
    const int victim = static_cast<int>(HashMix64(rng) % static_cast<uint64_t>(n_timers));
    loop.ScheduleAt(SimTime(when), [&loop, &log, &recs, victim, when] {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "c%d@%lld", victim, static_cast<long long>(when));
      log.push_back(buf);
      if (victim % 3 == 0) {
        recs[victim].handle.Cancel();
      } else if (victim % 3 == 1) {
        loop.ScheduleTimerAfter(Micros(1 + victim * 12345), &recs[victim].handle);
      }
    });
  }
  loop.RunUntil(SimTime(horizon));
  return log;
}

TEST(TimerWheelDifferentialTest, MatchesHeapOnlyOrderAcrossAllLevels) {
  struct Config {
    int n_timers;
    int64_t horizon;
    int64_t max_step;
  };
  // Short/dense exercises level-0/1 windows; medium crosses level-2/3
  // boundaries; long/sparse arms steps past the level-3 horizon, so timers
  // park in the overflow list and are rescanned across several level-3
  // windows.
  const Config configs[] = {
      {24, 2 * LevelSpanUs(1), 7 * LevelSpanUs(0)},
      {16, 2 * LevelSpanUs(2), 8 * LevelSpanUs(1)},
      {8, 4 * LevelSpanUs(3), LevelSpanUs(3) + LevelSpanUs(3) / 2},
  };
  for (const Config& cfg : configs) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      const auto with_wheel =
          DifferentialRun(true, seed, cfg.n_timers, cfg.horizon, cfg.max_step);
      const auto heap_only =
          DifferentialRun(false, seed, cfg.n_timers, cfg.horizon, cfg.max_step);
      ASSERT_EQ(with_wheel, heap_only)
          << "dispatch order diverged: seed=" << seed << " horizon=" << cfg.horizon;
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario-level oracle: a full punch + keepalive + expiry scenario must
// trace byte-identically whether timers stage through the wheel or go
// straight to the heap.
// ---------------------------------------------------------------------------

std::string PunchScenarioTrace(bool wheel_enabled) {
  Scenario::Options options;
  options.seed = 77;
  auto topo = MakeFig5(NatConfig{}, NatConfig{}, options);
  Network& net = topo.scenario->net();
  net.event_loop().SetTimerWheelEnabled(wheel_enabled);
  net.trace().set_enabled(true);

  RendezvousServer server(topo.server, 3478);
  if (!server.Start().ok()) {
    return "server start failed";
  }
  UdpRendezvousClient ca(topo.a, server.endpoint(), 1);
  UdpRendezvousClient cb(topo.b, server.endpoint(), 2);
  ca.Register(4321, [](Result<Endpoint>) {});
  cb.Register(4321, [](Result<Endpoint>) {});
  UdpPunchConfig punch_config;
  punch_config.keepalive_interval = Seconds(3);
  punch_config.session_expiry = Seconds(10);
  UdpHolePuncher pa(&ca, punch_config);
  UdpHolePuncher pb(&cb, punch_config);
  UdpP2pSession* incoming = nullptr;
  pb.SetIncomingSessionCallback([&](UdpP2pSession* s) { incoming = s; });
  net.RunFor(Seconds(2));
  UdpP2pSession* session = nullptr;
  pa.ConnectToPeer(2, [&](Result<UdpP2pSession*> r) { session = r.ok() ? *r : nullptr; });
  net.RunFor(Seconds(10));
  if (session == nullptr) {
    return "punch failed";
  }
  // Keepalive-sustained quiet period, a data burst, then silence long
  // enough for the responder's expiry watchdog to run its course.
  net.RunFor(Seconds(20));
  for (int i = 0; i < 5; ++i) {
    session->Send(Bytes{static_cast<uint8_t>(i)});
    net.RunFor(Millis(250));
  }
  session->Close();
  net.RunFor(Seconds(25));
  return net.trace().Dump();
}

TEST(TimerWheelDifferentialTest, PunchScenarioTraceByteIdentical) {
  const std::string with_wheel = PunchScenarioTrace(true);
  const std::string heap_only = PunchScenarioTrace(false);
  ASSERT_GT(with_wheel.size(), 1000u);  // the scenario really ran
  EXPECT_EQ(with_wheel, heap_only);
}

TEST(TimerWheelTest, LoopMetricsCountWheelAndDueAdmissions) {
  Network net(1);
  obs::MetricsRegistry* reg = net.EnableMetrics();
  EventLoop& loop = net.event_loop();
  std::vector<std::string> log;
  FireLog near{&loop, &log, 0, {}};
  FireLog far{&loop, &log, 1, {}};
  near.handle.Bind<&FireLog::Fire>(&near);
  far.handle.Bind<&FireLog::Fire>(&far);
  const obs::Counter* wheel_ct = reg->FindCounter("loop.timers_wheel");
  const obs::Counter* due_ct = reg->FindCounter("loop.timers_due");
  const obs::Counter* cascades = reg->FindCounter("loop.wheel_cascades");
  ASSERT_NE(wheel_ct, nullptr);
  ASSERT_NE(due_ct, nullptr);
  ASSERT_NE(cascades, nullptr);
  loop.ScheduleTimerAt(SimTime(5 * kWindowUs), &near.handle);  // wheel path
  EXPECT_EQ(wheel_ct->value(), 1u);
  loop.SetTimerWheelEnabled(false);
  loop.ScheduleTimerAt(SimTime(6 * kWindowUs), &far.handle);  // forced due-run path
  EXPECT_EQ(due_ct->value(), 1u);
  loop.SetTimerWheelEnabled(true);
  loop.RunUntil(SimTime(7 * kWindowUs));
  EXPECT_EQ(log.size(), 2u);
}

}  // namespace
}  // namespace natpunch
