// Unit tests for src/netsim: virtual time, event loop determinism,
// addressing, LAN delivery, routing, loss, and trace capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/netsim/address.h"
#include "src/netsim/event_loop.h"
#include "src/netsim/network.h"
#include "src/netsim/packet.h"
#include "src/netsim/payload.h"
#include "src/obs/metrics.h"

namespace natpunch {
namespace {

TEST(SimTimeTest, Arithmetic) {
  SimTime t0;
  SimTime t1 = t0 + Millis(5);
  EXPECT_EQ((t1 - t0).micros(), 5000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((Seconds(2) + Millis(500)).micros(), 2'500'000);
  EXPECT_EQ((Seconds(1) / 4).millis(), 250);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(Seconds(3).ToString(), "3s");
  EXPECT_EQ(Millis(250).ToString(), "250ms");
  EXPECT_EQ(Micros(7).ToString(), "7us");
}

TEST(EventLoopTest, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(SimTime(300), [&] { order.push_back(3); });
  loop.ScheduleAt(SimTime(100), [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime(200), [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().micros(), 300);
}

TEST(EventLoopTest, SameTimeFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(SimTime(50), [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  auto id = loop.ScheduleAfter(Millis(1), [&] { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // second cancel is a no-op
  loop.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, RunUntilAdvancesClockPastLastEvent) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(SimTime(100), [&] { ++count; });
  loop.ScheduleAt(SimTime(900), [&] { ++count; });
  loop.RunUntil(SimTime(500));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now().micros(), 500);
  loop.RunUntil(SimTime(1000));
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      loop.ScheduleAfter(Millis(1), recurse);
    }
  };
  loop.ScheduleAfter(Millis(1), recurse);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now().micros(), 5000);
}

TEST(EventLoopTest, RunUntilIdleHonorsCap) {
  EventLoop loop;
  std::function<void()> forever = [&] { loop.ScheduleAfter(Micros(1), forever); };
  loop.ScheduleAfter(Micros(1), forever);
  EXPECT_EQ(loop.RunUntilIdle(100), 100u);
}

TEST(EventLoopTest, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.ScheduleAt(SimTime(10), [&] { ++fired; });
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(loop.Cancel(id));  // already fired
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, CancelFromInsideCallback) {
  EventLoop loop;
  bool second_fired = false;
  EventLoop::EventId second = EventLoop::kInvalidEventId;
  second = loop.ScheduleAt(SimTime(20), [&] { second_fired = true; });
  loop.ScheduleAt(SimTime(10), [&] { EXPECT_TRUE(loop.Cancel(second)); });
  loop.RunUntilIdle();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoopTest, CancelSameInstantSiblingPreservesOrder) {
  EventLoop loop;
  std::vector<int> order;
  EventLoop::EventId doomed = EventLoop::kInvalidEventId;
  loop.ScheduleAt(SimTime(50), [&] { order.push_back(0); });
  doomed = loop.ScheduleAt(SimTime(50), [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime(50), [&] { order.push_back(2); });
  EXPECT_TRUE(loop.Cancel(doomed));
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventLoopTest, PendingCountTracksCancellation) {
  EventLoop loop;
  const auto a = loop.ScheduleAt(SimTime(10), [] {});
  const auto b = loop.ScheduleAt(SimTime(20), [] {});
  EXPECT_EQ(loop.pending_count(), 2u);
  EXPECT_FALSE(loop.idle());
  EXPECT_TRUE(loop.Cancel(a));
  EXPECT_EQ(loop.pending_count(), 1u);
  EXPECT_TRUE(loop.Cancel(b));
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_TRUE(loop.idle());
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoopTest, SchedulingInThePastClampsToNow) {
  EventLoop loop;
  loop.ScheduleAt(SimTime(100), [] {});
  loop.RunUntilIdle();
  EXPECT_EQ(loop.now().micros(), 100);
  int64_t fired_at = -1;
  loop.ScheduleAt(SimTime(5), [&] { fired_at = loop.now().micros(); });
  loop.RunUntilIdle();
  EXPECT_EQ(fired_at, 100);
}

// Reference model with the original std::map<(time, seq)> semantics; the
// heap-based EventLoop must agree with it on every observable: Cancel()
// return values, firing order, event payload identity, and clock position.
class ModelLoop {
 public:
  uint64_t Schedule(int64_t at, int payload) {
    const int64_t t = std::max(at, now_);
    const uint64_t id = next_id_++;
    queue_.emplace(std::make_pair(t, id), payload);
    return id;
  }
  bool Cancel(uint64_t id) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->first.second == id) {
        queue_.erase(it);
        return true;
      }
    }
    return false;
  }
  bool RunOne(std::vector<int>* fired) {
    if (queue_.empty()) {
      return false;
    }
    auto it = queue_.begin();
    now_ = it->first.first;
    fired->push_back(it->second);
    queue_.erase(it);
    return true;
  }
  int64_t now() const { return now_; }
  size_t pending() const { return queue_.size(); }

 private:
  int64_t now_ = 0;
  uint64_t next_id_ = 1;
  std::map<std::pair<int64_t, uint64_t>, int> queue_;
};

// Hammer schedule/cancel/run interleavings against the reference model.
// Deterministic LCG so failures replay exactly.
TEST(EventLoopTest, RandomizedAgainstMapModel) {
  EventLoop loop;
  ModelLoop model;
  std::vector<int> loop_fired;
  std::vector<int> model_fired;
  std::vector<std::pair<EventLoop::EventId, uint64_t>> ids;  // (loop id, model id)
  uint64_t rng = 12345;
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  int payload = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = next(10);
    if (op < 5) {
      // Schedule at a time near now (sometimes in the past → clamps).
      const int64_t at = loop.now().micros() + static_cast<int64_t>(next(40)) - 5;
      const int p = payload++;
      const auto lid = loop.ScheduleAt(SimTime(at), [&loop_fired, p] { loop_fired.push_back(p); });
      const auto mid = model.Schedule(at, p);
      ids.emplace_back(lid, mid);
    } else if (op < 8) {
      EXPECT_EQ(loop.RunOne(), model.RunOne(&model_fired));
      EXPECT_EQ(loop.now().micros(), model.now());
    } else {
      // Cancel a random id from the history — pending, fired, or already
      // cancelled; the two implementations must agree on the return value.
      if (!ids.empty()) {
        const auto& [lid, mid] = ids[next(ids.size())];
        EXPECT_EQ(loop.Cancel(lid), model.Cancel(mid));
      }
    }
    ASSERT_EQ(loop.pending_count(), model.pending()) << "diverged at step " << step;
  }
  while (model.RunOne(&model_fired)) {
    EXPECT_TRUE(loop.RunOne());
  }
  EXPECT_FALSE(loop.RunOne());
  EXPECT_EQ(loop_fired, model_fired);
  EXPECT_EQ(loop.now().micros(), model.now());
}

TEST(AddressTest, ParseAndFormat) {
  auto a = Ipv4Address::Parse("155.99.25.11");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ToString(), "155.99.25.11");
  EXPECT_EQ(*a, Ipv4Address::FromOctets(155, 99, 25, 11));
}

TEST(AddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1..2.3").has_value());
}

TEST(AddressTest, PrivateRanges) {
  EXPECT_TRUE(Ipv4Address::FromOctets(10, 0, 0, 1).IsPrivate());
  EXPECT_TRUE(Ipv4Address::FromOctets(172, 16, 0, 1).IsPrivate());
  EXPECT_TRUE(Ipv4Address::FromOctets(172, 31, 255, 255).IsPrivate());
  EXPECT_TRUE(Ipv4Address::FromOctets(192, 168, 1, 1).IsPrivate());
  EXPECT_FALSE(Ipv4Address::FromOctets(172, 32, 0, 1).IsPrivate());
  EXPECT_FALSE(Ipv4Address::FromOctets(18, 181, 0, 31).IsPrivate());
  EXPECT_FALSE(Ipv4Address::FromOctets(155, 99, 25, 11).IsPrivate());
}

TEST(AddressTest, ComplementIsInvolution) {
  const Ipv4Address a = Ipv4Address::FromOctets(10, 1, 1, 3);
  EXPECT_NE(a, a.Complement());
  EXPECT_EQ(a, a.Complement().Complement());
}

TEST(EndpointTest, ParseAndFormat) {
  auto e = Endpoint::Parse("138.76.29.7:31000");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ToString(), "138.76.29.7:31000");
  EXPECT_EQ(e->port, 31000);
  EXPECT_FALSE(Endpoint::Parse("1.2.3.4").has_value());
  EXPECT_FALSE(Endpoint::Parse("1.2.3.4:99999").has_value());
  EXPECT_FALSE(Endpoint::Parse("1.2.3.4:").has_value());
}

TEST(PrefixTest, Contains) {
  auto p = Ipv4Prefix::Parse("10.0.0.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Contains(Ipv4Address::FromOctets(10, 0, 0, 200)));
  EXPECT_FALSE(p->Contains(Ipv4Address::FromOctets(10, 0, 1, 1)));
  auto all = Ipv4Prefix::Parse("0.0.0.0/0");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->Contains(Ipv4Address::FromOctets(255, 255, 255, 255)));
}

TEST(PacketTest, WireSizeAccountsHeaders) {
  Packet udp;
  udp.protocol = IpProtocol::kUdp;
  udp.payload = Bytes(100);
  EXPECT_EQ(udp.WireSize(), 20u + 8u + 100u);
  Packet tcp;
  tcp.protocol = IpProtocol::kTcp;
  EXPECT_EQ(tcp.WireSize(), 40u);
}

TEST(PacketTest, SummaryShowsFlags) {
  Packet p;
  p.protocol = IpProtocol::kTcp;
  p.tcp.syn = true;
  p.tcp.ack = true;
  p.set_src(Endpoint(Ipv4Address::FromOctets(1, 2, 3, 4), 10));
  p.set_dst(Endpoint(Ipv4Address::FromOctets(5, 6, 7, 8), 20));
  const std::string s = p.Summary();
  EXPECT_NE(s.find("SYN,ACK"), std::string::npos);
  EXPECT_NE(s.find("1.2.3.4:10"), std::string::npos);
}

// A trivial sink node recording what it receives.
class SinkNode : public Node {
 public:
  SinkNode(Network* net, std::string name) : Node(net, std::move(name)) {}
  void HandlePacket(int iface, Packet&& packet) override {
    (void)iface;
    received.push_back(std::move(packet));
  }
  std::vector<Packet> received;
};

TEST(LanTest, DeliversToOwnerWithLatency) {
  Network net(1);
  Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(5)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));

  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
  ASSERT_TRUE(a->SendPacket(std::move(p)));
  net.RunFor(Millis(4));
  EXPECT_TRUE(b->received.empty());
  net.RunFor(Millis(2));
  ASSERT_EQ(b->received.size(), 1u);
  // Source filled in from the egress interface.
  EXPECT_EQ(b->received[0].src_ip, Ipv4Address::FromOctets(10, 0, 0, 1));
}

TEST(LanTest, NoRouteDropRecorded) {
  Network net(1);
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("lan", LanConfig{});
  auto* a = net.Create<SinkNode>("a");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(99, 0, 0, 1), 9));
  EXPECT_FALSE(a->SendPacket(std::move(p)));  // off-subnet, no default route
  EXPECT_EQ(net.trace().Count(TraceEvent::kDropNoRoute), 1u);
}

TEST(LanTest, MissingNextHopDropRecorded) {
  Network net(1);
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("lan", LanConfig{});
  auto* a = net.Create<SinkNode>("a");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 99), 9));  // on-subnet, absent
  EXPECT_TRUE(a->SendPacket(std::move(p)));
  net.RunUntilIdle();
  EXPECT_EQ(net.trace().Count(TraceEvent::kDropNoNextHop), 1u);
}

TEST(LanTest, PrivateLeakOnGlobalRealm) {
  Network net(1);
  net.trace().set_enabled(true);
  Lan* internet = net.CreateLan("internet", LanConfig{.is_global = true});
  auto* a = net.Create<SinkNode>("a");
  const int iface = a->AttachTo(internet, Ipv4Address::FromOctets(18, 0, 0, 1), 8);
  a->AddRoute(Ipv4Prefix(Ipv4Address(0), 0), iface);
  Packet p;
  p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 1, 1, 3), 9));
  EXPECT_TRUE(a->SendPacket(std::move(p)));
  net.RunUntilIdle();
  EXPECT_EQ(net.trace().Count(TraceEvent::kDropPrivateLeak), 1u);
}

TEST(LanTest, LossDropsDeterministically) {
  Network net(42);
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("lossy", LanConfig{.loss = 0.5});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    a->SendPacket(std::move(p));
  }
  net.RunUntilIdle();
  const size_t delivered = b->received.size();
  EXPECT_GT(delivered, 60u);
  EXPECT_LT(delivered, 140u);
  EXPECT_EQ(delivered + net.trace().Count(TraceEvent::kDropLoss), 200u);
}

TEST(LanTest, BandwidthSerializesPackets) {
  Network net(1);
  // 1 Mbit/s, negligible propagation: a 1028-byte packet (1000 payload +
  // 28 headers) takes ~8.2 ms on the wire, so 10 back-to-back packets
  // arrive spread over ~82 ms instead of simultaneously.
  Lan* lan = net.CreateLan("slow", LanConfig{.latency = Micros(1), .bandwidth_bps = 1e6});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.protocol = IpProtocol::kUdp;
    p.payload = Bytes(1000);
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    a->SendPacket(std::move(p));
  }
  net.RunFor(Millis(50));
  EXPECT_LT(b->received.size(), 10u);  // still serializing
  net.RunFor(Millis(50));
  EXPECT_EQ(b->received.size(), 10u);
  EXPECT_GT(net.now().micros(), 80'000);
}

TEST(LanTest, InfiniteBandwidthDeliversConcurrently) {
  Network net(1);
  Lan* lan = net.CreateLan("fast", LanConfig{.latency = Millis(1)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.payload = Bytes(1000);
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    a->SendPacket(std::move(p));
  }
  net.RunFor(Millis(1));
  EXPECT_EQ(b->received.size(), 10u);  // all arrive after one latency
}

// One fired event: its schedule order and the clock when it ran.
struct Fired {
  uint64_t order;
  int64_t time;
};

// Logs every delivery by the schedule order its transmit was given (the
// packet id carries it). A duplicated packet holds two orders, id and id+1,
// the copy's first; the copy is never due after the original, so it arrives
// first. `dups` maps a duplicated id to the number of its copies delivered.
class OrderSink : public Node {
 public:
  OrderSink(Network* net, std::string name, std::vector<Fired>* log,
            std::map<uint64_t, int>* dups)
      : Node(net, std::move(name)), net_(net), log_(log), dups_(dups) {}
  void HandlePacket(int iface, Packet&& packet) override {
    (void)iface;
    uint64_t order = packet.id;
    if (const auto it = dups_->find(packet.id); it != dups_->end()) {
      order += static_cast<uint64_t>(it->second++);
      if (it->second == 2) {
        dups_->erase(it);
      }
    }
    log_->push_back(Fired{order, net_->now().micros()});
  }

 private:
  Network* net_;
  std::vector<Fired>* log_;
  std::map<uint64_t, int>* dups_;
};

struct TimerBox {
  TimerHandle handle;
  uint64_t order = 0;
  std::vector<Fired>* log = nullptr;
  EventLoop* loop = nullptr;
  void Fire() { log->push_back(Fired{order, loop->now().micros()}); }
};

// The Lan twin of RandomizedAgainstMapModel: seeded transmits over three
// Lans (jitter; MangleConfig reorder + duplicate; latency changes, drops
// included, mid-run) interleaved with closures and timers due at the same
// instants, closure cancels, and runs. Every event takes a schedule order
// from one counter, in the order the loop issues sequence numbers. Each
// event must fire inside its delivery-time bounds (exact except under
// jitter), pending_count() must match the model at every step, and the
// fired sequence must equal a std::map keyed by (delivery time, schedule
// order).
TEST(LanTest, RandomizedDeliveriesAgainstMapModel) {
  Network net(20050410);
  net.trace().set_enabled(true);  // reorder holds and duplicates are read back from the trace
  EventLoop& loop = net.event_loop();
  LanConfig hostile{.latency = Millis(2)};
  hostile.mangle.duplicate = 0.2;
  hostile.mangle.reorder = 0.3;
  hostile.mangle.reorder_hold = Micros(600);
  Lan* lans[3] = {
      net.CreateLan("jitter", LanConfig{.latency = Millis(3), .jitter = Micros(40)}),
      net.CreateLan("hostile", hostile),
      net.CreateLan("plain", LanConfig{.latency = Millis(4)}),
  };
  std::vector<Fired> fired;
  std::map<uint64_t, int> dups;
  Node* senders[3] = {};
  Ipv4Address sinks[3] = {};
  for (int i = 0; i < 3; ++i) {
    senders[i] = net.Create<SinkNode>("tx" + std::to_string(i));
    senders[i]->AttachTo(lans[i], Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(i), 1));
    sinks[i] = Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(i), 2);
    net.Create<OrderSink>("rx" + std::to_string(i), &fired, &dups)->AttachTo(lans[i], sinks[i]);
  }
  TimerBox timers[6];
  for (TimerBox& t : timers) {
    t.handle.Bind<&TimerBox::Fire>(&t);
    t.log = &fired;
    t.loop = &loop;
  }

  struct Bounds {
    int64_t lo;
    int64_t hi;
  };
  std::map<uint64_t, Bounds> pending;  // by schedule order
  std::map<uint64_t, Bounds> all;
  std::vector<std::pair<EventLoop::EventId, uint64_t>> closures;  // (loop id, order)
  uint64_t next_order = 1;
  const auto expect = [&](uint64_t order, int64_t lo, int64_t hi) {
    pending[order] = Bounds{lo, hi};
    all[order] = Bounds{lo, hi};
  };
  uint64_t rng = 99;
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  const SimDuration latencies[] = {Micros(500), Millis(1), Millis(3), Millis(6)};
  // A time that ties with deliveries already in flight on some Lan.
  const auto tie_time = [&] {
    return loop.now().micros() + lans[next(3)]->config().latency.micros() +
           static_cast<int64_t>(next(3));
  };

  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = next(20);
    if (op < 7) {
      const int i = static_cast<int>(next(3));
      const LanConfig& cfg = lans[i]->config();
      const size_t records_before = net.trace().records().size();
      Packet p;
      p.set_dst(Endpoint(sinks[i], 9));
      const uint64_t order = next_order;
      p.id = order;
      const int64_t now = loop.now().micros();
      const int64_t at = now + cfg.latency.micros();
      lans[i]->Transmit(senders[i], sinks[i], std::move(p));
      bool duplicated = false;
      int64_t hold = 0;
      for (size_t r = records_before; r < net.trace().records().size(); ++r) {
        const TraceRecord& rec = net.trace().records()[r];
        if (rec.event == TraceEvent::kDuplicate) {
          duplicated = true;
        } else if (rec.event == TraceEvent::kReorder) {
          hold = std::stoll(std::string(rec.detail.view().substr(std::strlen("hold_us="))));
        }
      }
      if (duplicated) {
        expect(next_order++, at, at + cfg.jitter.micros());
        dups[order] = 0;
      }
      expect(next_order++, at + hold, at + hold + cfg.jitter.micros());
    } else if (op < 10) {
      const int64_t at = tie_time();
      const uint64_t order = next_order++;
      const auto id = loop.ScheduleAt(SimTime(at), [&fired, &loop, order] {
        fired.push_back(Fired{order, loop.now().micros()});
      });
      closures.emplace_back(id, order);
      expect(order, at, at);
    } else if (op < 12) {
      TimerBox& t = timers[next(6)];
      if (t.handle.pending()) {
        pending.erase(t.order);
        all.erase(t.order);
      }
      const int64_t at = tie_time();
      t.order = next_order++;
      loop.ScheduleTimerAt(SimTime(at), &t.handle);
      expect(t.order, at, at);
    } else if (op < 13) {
      if (!closures.empty()) {
        const auto& [id, order] = closures[next(closures.size())];
        const bool was_pending = pending.count(order) != 0;
        EXPECT_EQ(loop.Cancel(id), was_pending);
        if (was_pending) {
          pending.erase(order);
          all.erase(order);
        }
      }
    } else if (op < 14) {
      Lan* lan = lans[next(3)];
      LanConfig cfg = lan->config();
      cfg.latency = latencies[next(4)];
      lan->set_config(cfg);
    } else if (op < 17) {
      const size_t before = fired.size();
      EXPECT_EQ(loop.RunOne(), !pending.empty());
      for (size_t f = before; f < fired.size(); ++f) {
        pending.erase(fired[f].order);
      }
    } else {
      const size_t before = fired.size();
      loop.RunFor(Micros(static_cast<int64_t>(next(3000))));
      for (size_t f = before; f < fired.size(); ++f) {
        pending.erase(fired[f].order);
      }
    }
    ASSERT_EQ(loop.pending_count(), pending.size()) << "diverged at step " << step;
  }
  loop.RunUntilIdle();
  EXPECT_TRUE(loop.idle());
  EXPECT_TRUE(dups.empty());

  // Every scheduled, uncancelled event fired once, inside its bounds...
  ASSERT_EQ(fired.size(), all.size());
  std::map<std::pair<int64_t, uint64_t>, size_t> model;  // (time, order) -> dispatch position
  for (size_t pos = 0; pos < fired.size(); ++pos) {
    const Fired& f = fired[pos];
    const auto it = all.find(f.order);
    ASSERT_NE(it, all.end()) << "unexpected event " << f.order;
    EXPECT_GE(f.time, it->second.lo) << "event " << f.order;
    EXPECT_LE(f.time, it->second.hi) << "event " << f.order;
    model[{f.time, f.order}] = pos;
  }
  // ...and in (delivery time, schedule order) order.
  ASSERT_EQ(model.size(), fired.size());
  size_t expected_pos = 0;
  for (const auto& [key, pos] : model) {
    ASSERT_EQ(pos, expected_pos) << "event " << key.second << " fired out of order";
    ++expected_pos;
  }
  // The run exercised every path it is meant to.
  EXPECT_GT(net.trace().Count(TraceEvent::kDuplicate), 100u);
  EXPECT_GT(net.trace().Count(TraceEvent::kReorder), 100u);
  // Every slot the three Lans took went back to the shared pool.
  EXPECT_EQ(net.delivery_pool().live(), 0u);
  EXPECT_GT(net.delivery_pool().peak(), 0u);
}

TEST(LanTest, DestroyedWithDeliveriesInFlightLeavesNothingArmed) {
  Network net(1);
  auto lan = std::make_unique<Lan>(&net, "doomed", LanConfig{.latency = Millis(5)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan.get(), Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan.get(), Ipv4Address::FromOctets(10, 0, 0, 2));
  bool control_fired = false;
  net.event_loop().ScheduleAfter(Millis(10), [&] { control_fired = true; });
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    lan->Transmit(a, Ipv4Address::FromOctets(10, 0, 0, 2), std::move(p));
    net.RunFor(Millis(1));
  }
  EXPECT_EQ(net.event_loop().pending_count(), 4u);
  lan.reset();  // the armed head and both queued deliveries go with it
  EXPECT_EQ(net.event_loop().pending_count(), 1u);
  const uint64_t dispatched = net.event_loop().events_processed();
  net.RunUntilIdle();
  EXPECT_TRUE(control_fired);
  EXPECT_EQ(net.event_loop().events_processed(), dispatched + 1);
  EXPECT_TRUE(b->received.empty());
  EXPECT_TRUE(net.event_loop().idle());
}

TEST(LanTest, LoopResetStrandsNoLaterTransmit) {
  Network net(1);
  Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(5)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  const auto send = [&](uint64_t id) {
    Packet p;
    p.id = id;
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    lan->Transmit(a, Ipv4Address::FromOctets(10, 0, 0, 2), std::move(p));
  };
  send(1);
  send(2);
  net.event_loop().Reset();  // drops both in-flight deliveries
  EXPECT_TRUE(net.event_loop().idle());
  // A later transmit must become the Lan's armed head, not queue behind
  // deliveries the loop has forgotten.
  send(3);
  EXPECT_EQ(net.event_loop().pending_count(), 1u);
  net.RunUntilIdle();
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->received[0].id, 3u);
  EXPECT_EQ(net.now().micros(), 5000);
  EXPECT_TRUE(net.event_loop().idle());
}

TEST(LanTest, IndexedLanDeliversToEveryOwner) {
  // More attachments than a Lan scans (the global realm's case): the ip
  // index must route every address to its owner and miss absent ones.
  Network net(1);
  net.trace().set_enabled(true);
  Lan* lan = net.CreateLan("wide", LanConfig{.latency = Millis(1)});
  std::vector<SinkNode*> nodes;
  for (uint8_t i = 1; i <= 12; ++i) {
    auto* n = net.Create<SinkNode>("n" + std::to_string(i));
    n->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, i));
    nodes.push_back(n);
  }
  for (uint8_t i = 1; i <= 12; ++i) {
    EXPECT_TRUE(lan->HasAddress(Ipv4Address::FromOctets(10, 0, 0, i)));
  }
  EXPECT_FALSE(lan->HasAddress(Ipv4Address::FromOctets(10, 0, 0, 99)));
  for (uint8_t i = 2; i <= 12; ++i) {
    Packet p;
    p.id = i;
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, i), 9));
    lan->Transmit(nodes[0], p.dst_ip, std::move(p));
  }
  Packet stray;
  stray.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 99), 9));
  lan->Transmit(nodes[0], stray.dst_ip, std::move(stray));
  net.RunUntilIdle();
  EXPECT_TRUE(nodes[0]->received.empty());
  for (size_t i = 1; i < nodes.size(); ++i) {
    ASSERT_EQ(nodes[i]->received.size(), 1u) << i;
    EXPECT_EQ(nodes[i]->received[0].id, i + 1);
  }
  EXPECT_EQ(net.trace().Count(TraceEvent::kDropNoNextHop), 1u);
}

TEST(LanTest, DuplicateIpWhoseFirstOwnerIsTheSender) {
  // Two nodes share one address and the sender attached first: the packet
  // goes to the other owner, on a small (scanned) and a large (indexed)
  // Lan alike. A node that is the address's only owner reaches itself.
  for (const int fillers : {0, 10}) {
    Network net(1);
    Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(1)});
    const Ipv4Address shared = Ipv4Address::FromOctets(10, 0, 0, 1);
    const Ipv4Address own = Ipv4Address::FromOctets(10, 0, 0, 2);
    auto* first = net.Create<SinkNode>("first");
    first->AttachTo(lan, shared);
    for (int i = 0; i < fillers; ++i) {
      net.Create<SinkNode>("filler" + std::to_string(i))
          ->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 1, static_cast<uint8_t>(i + 1)));
    }
    auto* second = net.Create<SinkNode>("second");
    second->AttachTo(lan, shared);
    first->AttachTo(lan, own);
    const auto send = [&](Node* from, Ipv4Address to, uint64_t id) {
      Packet p;
      p.id = id;
      p.set_dst(Endpoint(to, 9));
      lan->Transmit(from, to, std::move(p));
    };
    send(first, shared, 1);   // first owner is the sender: goes to `second`
    send(second, shared, 2);  // first owner is another node: goes to `first`
    send(first, own, 3);      // only owner is the sender: loops back
    net.RunUntilIdle();
    ASSERT_EQ(second->received.size(), 1u) << "fillers=" << fillers;
    EXPECT_EQ(second->received[0].id, 1u);
    ASSERT_EQ(first->received.size(), 2u) << "fillers=" << fillers;
    EXPECT_EQ(first->received[0].id, 2u);
    EXPECT_EQ(first->received[1].id, 3u);
  }
}

// Sends `count` packets from `from` to `to` over `lan` in one instant. Packet
// i has id i + 1 and a payload of `payload_size` bytes, each byte i.
void Burst(Lan* lan, Node* from, Ipv4Address to, int count, size_t payload_size = 0) {
  for (int i = 0; i < count; ++i) {
    Packet p;
    p.id = static_cast<uint64_t>(i + 1);
    p.payload = Bytes(payload_size, static_cast<uint8_t>(i));
    p.set_dst(Endpoint(to, 9));
    lan->Transmit(from, to, std::move(p));
  }
}

size_t HeapPayloadSlots(DeliveryPool& pool) {
  size_t spilled = 0;
  for (uint32_t slot = 0; slot < pool.slots(); ++slot) {
    spilled += pool[slot].packet.payload.is_inline() ? 0 : 1;
  }
  return spilled;
}

TEST(LanPoolTest, LansWhoseBurstsDoNotOverlapShareCapacity) {
  Network net(1);
  DeliveryPool& pool = net.delivery_pool();
  Lan* lans[2] = {net.CreateLan("first", LanConfig{.latency = Millis(1)}),
                  net.CreateLan("second", LanConfig{.latency = Millis(1)})};
  SinkNode* tx[2] = {};
  SinkNode* rx[2] = {};
  for (int i = 0; i < 2; ++i) {
    tx[i] = net.Create<SinkNode>("tx" + std::to_string(i));
    rx[i] = net.Create<SinkNode>("rx" + std::to_string(i));
    tx[i]->AttachTo(lans[i], Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(i), 1));
    rx[i]->AttachTo(lans[i], Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(i), 2));
  }
  Burst(lans[0], tx[0], Ipv4Address::FromOctets(10, 0, 0, 2), 100);
  EXPECT_EQ(pool.live(), 100u);
  net.RunUntilIdle();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slots(), 100u);
  const size_t capacity = pool.capacity();
  EXPECT_GE(capacity, 100u);

  Burst(lans[1], tx[1], Ipv4Address::FromOctets(10, 0, 1, 2), 60);
  net.RunUntilIdle();
  EXPECT_EQ(rx[0]->received.size(), 100u);
  EXPECT_EQ(rx[1]->received.size(), 60u);
  // The larger burst, not the sum of both.
  EXPECT_EQ(pool.slots(), 100u);
  EXPECT_EQ(pool.capacity(), capacity);
  EXPECT_EQ(pool.peak(), 100u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(LanPoolTest, DestroyedLanReturnsItsSlotsForReuse) {
  Network net(1);
  DeliveryPool& pool = net.delivery_pool();
  auto doomed = std::make_unique<Lan>(&net, "doomed", LanConfig{.latency = Millis(5)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(doomed.get(), Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(doomed.get(), Ipv4Address::FromOctets(10, 0, 0, 2));
  Burst(doomed.get(), a, Ipv4Address::FromOctets(10, 0, 0, 2), 40);
  EXPECT_EQ(pool.live(), 40u);
  const size_t slots = pool.slots();
  const size_t chunks = pool.chunks();
  doomed.reset();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_TRUE(net.event_loop().idle());

  Lan* later = net.CreateLan("later", LanConfig{.latency = Millis(5)});
  auto* c = net.Create<SinkNode>("c");
  auto* d = net.Create<SinkNode>("d");
  c->AttachTo(later, Ipv4Address::FromOctets(10, 0, 1, 1));
  d->AttachTo(later, Ipv4Address::FromOctets(10, 0, 1, 2));
  Burst(later, c, Ipv4Address::FromOctets(10, 0, 1, 2), 40);
  EXPECT_EQ(pool.slots(), slots);
  EXPECT_EQ(pool.chunks(), chunks);
  net.RunUntilIdle();
  EXPECT_TRUE(b->received.empty());
  ASSERT_EQ(d->received.size(), 40u);
  EXPECT_EQ(d->received[39].id, 40u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(LanPoolTest, SpilledPayloadInFlightIsFreedOnTeardown) {
  // A payload past the inline buffer lives on the heap; a slot dropped
  // with it in flight must free it (LeakSanitizer checks the process end).
  constexpr size_t kSpilled = Payload::kInlineCapacity + 100;
  enum class Teardown { kDestroyLan, kResetLoop, kResetNetwork };
  for (const Teardown teardown :
       {Teardown::kDestroyLan, Teardown::kResetLoop, Teardown::kResetNetwork}) {
    Network net(1);
    DeliveryPool& pool = net.delivery_pool();
    auto lan = std::make_unique<Lan>(&net, "lan", LanConfig{.latency = Millis(5)});
    auto* a = net.Create<SinkNode>("a");
    auto* b = net.Create<SinkNode>("b");
    a->AttachTo(lan.get(), Ipv4Address::FromOctets(10, 0, 0, 1));
    b->AttachTo(lan.get(), Ipv4Address::FromOctets(10, 0, 0, 2));
    Burst(lan.get(), a, Ipv4Address::FromOctets(10, 0, 0, 2), 5, kSpilled);
    ASSERT_EQ(HeapPayloadSlots(pool), 5u);
    switch (teardown) {
      case Teardown::kDestroyLan:
        lan.reset();
        break;
      case Teardown::kResetLoop:
        net.event_loop().Reset();
        break;
      case Teardown::kResetNetwork:
        net.Reset(2);  // the loop's Reset drops the deliveries, then lans go
        break;
    }
    const auto label = static_cast<int>(teardown);
    EXPECT_EQ(pool.live(), 0u) << label;
    EXPECT_EQ(HeapPayloadSlots(pool), 0u) << label;
    EXPECT_EQ(pool.slots(), 5u) << label;  // the slots themselves stay pooled
  }
}

// Forwards every packet it receives onto another Lan, the way a NAT or
// router hands a packet from one segment to the next inside a delivery.
class ForwardNode : public Node {
 public:
  ForwardNode(Network* net, std::string name) : Node(net, std::move(name)) {}
  void HandlePacket(int iface, Packet&& packet) override {
    (void)iface;
    out->Transmit(this, to, std::move(packet));
  }
  Lan* out = nullptr;
  Ipv4Address to;
};

TEST(LanPoolTest, ForwardThatGrowsThePoolKeepsItsOwnSlot) {
  // The first chunk is full when the first delivery fires: that delivery
  // still holds its slot while the forward takes a new one, so the pool
  // grows by a chunk underneath the packet being forwarded.
  Network net(1);
  DeliveryPool& pool = net.delivery_pool();
  Lan* in = net.CreateLan("in", LanConfig{.latency = Millis(1)});
  Lan* out = net.CreateLan("out", LanConfig{.latency = Millis(1)});
  auto* src = net.Create<SinkNode>("src");
  auto* fwd = net.Create<ForwardNode>("fwd");
  auto* sink = net.Create<SinkNode>("sink");
  src->AttachTo(in, Ipv4Address::FromOctets(10, 0, 0, 1));
  fwd->AttachTo(in, Ipv4Address::FromOctets(10, 0, 0, 2));
  fwd->AttachTo(out, Ipv4Address::FromOctets(10, 0, 1, 1));
  sink->AttachTo(out, Ipv4Address::FromOctets(10, 0, 1, 2));
  fwd->out = out;
  fwd->to = Ipv4Address::FromOctets(10, 0, 1, 2);

  constexpr int kPackets = static_cast<int>(DeliveryPool::kFirstChunk);
  // Odd packets spill to the heap, even ones stay in their slot's buffer.
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.id = static_cast<uint64_t>(i + 1);
    p.payload = Bytes(i % 2 == 0 ? 32 : Payload::kInlineCapacity + 32, static_cast<uint8_t>(i));
    p.set_dst(Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 9));
    in->Transmit(src, p.dst_ip, std::move(p));
  }
  EXPECT_EQ(pool.chunks(), 1u);
  EXPECT_EQ(pool.slots(), pool.capacity());
  net.RunUntilIdle();
  EXPECT_EQ(pool.chunks(), 2u);
  ASSERT_EQ(sink->received.size(), static_cast<size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    const Packet& p = sink->received[static_cast<size_t>(i)];
    EXPECT_EQ(p.id, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(p.payload,
              Bytes(i % 2 == 0 ? 32 : Payload::kInlineCapacity + 32, static_cast<uint8_t>(i)))
        << i;
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(LanPoolTest, GaugesFollowTheSharedPool) {
  Network net(1);
  obs::MetricsRegistry* reg = net.EnableMetrics();
  Lan* lan = net.CreateLan("lan", LanConfig{.latency = Millis(1)});
  auto* a = net.Create<SinkNode>("a");
  auto* b = net.Create<SinkNode>("b");
  a->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 1));
  b->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2));
  Burst(lan, a, Ipv4Address::FromOctets(10, 0, 0, 2), 20);
  const obs::Gauge* live = reg->FindGauge("mem.lan_deliveries.live");
  const obs::Gauge* peak = reg->FindGauge("mem.lan_deliveries.peak");
  const obs::Gauge* chunks = reg->FindGauge("mem.lan_deliveries.chunks");
  ASSERT_NE(live, nullptr);
  ASSERT_NE(peak, nullptr);
  ASSERT_NE(chunks, nullptr);
  EXPECT_EQ(live->value(), 20);
  EXPECT_EQ(peak->value(), 20);
  EXPECT_EQ(chunks->value(), 2);  // 16 + 32 slots
  net.RunUntilIdle();
  EXPECT_EQ(live->value(), 0);
  EXPECT_EQ(peak->value(), 20);
  // A reused Network starts a new peak but keeps (and reports) its chunks.
  net.Reset(2);
  EXPECT_EQ(live->value(), 0);
  EXPECT_EQ(peak->value(), 0);
  EXPECT_EQ(chunks->value(), 2);
  EXPECT_EQ(net.delivery_pool().peak(), 0u);
}

TEST(NodeTest, LongestPrefixMatchWins) {
  Network net(1);
  Lan* lan1 = net.CreateLan("l1", LanConfig{});
  Lan* lan2 = net.CreateLan("l2", LanConfig{});
  auto* r = net.Create<SinkNode>("r");
  const int i1 = r->AttachTo(lan1, Ipv4Address::FromOctets(10, 0, 0, 1), 8);
  const int i2 = r->AttachTo(lan2, Ipv4Address::FromOctets(10, 0, 1, 1), 24);
  Ipv4Address next_hop;
  EXPECT_EQ(r->RouteLookup(Ipv4Address::FromOctets(10, 0, 1, 7), &next_hop), i2);
  EXPECT_EQ(r->RouteLookup(Ipv4Address::FromOctets(10, 9, 9, 9), &next_hop), i1);
}

TEST(NodeTest, GatewayRouteSetsNextHop) {
  Network net(1);
  Lan* lan = net.CreateLan("l", LanConfig{});
  auto* h = net.Create<SinkNode>("h");
  const int iface = h->AttachTo(lan, Ipv4Address::FromOctets(10, 0, 0, 2), 24);
  h->AddDefaultRoute(iface, Ipv4Address::FromOctets(10, 0, 0, 1));
  Ipv4Address next_hop;
  EXPECT_EQ(h->RouteLookup(Ipv4Address::FromOctets(8, 8, 8, 8), &next_hop), iface);
  EXPECT_EQ(next_hop, Ipv4Address::FromOctets(10, 0, 0, 1));
  // On-link destinations resolve to themselves.
  EXPECT_EQ(h->RouteLookup(Ipv4Address::FromOctets(10, 0, 0, 7), &next_hop), iface);
  EXPECT_EQ(next_hop, Ipv4Address::FromOctets(10, 0, 0, 7));
}

TEST(TraceTest, RecordsAndCounts) {
  Network net(1);
  net.trace().set_enabled(true);
  Packet p;
  p.id = 7;
  net.trace().Record(net.now(), "n1", TraceEvent::kSend, p);
  net.trace().Record(net.now(), "n2", TraceEvent::kSend, p);
  net.trace().Record(net.now(), "n1", TraceEvent::kDeliver, p, "note");
  EXPECT_EQ(net.trace().Count(TraceEvent::kSend), 2u);
  EXPECT_EQ(net.trace().Count(TraceEvent::kSend, "n1"), 1u);
  EXPECT_NE(net.trace().Dump().find("note"), std::string::npos);
  net.trace().Clear();
  EXPECT_TRUE(net.trace().records().empty());
}

TEST(TraceTest, DisabledRecordsNothing) {
  Network net(1);
  Packet p;
  net.trace().Record(net.now(), "n", TraceEvent::kSend, p);
  EXPECT_TRUE(net.trace().records().empty());
}

}  // namespace
}  // namespace natpunch
