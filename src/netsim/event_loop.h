// Deterministic discrete-event scheduler.
//
// Events fire in strict (time, insertion-sequence) order, so two events
// scheduled for the same instant run in the order they were scheduled. This
// determinism is load-bearing: the hole-punching experiments depend on
// reproducing exact packet interleavings (e.g. whether A's SYN reaches B's
// NAT before B's SYN leaves it).
//
// Two scheduling tiers, plus the reserved events described below, share one
// insertion-sequence counter:
//
//  * ScheduleAt/ScheduleAfter — closure events (one-shot control work). A
//    4-ary min-heap of (time, sequence) keys with lazy cancellation;
//    callbacks live in a power-of-two ring buffer indexed by sequence, which
//    gives O(1) id lookup with no hashing.
//
//  * ScheduleTimerAt/ScheduleTimerAfter — intrusive TimerHandle events for
//    the coarse periodic tier (keepalives, NAT mapping expiry, relay
//    watchdogs, TURN refresh, scripted faults). A handle embeds its list
//    links, deadline, and a member-function thunk in the owning object, so
//    arming a timer allocates nothing and dispatch is one indirect call — no
//    std::function, no type erasure. Timers never enter the heap: they are
//    parked in a hierarchical timing wheel (4 levels x 64 slots) and, when
//    the clock reaches their level-0 slot, move into the *due run* — one
//    vector of (time, id, handle) entries sorted by (time, id). Dispatch
//    takes the earlier of the heap top and the due run's head, so a million
//    armed keepalives cost the heap nothing at all.
//
// The wheel is a staging area, never a dispatch path: a slot is flushed into
// the due run, keyed by each timer's original (time, sequence), before the
// clock can pass the slot's start, so the dispatch sequence is
// byte-identical to a single totally ordered queue. With the wheel off
// (SetTimerWheelEnabled(false), the differential oracle for exactly that
// claim) every timer goes straight into the due run by sorted insert. All
// kinds of event share the sequence counter, so cross-tier ties at the same
// instant also fire in schedule order.
//
// Reserved events (ReserveEvent/ArmReserved) let an owner that keeps its own
// time-ordered queue take part in that order without putting every entry in
// the heap. Packet deliveries work this way: each Lan holds its in-flight
// packets in one list sorted by (delivery time, event id) and keeps only the
// list head armed in the heap. ReserveEvent takes the next sequence number
// at the moment the closure tier would have, marks the sequence's ring slot
// pending (so the window cannot compact past it, pending_count() counts it,
// and Reset() reaches it), and returns its id; the key is pushed only when
// the owner arms it. Ordering holds because every key keeps the (time, id)
// it would have had as a closure event, and an owner's unarmed entries all
// sort after its armed head: the head is the owner's minimum, so the
// heap's minimum over heads is the global minimum over all entries, and
// when the head fires the owner arms its successor (never earlier than the
// head) before anything later can pop. A reserved event dispatches through
// its ring slot (one indirect call to its owner), never through the timer
// tier and never via the wheel.

#ifndef SRC_NETSIM_EVENT_LOOP_H_
#define SRC_NETSIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/netsim/sim_time.h"

namespace natpunch {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class EventLoop;

// Intrusive timer: the owning object embeds the handle and binds one of its
// member functions; arming, cancelling, and firing never allocate. A handle
// may be re-armed from its own callback (the self-rescheduling keepalive
// pattern) and cancels itself on destruction, so a destroyed session can
// never leave a dangling timer behind.
class TimerHandle {
 public:
  TimerHandle() = default;
  ~TimerHandle() { Cancel(); }

  TimerHandle(const TimerHandle&) = delete;
  TimerHandle& operator=(const TimerHandle&) = delete;

  // Bind `obj`'s member function as the callback: Bind<&Foo::Tick>(foo).
  // Rebinding while armed is allowed; the pending firing uses the new thunk.
  // `obj` must be the object this handle is embedded in (directly or via
  // nested members): the handle stores only the 32-bit offset between
  // itself and its owner, which is what keeps it at 56 bytes — at swarm
  // scale every handle byte is multiplied by hundreds of thousands of
  // sessions (see DESIGN.md "Memory footprint").
  template <auto Method, typename T>
  void Bind(T* obj) {
    const ptrdiff_t offset =
        reinterpret_cast<const char*>(obj) - reinterpret_cast<const char*>(this);
    obj_offset_ = static_cast<int32_t>(offset);
    thunk_ = [](TimerHandle* h) {
      auto* owner = reinterpret_cast<T*>(reinterpret_cast<char*>(h) + h->obj_offset_);
      (owner->*Method)();
    };
  }

  bool pending() const { return state_ != State::kIdle; }
  SimTime deadline() const { return SimTime(deadline_); }

  // Cancel if armed. Returns true if the timer was still pending.
  bool Cancel();

 private:
  friend class EventLoop;

  enum class State : uint8_t {
    kIdle,     // not armed
    kInWheel,  // linked into a wheel slot (or the overflow list)
    kDue,      // in the loop's due run, found by its (deadline_, id_) key
  };

  EventLoop* loop_ = nullptr;
  void (*thunk_)(TimerHandle*) = nullptr;
  int64_t deadline_ = 0;  // micros
  uint64_t id_ = 0;       // full event id (kind bit set)
  TimerHandle* prev_ = nullptr;
  TimerHandle* next_ = nullptr;
  int32_t obj_offset_ = 0;  // owner address minus handle address (Bind)
  State state_ = State::kIdle;
  uint8_t level_ = 0;  // wheel position while kInWheel (kOverflowLevel = list)
  uint8_t slot_ = 0;
};
static_assert(sizeof(TimerHandle) == 56,
              "TimerHandle is a per-session multiplied cost; keep it tight");

class EventLoop {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEventId = 0;

  // Timer wheel geometry: kWheelLevels levels of 2^kWheelSlotBits slots
  // over a 2^kWheelGranularityBits us base slot (see "Hierarchical timing
  // wheel" below). Public so tests can derive slot, window and horizon
  // sizes instead of hardcoding them.
  static constexpr int kWheelLevels = 4;
  static constexpr int kWheelSlotBits = 6;
  static constexpr int kWheelGranularityBits = 17;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedule `fn` to run at absolute time `at` (clamped to now).
  EventId ScheduleAt(SimTime at, std::function<void()> fn);
  // Schedule `fn` to run `delay` from now.
  EventId ScheduleAfter(SimDuration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancel a pending event. Returns true if it was still pending.
  bool Cancel(EventId id);

  // Arm `timer` to fire at `at` (clamped to now) / after `delay`. An already
  // armed handle is re-armed (the old deadline is cancelled first). The
  // handle must stay alive and at a stable address until it fires or is
  // cancelled — it is linked into the loop's structures by pointer.
  void ScheduleTimerAt(SimTime at, TimerHandle* timer);
  void ScheduleTimerAfter(SimDuration delay, TimerHandle* timer) {
    ScheduleTimerAt(now_ + delay, timer);
  }
  // Cancel an armed timer. Returns true if it was still pending.
  bool CancelTimer(TimerHandle* timer);

  // Owner of reserved events. FireReserved runs when one of the owner's
  // armed keys is dispatched (the owner knows which: its queue head);
  // DropReserved runs from Reset() for every reserved event still pending,
  // and must forget the owner's whole queue without calling back into the
  // loop.
  class ReservedOwner {
   public:
    virtual void FireReserved() = 0;
    virtual void DropReserved() = 0;

   protected:
    ~ReservedOwner() = default;
  };

  // Take the next event id for `owner` without scheduling it: the id's
  // sequence is the one ScheduleAt would have used at this moment, and the
  // event counts as pending from here on. ArmReserved(at, id) later pushes
  // the (at, id) key into the heap — at most once per id, with `at` fixed
  // at reservation time — and CancelReserved(id) retires a reserved event
  // that will never fire (armed or not). Cancel(id) never applies to it.
  EventId ReserveEvent(ReservedOwner* owner);
  void ArmReserved(SimTime at, EventId id) { HeapPush(HeapEntry{at.micros(), id}); }
  void CancelReserved(EventId id);

  // Differential oracle switch: with the wheel off, timers go straight into
  // the due run at schedule time. Either mode produces the identical dispatch
  // sequence; tests compare trace dumps across the two to prove it. Flip
  // only while no timers are pending. Survives Reset().
  void SetTimerWheelEnabled(bool enabled) { wheel_enabled_ = enabled; }
  bool timer_wheel_enabled() const { return wheel_enabled_; }

  // Run the single earliest pending event, advancing the clock to it.
  // Returns false if no events are pending.
  bool RunOne();

  // Run all events with time <= deadline, then set the clock to deadline.
  void RunUntil(SimTime deadline);
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  // Run until the queue drains or `max_events` have fired. Returns the
  // number of events processed. A cap guards against runaway feedback loops
  // (e.g. two misconfigured nodes ping-ponging a packet forever).
  size_t RunUntilIdle(size_t max_events = 10'000'000);

  bool idle() const { return live_ == 0; }
  size_t pending_count() const { return live_; }
  uint64_t events_processed() const { return events_processed_; }
  // Timers currently parked in the wheel (not yet flushed to the due run).
  size_t wheel_pending() const { return wheel_size_; }

  // Return to the pristine just-constructed state (clock at 0, no pending
  // events, counters zeroed) while KEEPING the heap, ring, and due-run
  // capacities, so a reused loop schedules without allocating. Pending
  // closures are destroyed, reserved events are dropped through their
  // owners' DropReserved, and armed timers detach (their handles read
  // !pending()). Lets fleet workers run thousands of device simulations on
  // one arena. Attached metrics handles and the wheel-enabled flag survive a
  // Reset (the registry the handles live in is reset separately by
  // Network::Reset).
  void Reset();

  // Observability hookup (Network::EnableMetrics): `dispatched` counts every
  // fired event, `heap_depth` tracks the pending-event level and its
  // high-water mark, `timers_wheel`/`timers_due` split timer arms by which
  // tier admitted them (the wheel, or straight into the due run), and
  // `wheel_cascades` counts entries re-filed when a higher wheel level
  // spills into a lower one. Any may be null; recording is allocation-free.
  void AttachMetrics(obs::Counter* dispatched, obs::Gauge* heap_depth,
                     obs::Counter* timers_wheel = nullptr, obs::Counter* timers_due = nullptr,
                     obs::Counter* wheel_cascades = nullptr) {
    metric_dispatched_ = dispatched;
    metric_heap_depth_ = heap_depth;
    metric_timers_wheel_ = timers_wheel;
    metric_timers_due_ = timers_due;
    metric_wheel_cascades_ = wheel_cascades;
  }

 private:
  // Event ids carry the scheduling tier in bit 0 (0 = closure event, 1 =
  // timer) over a shared sequence counter, so (time, id) comparisons order
  // cross-tier ties by schedule order and the heap entry stays 16 bytes.
  static constexpr uint64_t kTimerKindBit = 1;
  static uint64_t SeqOf(EventId id) { return id >> 1; }
  static bool IsTimerId(EventId id) { return (id & kTimerKindBit) != 0; }

  struct HeapEntry {
    int64_t time;  // micros
    EventId id;
  };
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }
  // 4-ary min-heap primitives over heap_; the minimum sits at heap_[0]. The
  // heap holds closure events and armed reserved events, never timers.
  void HeapPush(HeapEntry entry);
  void HeapPopTop();

  // A closure event holds `fn`, a reserved event its `owner`; a slot with
  // neither is retired (fired, cancelled, or a timer's sequence). ScheduleAt
  // therefore requires a non-empty `fn`.
  struct Slot {
    std::function<void()> fn;
    ReservedOwner* owner = nullptr;

    bool pending() const { return owner != nullptr || static_cast<bool>(fn); }
  };

  // --- Hierarchical timing wheel (timer staging tier) -----------------------
  //
  // Geometry: 4 levels of 64 slots at a 2^17 us (~131 ms) base granularity.
  // Level k slot spans 64^k base slots, so the horizons are ~8.4 s, ~9 min,
  // ~9.5 h, and ~25 days; anything farther sits in an intrusive overflow
  // list rescanned each time the clock enters a new level-3 window. The
  // level-0 horizon covers the punchers' 4-6 s keepalives, so they file
  // straight into level 0 and never cascade. wheel_cursor_ is the absolute
  // level-0 slot index of the next unflushed slot: every slot below it has
  // already been flushed into the due run, and a timer whose slot is below
  // the cursor is inserted straight into the due run.
  static constexpr uint64_t kWheelSlots = 1ull << kWheelSlotBits;
  static constexpr uint8_t kOverflowLevel = kWheelLevels;

  static uint64_t SlotIndexFor(int64_t time_micros) {
    return static_cast<uint64_t>(time_micros) >> kWheelGranularityBits;
  }

  // File an armed handle into the wheel level matching its distance from the
  // cursor (or the overflow list past the level-3 horizon).
  void WheelFile(TimerHandle* timer);
  void WheelUnlink(TimerHandle* timer);
  // Move every entry of level-0 slot `slot` into the due run.
  void WheelFlushSlot(uint64_t slot);
  // Re-file every entry of level `level`'s slot covering the cursor; runs
  // when the cursor enters a new level-`level` window.
  void WheelCascade(int level);
  // Re-file overflow entries that fell inside the level-3 horizon.
  void WheelRescanOverflow();
  // Cascade every level whose window the cursor just entered (cursor must
  // sit on a level-1 boundary). Called eagerly the moment the cursor lands
  // there so covering slots never hold current-window entries between
  // advances.
  void WheelBoundaryCascade();
  // Flush all slots whose start time is <= `time_micros` into the due run.
  void WheelAdvanceTo(int64_t time_micros);
  // Earliest possible deadline of any wheel-resident timer (slot start times
  // lower-bound the deadlines inside), or INT64_MAX when the wheel is empty.
  int64_t WheelLowerBound();

  // --- Due run ---------------------------------------------------------------
  //
  // Timers whose level-0 slot has been flushed, stored latest-first so the
  // next one due sits at back() and pops without moving the rest. Keys are
  // unique and never change while an entry exists, so a cancel finds its
  // entry by binary search on the handle's own (deadline_, id_) and nulls
  // `timer`; a nulled entry is dropped when it reaches the back. A flushed
  // slot's deadlines are all later than every entry already in the run, and
  // a sorted insert (a timer armed into an already-flushed slot, or any
  // timer with the wheel off) moves only the entries due before it.
  struct DueEntry {
    HeapEntry key;       // {deadline, timer event id}
    TimerHandle* timer;  // null once cancelled
  };
  // The due run's order, Earlier reversed (a functor, so std::sort and
  // std::lower_bound inline it).
  struct Later {
    bool operator()(const DueEntry& a, const DueEntry& b) const { return Earlier(b.key, a.key); }
  };
  // Insert an armed handle at its (deadline, id) position.
  void DueInsert(TimerHandle* timer);
  // Null the entry of a kDue handle.
  void DueCancel(TimerHandle* timer);

  // Ensure the earlier of the heap top and the due run's back is the
  // globally next event (all wheel slots at or before its time flushed) and
  // due at or before `limit`. Returns false if nothing is due by `limit`.
  bool PrepareTop(int64_t limit);

  // Slot for a closure event id, or nullptr if the id was never issued /
  // already retired out of the window.
  Slot* SlotFor(EventId id);
  // Pop and run the next event: the earlier of the heap top and the due
  // run's back. Precondition: PrepareTop() returned true (both are live and
  // every earlier timer has been flushed from the wheel).
  void DispatchTop();
  // Drop tombstoned closure slots off the heap top and cancelled entries
  // off the due run's back.
  void PopDead();
  // Retire fully-processed slots from the front of the sequence window.
  void CompactFront();
  // Make room in the ring for one more sequence in [base_seq_, next_seq_].
  void EnsureSlotCapacity();

  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t base_seq_ = 1;  // earliest sequence still in the ring window
  uint64_t events_processed_ = 0;
  size_t live_ = 0;  // scheduled, not yet fired or cancelled (both tiers)
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;  // ring buffer; size is a power of two
  size_t ring_mask_ = 0;     // slots_.size() - 1

  // Timer tier state. A destroyed owner is harmless: its handle's
  // destructor nulls its due entry (or unlinks it from the wheel), so no
  // entry can reach freed memory.
  std::vector<DueEntry> due_;  // latest-first; the next due timer is back()
  TimerHandle* wheel_slots_[kWheelLevels][kWheelSlots] = {};
  uint64_t wheel_occupied_[kWheelLevels] = {};  // per-level slot bitmaps
  TimerHandle* overflow_head_ = nullptr;
  uint64_t wheel_cursor_ = 0;  // absolute level-0 index of next unflushed slot
  size_t wheel_size_ = 0;      // wheel + overflow entries
  int64_t wheel_lb_cache_ = -1;  // memoized WheelLowerBound (-1 = dirty)
  bool wheel_enabled_ = true;

  obs::Counter* metric_dispatched_ = nullptr;
  obs::Gauge* metric_heap_depth_ = nullptr;
  obs::Counter* metric_timers_wheel_ = nullptr;
  obs::Counter* metric_timers_due_ = nullptr;
  obs::Counter* metric_wheel_cascades_ = nullptr;
};

inline bool TimerHandle::Cancel() {
  return loop_ != nullptr && loop_->CancelTimer(this);
}

}  // namespace natpunch

#endif  // SRC_NETSIM_EVENT_LOOP_H_
