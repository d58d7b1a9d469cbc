#include "src/netsim/event_loop.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "src/obs/metrics.h"

namespace natpunch {

namespace {
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

int Ctz(uint64_t bits) { return std::countr_zero(bits); }
}  // namespace

void EventLoop::HeapPush(HeapEntry entry) {
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Earlier(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventLoop::HeapPopTop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first_child = (i << 2) + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

EventLoop::EventId EventLoop::ScheduleAt(SimTime at, std::function<void()> fn) {
  const int64_t t = std::max(at.micros(), now_.micros());
  EnsureSlotCapacity();
  const uint64_t seq = next_seq_++;
  const EventId id = seq << 1;
  slots_[static_cast<size_t>(seq) & ring_mask_].fn = std::move(fn);
  HeapPush(HeapEntry{t, id});
  ++live_;
  obs::Set(metric_heap_depth_, static_cast<int64_t>(live_));
  return id;
}

EventLoop::EventId EventLoop::ReserveEvent(ReservedOwner* owner) {
  EnsureSlotCapacity();
  const uint64_t seq = next_seq_++;
  slots_[static_cast<size_t>(seq) & ring_mask_].owner = owner;
  ++live_;
  obs::Set(metric_heap_depth_, static_cast<int64_t>(live_));
  return seq << 1;
}

void EventLoop::CancelReserved(EventId id) {
  // The armed key, if any, dies lazily in PopDead like a cancelled closure.
  SlotFor(id)->owner = nullptr;
  --live_;
  CompactFront();
}

void EventLoop::EnsureSlotCapacity() {
  if (next_seq_ - base_seq_ < slots_.size()) {
    return;
  }
  if (slots_.empty()) {
    slots_.resize(64);
    ring_mask_ = 63;
    return;
  }
  // Timer sequences retire without a dispatch or cancel of their own, so the
  // front of the window may be reclaimable even though nothing compacted it;
  // try that before paying for a bigger ring.
  CompactFront();
  if (next_seq_ - base_seq_ < slots_.size()) {
    return;
  }
  // The live sequence window filled the ring: double it and re-place the
  // window at the new mask. Amortized across the run; steady state never
  // gets here.
  std::vector<Slot> bigger(slots_.size() * 2);
  const size_t new_mask = bigger.size() - 1;
  for (uint64_t seq = base_seq_; seq < next_seq_; ++seq) {
    bigger[static_cast<size_t>(seq) & new_mask] =
        std::move(slots_[static_cast<size_t>(seq) & ring_mask_]);
  }
  slots_ = std::move(bigger);
  ring_mask_ = new_mask;
}

void EventLoop::Reset() {
  // Only the live sequence window can hold events: fired and cancelled
  // slots are nulled on retirement, and sequences below base_seq_ were
  // compacted past. A fleet worker Resets once per device simulation, so
  // clearing the (typically tiny) window instead of the whole ring matters
  // at scale.
  for (uint64_t seq = base_seq_; seq < next_seq_; ++seq) {
    Slot& slot = slots_[static_cast<size_t>(seq) & ring_mask_];
    slot.fn = nullptr;  // destroys pending closures (and anything they own)
    if (slot.owner != nullptr) {
      slot.owner->DropReserved();
      slot.owner = nullptr;
    }
  }
  // Detach every armed timer so its handle reads !pending() and a later
  // destructor or re-arm is safe. Due timers are reachable through the due
  // run; wheel-resident ones through the slot lists.
  for (const DueEntry& entry : due_) {
    if (entry.timer != nullptr) {
      entry.timer->state_ = TimerHandle::State::kIdle;
    }
  }
  due_.clear();
  for (int level = 0; level < kWheelLevels; ++level) {
    uint64_t bits = wheel_occupied_[level];
    while (bits != 0) {
      const int slot = Ctz(bits);
      bits &= bits - 1;
      for (TimerHandle* t = wheel_slots_[level][slot]; t != nullptr;) {
        TimerHandle* next = t->next_;
        t->state_ = TimerHandle::State::kIdle;
        t->prev_ = t->next_ = nullptr;
        t = next;
      }
      wheel_slots_[level][slot] = nullptr;
    }
    wheel_occupied_[level] = 0;
  }
  for (TimerHandle* t = overflow_head_; t != nullptr;) {
    TimerHandle* next = t->next_;
    t->state_ = TimerHandle::State::kIdle;
    t->prev_ = t->next_ = nullptr;
    t = next;
  }
  overflow_head_ = nullptr;
  wheel_cursor_ = 0;
  wheel_size_ = 0;
  wheel_lb_cache_ = -1;
  heap_.clear();
  live_ = 0;
  now_ = SimTime();
  next_seq_ = 1;
  base_seq_ = 1;
  events_processed_ = 0;
}

EventLoop::Slot* EventLoop::SlotFor(EventId id) {
  if (IsTimerId(id)) {
    return nullptr;
  }
  const uint64_t seq = SeqOf(id);
  if (seq < base_seq_ || seq >= next_seq_) {
    return nullptr;
  }
  return &slots_[static_cast<size_t>(seq) & ring_mask_];
}

void EventLoop::CompactFront() {
  // Timer sequences never mark their ring slot pending, so a long-armed
  // keepalive parked in the wheel does not pin the window open; only live
  // closure and reserved events do.
  while (base_seq_ < next_seq_ && !slots_[static_cast<size_t>(base_seq_) & ring_mask_].pending()) {
    ++base_seq_;
  }
}

void EventLoop::PopDead() {
  while (!heap_.empty()) {
    const Slot* slot = SlotFor(heap_.front().id);
    if (slot != nullptr && slot->pending()) {
      break;
    }
    HeapPopTop();
  }
  while (!due_.empty() && due_.back().timer == nullptr) {
    due_.pop_back();
  }
}

bool EventLoop::Cancel(EventId id) {
  Slot* slot = SlotFor(id);
  if (slot == nullptr || !slot->fn) {
    return false;
  }
  slot->fn = nullptr;  // tombstone: the heap entry dies lazily in PopDead
  --live_;
  CompactFront();
  return true;
}

// --- Timer tier -------------------------------------------------------------

void EventLoop::ScheduleTimerAt(SimTime at, TimerHandle* timer) {
  if (timer->state_ != TimerHandle::State::kIdle) {
    CancelTimer(timer);  // re-arm: the old deadline is dropped
  }
  const int64_t t = std::max(at.micros(), now_.micros());
  EnsureSlotCapacity();
  const uint64_t seq = next_seq_++;
  timer->loop_ = this;
  timer->id_ = (seq << 1) | kTimerKindBit;
  timer->deadline_ = t;
  ++live_;
  obs::Set(metric_heap_depth_, static_cast<int64_t>(live_));
  // A deadline landing in an already-flushed slot (or any deadline with the
  // wheel disabled) goes straight into the due run with its original key;
  // the ordering argument never depends on which tier admitted the timer.
  if (!wheel_enabled_ || SlotIndexFor(t) < wheel_cursor_) {
    obs::Inc(metric_timers_due_);
    DueInsert(timer);
  } else {
    obs::Inc(metric_timers_wheel_);
    WheelFile(timer);
  }
}

bool EventLoop::CancelTimer(TimerHandle* timer) {
  switch (timer->state_) {
    case TimerHandle::State::kIdle:
      return false;
    case TimerHandle::State::kInWheel:
      WheelUnlink(timer);
      break;
    case TimerHandle::State::kDue:
      DueCancel(timer);  // the nulled entry dies lazily in PopDead
      break;
  }
  timer->state_ = TimerHandle::State::kIdle;
  --live_;
  return true;
}

void EventLoop::DueInsert(TimerHandle* timer) {
  timer->state_ = TimerHandle::State::kDue;
  const DueEntry entry{{timer->deadline_, timer->id_}, timer};
  // Latest-first: the entries before the insertion point are due later.
  due_.insert(std::lower_bound(due_.begin(), due_.end(), entry, Later{}), entry);
}

void EventLoop::DueCancel(TimerHandle* timer) {
  const DueEntry key{{timer->deadline_, timer->id_}, nullptr};
  std::lower_bound(due_.begin(), due_.end(), key, Later{})->timer = nullptr;
}

void EventLoop::WheelFile(TimerHandle* timer) {
  const uint64_t idx = SlotIndexFor(timer->deadline_);
  const uint64_t delta = idx - wheel_cursor_;
  int level = 0;
  uint64_t span = kWheelSlots;
  while (level < kWheelLevels && delta >= span) {
    ++level;
    span <<= kWheelSlotBits;
  }
  timer->state_ = TimerHandle::State::kInWheel;
  timer->prev_ = nullptr;
  if (level == kWheelLevels) {
    // Past the level-3 horizon (~76 h of simulated time): park in the
    // overflow list, rescanned whenever the cursor enters a new level-3
    // window.
    timer->level_ = kOverflowLevel;
    timer->next_ = overflow_head_;
    if (overflow_head_ != nullptr) {
      overflow_head_->prev_ = timer;
    }
    overflow_head_ = timer;
  } else {
    const auto slot = static_cast<uint8_t>((idx >> (kWheelSlotBits * level)) & (kWheelSlots - 1));
    timer->level_ = static_cast<uint8_t>(level);
    timer->slot_ = slot;
    timer->next_ = wheel_slots_[level][slot];
    if (timer->next_ != nullptr) {
      timer->next_->prev_ = timer;
    }
    wheel_slots_[level][slot] = timer;
    wheel_occupied_[level] |= 1ull << slot;
  }
  ++wheel_size_;
  wheel_lb_cache_ = -1;
}

void EventLoop::WheelUnlink(TimerHandle* timer) {
  if (timer->next_ != nullptr) {
    timer->next_->prev_ = timer->prev_;
  }
  if (timer->prev_ != nullptr) {
    timer->prev_->next_ = timer->next_;
  } else if (timer->level_ == kOverflowLevel) {
    overflow_head_ = timer->next_;
  } else {
    wheel_slots_[timer->level_][timer->slot_] = timer->next_;
    if (timer->next_ == nullptr) {
      wheel_occupied_[timer->level_] &= ~(1ull << timer->slot_);
    }
  }
  timer->prev_ = timer->next_ = nullptr;
  --wheel_size_;
  wheel_lb_cache_ = -1;
}

void EventLoop::WheelFlushSlot(uint64_t slot) {
  TimerHandle* t = wheel_slots_[0][slot];
  wheel_slots_[0][slot] = nullptr;
  wheel_occupied_[0] &= ~(1ull << slot);
  while (t != nullptr) {
    TimerHandle* next = t->next_;
    t->prev_ = t->next_ = nullptr;
    t->state_ = TimerHandle::State::kDue;
    --wheel_size_;
    due_.push_back(DueEntry{{t->deadline_, t->id_}, t});
    t = next;
  }
  // The sort restores the (deadline, id) order, so the arbitrary slot-list
  // order above is invisible to the dispatch sequence. PrepareTop flushes
  // only once the run is empty (anything left in it would be due before
  // this slot starts), so the sort sees little more than the slot's own
  // entries.
  std::sort(due_.begin(), due_.end(), Later{});
}

void EventLoop::WheelCascade(int level) {
  const auto slot =
      static_cast<size_t>((wheel_cursor_ >> (kWheelSlotBits * level)) & (kWheelSlots - 1));
  TimerHandle* t = wheel_slots_[level][slot];
  if (t == nullptr) {
    return;
  }
  wheel_slots_[level][slot] = nullptr;
  wheel_occupied_[level] &= ~(1ull << slot);
  while (t != nullptr) {
    TimerHandle* next = t->next_;
    t->prev_ = t->next_ = nullptr;
    --wheel_size_;
    WheelFile(t);  // lands at a lower level: its delta is now < 64^level
    obs::Inc(metric_wheel_cascades_);
    t = next;
  }
}

void EventLoop::WheelRescanOverflow() {
  const uint64_t horizon = kWheelSlots * kWheelSlots * kWheelSlots * kWheelSlots;
  TimerHandle* t = overflow_head_;
  while (t != nullptr) {
    TimerHandle* next = t->next_;
    if (SlotIndexFor(t->deadline_) - wheel_cursor_ < horizon) {
      WheelUnlink(t);
      WheelFile(t);
      obs::Inc(metric_wheel_cascades_);
    }
    t = next;
  }
}

void EventLoop::WheelBoundaryCascade() {
  // Entering a new level-k window cascades that level's covering slot before
  // any of the window's level-0 slots flush; highest level first so a
  // level-3 entry can fall through 2 -> 1 -> 0 in one boundary crossing.
  // Runs the moment the cursor lands on a boundary (not lazily on the next
  // advance): WheelLowerBound relies on the covering slot being empty of
  // current-window entries whenever it looks, so it can classify any
  // occupant at the cursor's own position as next-wrap.
  if ((wheel_cursor_ & (kWheelSlots * kWheelSlots - 1)) == 0) {
    if ((wheel_cursor_ & (kWheelSlots * kWheelSlots * kWheelSlots - 1)) == 0) {
      WheelRescanOverflow();
      WheelCascade(3);
    }
    WheelCascade(2);
  }
  WheelCascade(1);
}

void EventLoop::WheelAdvanceTo(int64_t time_micros) {
  const uint64_t target = SlotIndexFor(time_micros);
  while (wheel_cursor_ <= target) {
    const uint64_t window_base = wheel_cursor_ & ~(kWheelSlots - 1);
    const uint64_t limit_idx = std::min(target, window_base + kWheelSlots - 1);
    uint64_t bits = wheel_occupied_[0] & (~0ull << (wheel_cursor_ & (kWheelSlots - 1)));
    while (bits != 0) {
      const auto pos = static_cast<uint64_t>(Ctz(bits));
      if (window_base + pos > limit_idx) {
        break;
      }
      WheelFlushSlot(pos);
      bits &= bits - 1;
    }
    wheel_cursor_ = limit_idx + 1;
    if ((wheel_cursor_ & (kWheelSlots - 1)) == 0) {
      WheelBoundaryCascade();
    }
  }
  wheel_lb_cache_ = -1;
}

int64_t EventLoop::WheelLowerBound() {
  if (wheel_lb_cache_ >= 0) {
    return wheel_lb_cache_;
  }
  int64_t best = kNever;
  // Level 0: slots at or after the cursor position belong to the current
  // window; occupied slots *below* it are not stale (those were flushed) but
  // wrapped — a delta just under 64 can land past the window boundary, in
  // which case the slot covers cursor+64-aligned time, not cursor-aligned.
  const uint64_t base0 = wheel_cursor_ & ~(kWheelSlots - 1);
  const uint64_t bits0 = wheel_occupied_[0] & (~0ull << (wheel_cursor_ & (kWheelSlots - 1)));
  if (bits0 != 0) {
    best = static_cast<int64_t>((base0 + static_cast<uint64_t>(Ctz(bits0)))
                                << kWheelGranularityBits);
  } else if (wheel_occupied_[0] != 0) {
    best = static_cast<int64_t>(
        (base0 + kWheelSlots + static_cast<uint64_t>(Ctz(wheel_occupied_[0])))
        << kWheelGranularityBits);
  }
  for (int level = 1; level < kWheelLevels; ++level) {
    uint64_t bits = wheel_occupied_[level];
    if (bits == 0) {
      continue;
    }
    const int shift = kWheelSlotBits * level;
    const uint64_t cursor_l = wheel_cursor_ >> shift;
    const uint64_t base_l = cursor_l & ~(kWheelSlots - 1);
    while (bits != 0) {
      const auto pos = static_cast<uint64_t>(Ctz(bits));
      bits &= bits - 1;
      // A position at or behind the cursor's own slot belongs to the next
      // wrap of this level (the covering slot was cascaded empty when the
      // cursor entered it).
      uint64_t abs_idx = base_l + pos;
      if (abs_idx <= cursor_l) {
        abs_idx += kWheelSlots;
      }
      const auto start =
          static_cast<int64_t>(abs_idx << (static_cast<uint64_t>(shift) + kWheelGranularityBits));
      best = std::min(best, start);
    }
  }
  for (TimerHandle* t = overflow_head_; t != nullptr; t = t->next_) {
    best = std::min(best, t->deadline_);
  }
  wheel_lb_cache_ = best;
  return best;
}

// --- Dispatch ---------------------------------------------------------------

bool EventLoop::PrepareTop(int64_t limit) {
  for (;;) {
    PopDead();
    int64_t top = heap_.empty() ? kNever : heap_.front().time;
    if (!due_.empty()) {
      top = std::min(top, due_.back().key.time);
    }
    if (wheel_size_ != 0) {
      const int64_t lb = WheelLowerBound();
      // A wheel timer might precede (or tie) the next event: flush its slot
      // into the due run and re-evaluate. Equal times flush too — the wheel
      // entry may carry a smaller sequence than the current next event.
      if (lb <= top && lb <= limit) {
        WheelAdvanceTo(lb);
        continue;
      }
    }
    return (!heap_.empty() || !due_.empty()) && top <= limit;
  }
}

void EventLoop::DispatchTop() {
  if (!due_.empty() && (heap_.empty() || Earlier(due_.back().key, heap_.front()))) {
    const DueEntry top = due_.back();
    due_.pop_back();
    TimerHandle* timer = top.timer;
    timer->state_ = TimerHandle::State::kIdle;
    --live_;
    now_ = SimTime(top.key.time);
    ++events_processed_;
    obs::Inc(metric_dispatched_);
    timer->thunk_(timer);  // may re-arm the handle
    return;
  }
  const HeapEntry top = heap_.front();
  HeapPopTop();
  Slot* slot = SlotFor(top.id);
  --live_;
  now_ = SimTime(top.time);
  ++events_processed_;
  obs::Inc(metric_dispatched_);
  if (slot->owner != nullptr) {
    ReservedOwner* owner = slot->owner;
    slot->owner = nullptr;
    CompactFront();  // `slot` is dead past this point
    owner->FireReserved();
    return;
  }
  std::function<void()> fn = std::move(slot->fn);
  slot->fn = nullptr;
  CompactFront();  // `slot` is dead past this point
  fn();
}

bool EventLoop::RunOne() {
  if (!PrepareTop(kNever)) {
    return false;
  }
  DispatchTop();
  return true;
}

void EventLoop::RunUntil(SimTime deadline) {
  // One PopDead per dispatch: PrepareTop peeks the live top itself instead
  // of delegating to RunOne (which would re-PopDead an already-clean heap —
  // measurably half the PopDead traffic on the fleet workload).
  const int64_t limit = deadline.micros();
  while (PrepareTop(limit)) {
    DispatchTop();
  }
  now_ = std::max(now_, deadline);
}

size_t EventLoop::RunUntilIdle(size_t max_events) {
  size_t n = 0;
  while (n < max_events && RunOne()) {
    ++n;
  }
  return n;
}

}  // namespace natpunch
