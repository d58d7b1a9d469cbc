// Typed slab allocator for per-session hot objects.
//
// The swarm workloads keep hundreds of thousands of small, identically-sized
// objects alive at once (punched sessions, TCP connections, TURN
// allocations, rendezvous registration records). Allocating each one with
// operator new costs a malloc header and scatters them across the heap;
// freeing returns the memory to malloc but never to the pool that needs it
// next. A Slab<T> instead carves chunks ("slabs") of fixed-size slots,
// hands slots out from an intrusive freelist, and recycles every freed slot
// in O(1) — so a steady-state population churning sessions never grows the
// pool past its high-water mark, and sizeof(T) is the whole per-object cost.
//
// Chunk policy: the first chunk holds min(8, N) slots and each later chunk
// doubles the previous one, up to N (kObjectsPerSlab) slots per chunk. A
// chunk's slots are carved one at a time as New() needs them, never threaded
// onto the freelist up front, so no slot memory is written before its first
// New(). Most pools live in a small, short-lived world (a NAT Check run, a
// punch attempt, a chaos trial) and hold a handful of objects: they pay one
// small chunk, not an N-slot block that glibc would page in (or, past its
// 128 KiB threshold, mmap and unmap) for every world. A pool of P objects
// holds at most about 2P slots until its chunks reach N, and at most P + N
// after that.
//
// Guarantees and limits:
//  * New()/Delete() are O(1); Delete returns the slot to the freelist
//    without releasing memory (a warmed pool allocates nothing).
//  * Freed slots are reused LIFO before any fresh slot is carved.
//  * Object addresses are stable for their lifetime (chunks never move).
//  * Reset() drops every live object (T must be trivially destructible)
//    and makes every slot free while KEEPING the chunks, mirroring the EventLoop/Network Reset idiom: a
//    reused arena reaches steady state with zero allocation, and carves
//    its slots again in the same order as the first time.
//  * Release() frees the chunks themselves (destructor does too).
//  * Not thread-safe; one pool per owning subsystem, like every other
//    container in this codebase.
//
// Observability: AttachMetrics wires mem.<pool>.live / .peak / .slabs
// gauges into the registry (registration may allocate once; the alloc/free
// path never does — the same rule the rest of src/obs follows); .slabs
// counts chunks. The stats() snapshot powers scripts/memprof.sh's per-pool
// breakdown.

#ifndef SRC_UTIL_SLAB_H_
#define SRC_UTIL_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/obs/metrics.h"

namespace natpunch {

struct SlabStats {
  size_t live = 0;        // objects currently allocated
  size_t peak = 0;        // high-water live count
  size_t slabs = 0;       // chunks held (never shrinks until Release)
  size_t capacity = 0;    // total slots across all slabs
  size_t slab_bytes = 0;  // bytes held in slabs (capacity * slot size)
};

template <typename T, size_t kObjectsPerSlab = 256>
class Slab {
  static_assert(kObjectsPerSlab > 0, "slab chunk must hold at least one object");

 public:
  // Slots in the first chunk; each later chunk doubles up to kObjectsPerSlab.
  static constexpr size_t kFirstChunkSlots = kObjectsPerSlab < 8 ? kObjectsPerSlab : 8;

  Slab() = default;
  ~Slab() { ReleaseChunks(); }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  // Construct a T in a recycled (or freshly carved) slot. Only allocates
  // when the freelist is empty and the chunks are fully carved — never
  // again once the pool has reached its high-water mark.
  template <typename... Args>
  T* New(Args&&... args) {
    void* slot = free_head_;
    if (slot != nullptr) {
      free_head_ = free_head_->next;
    } else {
      slot = Carve();
    }
    T* obj = new (slot) T(std::forward<Args>(args)...);
    ++live_;
    if (live_ > peak_) {
      peak_ = live_;
      obs::Set(metric_peak_, static_cast<int64_t>(peak_));
    }
    obs::Set(metric_live_, static_cast<int64_t>(live_));
    return obj;
  }

  // Destroy `obj` and return its slot to the freelist. O(1), never releases
  // memory. Passing a pointer that did not come from this pool is undefined.
  void Delete(T* obj) {
    if (obj == nullptr) {
      return;
    }
    obj->~T();
    Recycle(obj);
  }

  // Return the slot of an already-destroyed object (for callers that ran the
  // destructor themselves, e.g. via placement destruction in containers).
  void Recycle(void* raw) {
    FreeSlot* slot = static_cast<FreeSlot*>(raw);
    slot->next = free_head_;
    free_head_ = slot;
    --live_;
    obs::Set(metric_live_, static_cast<int64_t>(live_));
  }

  // Drop every live object and make every slot free again, keeping the
  // chunks: a Reset() pool re-reaches its old population without
  // allocating. Live objects are not destroyed, so T must be trivially
  // destructible; pools of other types Delete() through their owner first.
  void Reset() {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Slab::Reset() cannot run non-trivial destructors on live objects; "
                  "Delete() them through the owning container first, then Reset()");
    free_head_ = nullptr;
    carve_chunk_ = nullptr;
    carve_next_ = carve_end_ = nullptr;
    live_ = 0;
    obs::Set(metric_live_, 0);
  }

  // Drop the chunks themselves (callers must have destroyed or abandoned
  // the live objects; their storage goes with the chunks).
  void Release() {
    ReleaseChunks();
    free_head_ = nullptr;
    carve_chunk_ = nullptr;
    carve_next_ = carve_end_ = nullptr;
    live_ = peak_ = chunk_count_ = capacity_ = 0;
    obs::Set(metric_live_, 0);
    obs::Set(metric_slabs_, 0);
  }

  size_t live() const { return live_; }
  size_t peak() const { return peak_; }
  size_t slab_count() const { return chunk_count_; }
  size_t capacity() const { return capacity_; }

  SlabStats stats() const {
    SlabStats s;
    s.live = live_;
    s.peak = peak_;
    s.slabs = chunk_count_;
    s.capacity = capacity_;
    s.slab_bytes = capacity_ * kSlotSize;
    return s;
  }

  // Register mem.<pool>.live/peak/slabs gauges. Null registry detaches.
  void AttachMetrics(obs::MetricsRegistry* registry, std::string_view pool) {
    if (registry == nullptr) {
      metric_live_ = metric_peak_ = metric_slabs_ = nullptr;
      return;
    }
    const std::string base = "mem." + std::string(pool);
    metric_live_ = registry->GetGauge(base + ".live");
    metric_peak_ = registry->GetGauge(base + ".peak");
    metric_slabs_ = registry->GetGauge(base + ".slabs");
    obs::Set(metric_live_, static_cast<int64_t>(live_));
    obs::Set(metric_peak_, static_cast<int64_t>(peak_));
    obs::Set(metric_slabs_, static_cast<int64_t>(chunk_count_));
  }

 private:
  // A freed slot doubles as a freelist node; slots are sized/aligned to fit
  // both a T and the link.
  struct FreeSlot {
    FreeSlot* next;
  };
  static constexpr size_t kSlotSize =
      sizeof(T) > sizeof(FreeSlot) ? sizeof(T) : sizeof(FreeSlot);
  static constexpr size_t kSlotAlign =
      alignof(T) > alignof(FreeSlot) ? alignof(T) : alignof(FreeSlot);
  static_assert(kSlotAlign <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "chunks come from plain operator new; over-aligned T is unsupported");

  // Chunk header; its slots follow at kHeaderSize. Chunks form a list in
  // allocation order, which is also the order Carve() walks after Reset().
  struct Chunk {
    Chunk* next;
    size_t slots;
  };
  static constexpr size_t kHeaderSize = (sizeof(Chunk) + kSlotAlign - 1) / kSlotAlign * kSlotAlign;

  static unsigned char* SlotsOf(Chunk* chunk) {
    return reinterpret_cast<unsigned char*>(chunk) + kHeaderSize;
  }

  // Hand out the next never-used slot: from the chunk being carved, else
  // from the next kept chunk (after a Reset), else from a new chunk.
  void* Carve() {
    if (carve_next_ == carve_end_) {
      Chunk* next = carve_chunk_ == nullptr ? first_chunk_ : carve_chunk_->next;
      if (next == nullptr) {
        next = AddChunk();
      }
      carve_chunk_ = next;
      carve_next_ = SlotsOf(next);
      carve_end_ = carve_next_ + next->slots * kSlotSize;
    }
    void* slot = carve_next_;
    carve_next_ += kSlotSize;
    return slot;
  }

  Chunk* AddChunk() {
    size_t slots = kFirstChunkSlots;
    if (last_chunk_ != nullptr) {
      slots = last_chunk_->slots * 2 < kObjectsPerSlab ? last_chunk_->slots * 2 : kObjectsPerSlab;
    }
    auto* chunk = static_cast<Chunk*>(::operator new(kHeaderSize + slots * kSlotSize));
    chunk->next = nullptr;
    chunk->slots = slots;
    (last_chunk_ == nullptr ? first_chunk_ : last_chunk_->next) = chunk;
    last_chunk_ = chunk;
    ++chunk_count_;
    capacity_ += slots;
    obs::Set(metric_slabs_, static_cast<int64_t>(chunk_count_));
    return chunk;
  }

  void ReleaseChunks() {
    while (first_chunk_ != nullptr) {
      Chunk* next = first_chunk_->next;
      ::operator delete(first_chunk_);
      first_chunk_ = next;
    }
    last_chunk_ = nullptr;
  }

  FreeSlot* free_head_ = nullptr;
  Chunk* first_chunk_ = nullptr;
  Chunk* last_chunk_ = nullptr;
  // The chunk slots are being carved from, and its unused tail.
  Chunk* carve_chunk_ = nullptr;
  unsigned char* carve_next_ = nullptr;
  unsigned char* carve_end_ = nullptr;
  size_t live_ = 0;
  size_t peak_ = 0;
  size_t chunk_count_ = 0;
  size_t capacity_ = 0;
  obs::Gauge* metric_live_ = nullptr;
  obs::Gauge* metric_peak_ = nullptr;
  obs::Gauge* metric_slabs_ = nullptr;
};

// unique_ptr-style RAII over a slab slot, for owners that want scoped
// lifetime without giving up pooled storage.
template <typename T, size_t kObjectsPerSlab = 256>
class SlabPtr {
 public:
  SlabPtr() = default;
  SlabPtr(Slab<T, kObjectsPerSlab>* pool, T* obj) : pool_(pool), obj_(obj) {}
  ~SlabPtr() { reset(); }

  SlabPtr(const SlabPtr&) = delete;
  SlabPtr& operator=(const SlabPtr&) = delete;
  SlabPtr(SlabPtr&& other) noexcept : pool_(other.pool_), obj_(other.obj_) {
    other.obj_ = nullptr;
  }
  SlabPtr& operator=(SlabPtr&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      obj_ = other.obj_;
      other.obj_ = nullptr;
    }
    return *this;
  }

  T* get() const { return obj_; }
  T* operator->() const { return obj_; }
  T& operator*() const { return *obj_; }
  explicit operator bool() const { return obj_ != nullptr; }

  void reset() {
    if (obj_ != nullptr) {
      pool_->Delete(obj_);
      obj_ = nullptr;
    }
  }

  T* release() {
    T* obj = obj_;
    obj_ = nullptr;
    return obj;
  }

 private:
  Slab<T, kObjectsPerSlab>* pool_ = nullptr;
  T* obj_ = nullptr;
};

}  // namespace natpunch

#endif  // SRC_UTIL_SLAB_H_
