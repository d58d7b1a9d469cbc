// Vector with room for N elements inside the object itself.
//
// Every simulated node, link and NAT mapping keeps a few short lists: a
// host's interfaces and routes, a private LAN's attachments, the sessions
// of one mapping. Each std::vector among them costs a heap allocation on
// its first push_back, and the fleet and punch workloads build and tear
// down thousands of such small worlds. An InlineVector holds up to N
// elements without touching the heap; past N it moves them to a heap block
// that doubles like std::vector's. clear() keeps whichever storage is in
// use, so a recycled owner reuses it.
//
// Only for trivially copyable T (elements move by memcpy) and owners that
// never copy or move the container: the surrounding types are all
// identity-bearing (Node, Lan, pooled NAT entries).

#ifndef SRC_UTIL_INLINE_VECTOR_H_
#define SRC_UTIL_INLINE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace natpunch {

template <typename T, uint32_t N>
class InlineVector {
  static_assert(N > 0, "inline capacity must be at least one element");
  static_assert(std::is_trivially_copyable_v<T>, "elements are moved with memcpy");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "spilled elements live in a plain operator new block");

 public:
  InlineVector() = default;
  ~InlineVector() {
    if (on_heap()) {
      ::operator delete(heap_);
    }
  }

  InlineVector(const InlineVector&) = delete;
  InlineVector& operator=(const InlineVector&) = delete;

  size_t size() const { return size_; }

  T* data() { return on_heap() ? heap_ : reinterpret_cast<T*>(inline_); }
  const T* data() const { return on_heap() ? heap_ : reinterpret_cast<const T*>(inline_); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      Grow(value);
      return;
    }
    data()[size_++] = value;
  }

  void clear() { size_ = 0; }

 private:
  bool on_heap() const { return capacity_ > N; }

  // Move to a heap block twice the current capacity, then append `value`
  // (taken by copy first: it may be an element of this vector).
  void Grow(T value) {
    const uint32_t capacity = capacity_ * 2;
    T* block = static_cast<T*>(::operator new(sizeof(T) * capacity));
    std::memcpy(static_cast<void*>(block), data(), sizeof(T) * size_);
    if (on_heap()) {
      ::operator delete(heap_);
    }
    heap_ = block;
    capacity_ = capacity;
    heap_[size_++] = value;
  }

  union {
    alignas(T) unsigned char inline_[sizeof(T) * N];
    T* heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
};

}  // namespace natpunch

#endif  // SRC_UTIL_INLINE_VECTOR_H_
