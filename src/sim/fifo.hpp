// Ring-buffer FIFO for the simulator's queues.
//
// A power-of-two ring on a std::vector that doubles when full and never
// shrinks, so a queue that rotates in steady state (waiter lists,
// channels, completion and receive queues) allocates nothing.
// std::deque, by contrast, allocates and frees one node per 512 bytes
// pushed through it. pop_front() resets the slot to T{}, so a popped
// buffer or shared_ptr is released at once.
//
// An inline slot, a ring of capacity one, serves until a second element
// arrives. Most queues of short-lived objects never hold two, so they
// never allocate.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rfs::sim {

template <typename T>
class Fifo {
 public:
  void push_back(T value) {
    if (size_ == capacity()) grow();
    data()[slot(size_)] = std::move(value);
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return data()[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    data()[head_] = T{};
    head_ = static_cast<std::uint32_t>(slot(1));
    --size_;
  }

  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return data()[slot(i)];
  }

  /// Removes the i-th element; the others keep their order.
  void erase(std::size_t i) {
    assert(i < size_);
    if (i == 0) return pop_front();
    for (; i + 1 < size_; ++i) data()[slot(i)] = std::move(data()[slot(i + 1)]);
    data()[slot(size_ - 1)] = T{};
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  T* data() { return ring_.empty() ? &one_ : ring_.data(); }
  std::size_t capacity() const { return ring_.empty() ? 1 : ring_.size(); }
  std::size_t slot(std::size_t i) const { return (head_ + i) & (capacity() - 1); }

  void grow() {
    assert(ring_.size() < (std::size_t{1} << 31));  // size_ must fit 32 bits
    std::vector<T> next(ring_.empty() ? kInitialCapacity : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(data()[slot(i)]);
    one_ = T{};
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;  // size is 0 or a power of two
  T one_{};              // the ring while ring_ is empty
  // 32 bits each, so that a waiter list keeps 40 bytes with its handle
  // slot: 8 bytes more per event and future raised alloc_churn's peak
  // RSS by 2-10%.
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace rfs::sim
