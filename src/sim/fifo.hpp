// Ring-buffer FIFO for the simulator's queues.
//
// A power-of-two ring on a std::vector: the storage is allocated at the
// first push, doubles when full and never shrinks, so a queue that
// rotates in steady state (waiter lists, channels, completion and
// receive queues) allocates nothing. std::deque, by contrast, allocates
// and frees one node per 512 bytes pushed through it. pop_front() resets
// the slot to T{}, so a popped buffer or shared_ptr is released at once.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace rfs::sim {

template <typename T>
class Fifo {
 public:
  void push_back(T value) {
    if (size_ == ring_.size()) grow();
    ring_[slot(size_)] = std::move(value);
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return ring_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    ring_[head_] = T{};
    head_ = slot(1);
    --size_;
  }

  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return ring_[slot(i)];
  }

  /// Removes the i-th element; the others keep their order.
  void erase(std::size_t i) {
    assert(i < size_);
    if (i == 0) return pop_front();
    for (; i + 1 < size_; ++i) ring_[slot(i)] = std::move(ring_[slot(i + 1)]);
    ring_[slot(size_ - 1)] = T{};
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  std::size_t slot(std::size_t i) const { return (head_ + i) & (ring_.size() - 1); }

  void grow() {
    std::vector<T> next(ring_.empty() ? kInitialCapacity : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(ring_[slot(i)]);
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;  // size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rfs::sim
