// Bounded window of recently seen ids, each with a value, for streams
// whose ids grow by one per entry (session request ids, eviction push
// sequence numbers).
//
// It holds exactly what a ring of `Window` slots indexed by id % Window
// would: an entry stays until an id a multiple of Window apart replaces
// it, so with ids that grow by one it keeps the last Window ids. The
// ring starts with kInitialSlots slots and doubles (re-placing its
// entries) only when two ids it must both keep meet in one slot, so a
// stream that sees a handful of ids never pays for the whole window.
// A reused slot keeps its value's storage (a reply's capacity, say).
// Id 0 is no entry's id; it marks an empty slot.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace rfs {

template <typename T, std::size_t Window>
class IdWindow {
  static_assert(std::has_single_bit(Window), "Window must be a power of two");

 public:
  /// The value recorded for `id`, or nullptr when the window lacks it.
  [[nodiscard]] T* find(std::uint64_t id) {
    if (id == 0 || slots_.empty()) return nullptr;
    Slot& s = slot_of(id);
    return s.id == id ? &s.value : nullptr;
  }

  /// Records `id` and returns its value: the one already recorded for
  /// `id`, else the storage of the entry it replaces (or T{}).
  T& insert(std::uint64_t id) {
    assert(id != 0);
    if (slots_.empty()) slots_.resize(std::min(kInitialSlots, Window));
    for (;;) {
      Slot& s = slot_of(id);
      // A ring of Window slots would put both ids in one slot: replace.
      if (s.id == 0 || (s.id - id) % Window == 0) {
        s.id = id;
        return s.value;
      }
      grow();
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 8;

  struct Slot {
    std::uint64_t id = 0;
    T value{};
  };

  Slot& slot_of(std::uint64_t id) { return slots_[id & (slots_.size() - 1)]; }

  void grow() {
    // Ids distinct modulo the old size stay distinct modulo twice it.
    std::vector<Slot> bigger(slots_.size() * 2);
    for (Slot& s : slots_) {
      if (s.id != 0) bigger[s.id & (bigger.size() - 1)] = std::move(s);
    }
    slots_.swap(bigger);
  }

  std::vector<Slot> slots_;  // power-of-two size, at most Window
};

}  // namespace rfs
