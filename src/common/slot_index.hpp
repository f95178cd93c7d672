// Index from nonzero 64-bit keys to the slots of a ring of at most Slots
// entries (a dedup window, say), for a ring whose keys arrive in no
// particular order.
//
// Open addressing with linear probing over twice as many buckets as
// slots, homed by Fibonacci hashing, so a lookup, which fresh keys make
// a miss, probes a bucket or two instead of scanning every slot. Erasing
// a slot shifts the rest of its probe run back (Knuth's Algorithm R),
// so no tombstones build up however often the ring turns over. A bucket
// holds slot + 1 (0: empty); the keys sit in one array by slot. The
// table is allocated at the first insert, so an index never used costs
// one pointer.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>

namespace rfs {

template <std::size_t Slots>
class SlotIndex {
  static_assert(std::has_single_bit(Slots) && Slots < 256,
                "a power of two below 256, so that a bucket holds slot + 1 in a byte");

 public:
  /// The slot mapped to `key`, or nullopt.
  [[nodiscard]] std::optional<std::size_t> find(std::uint64_t key) const {
    if (!t_) return std::nullopt;
    // At most half the buckets are full, so every probe run ends.
    for (std::size_t b = home(key);; b = next(b)) {
      const std::uint8_t s = t_->buckets[b];
      if (s == 0) return std::nullopt;
      if (t_->keys[s - 1] == key) return s - 1;
    }
  }

  /// Maps `key` to `slot`, which must not be mapped.
  void insert(std::uint64_t key, std::size_t slot) {
    if (!t_) t_ = std::make_unique<Table>();
    t_->keys[slot] = key;
    std::size_t b = home(key);
    while (t_->buckets[b] != 0) b = next(b);
    t_->buckets[b] = static_cast<std::uint8_t>(slot + 1);
  }

  /// Unmaps `slot`, which must be mapped.
  void erase(std::size_t slot) {
    auto& buckets = t_->buckets;
    std::size_t hole = home(t_->keys[slot]);
    while (buckets[hole] != slot + 1) hole = next(hole);
    // Pull each later entry of the run into the hole, unless the hole
    // lies before (cyclically) that entry's home bucket.
    for (std::size_t j = next(hole); buckets[j] != 0; j = next(j)) {
      const std::size_t h = home(t_->keys[buckets[j] - 1]);
      if ((j - h) % kBuckets >= (j - hole) % kBuckets) {
        buckets[hole] = buckets[j];
        hole = j;
      }
    }
    buckets[hole] = 0;
  }

 private:
  static constexpr std::size_t kBuckets = 2 * Slots;
  static constexpr int kBucketBits = std::countr_zero(kBuckets);

  static std::size_t home(std::uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> (64 - kBucketBits);
  }
  static std::size_t next(std::size_t b) { return (b + 1) % kBuckets; }

  struct Table {
    std::array<std::uint8_t, kBuckets> buckets{};
    std::array<std::uint64_t, Slots> keys{};
  };
  std::unique_ptr<Table> t_;
};

}  // namespace rfs
