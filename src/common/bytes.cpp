#include "common/bytes.hpp"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace rfs {

namespace {
// Constant-initialized, so crc32c works from any static initializer.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

std::uint32_t crc_bytes(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c = kCrcTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
// The instruction consumes a little-endian word, i.e. its 8 bytes in
// memory order. Payloads sit at arbitrary offsets (slot and receive
// buffers start 32 bytes in), hence the memcpy loads.
__attribute__((target("sse4.2"))) std::uint32_t crc_words(std::uint32_t c, const std::uint8_t* p,
                                                          std::size_t words) {
  std::uint64_t c64 = c;
  for (std::size_t i = 0; i < words; ++i, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c64 = _mm_crc32_u64(c64, word);
  }
  return static_cast<std::uint32_t>(c64);
}

bool have_crc_instruction() {
  // Evaluated on first use, after __builtin_cpu_init, so a call from
  // another translation unit's static initializer reads the CPU safely.
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}
#endif
}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (have_crc_instruction()) {
    c = crc_words(c, p, n / 8);
    p += n & ~std::size_t{7};
    n &= 7;
  }
#endif
  return crc_bytes(c, p, n) ^ 0xffffffffu;
}

void fill_pattern(std::span<std::uint8_t> out, std::uint64_t seed) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 0xb5297a4d3a2646c5ull;
  for (std::size_t i = 0; i < out.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::uint8_t>(x >> 56);
  }
}

}  // namespace rfs
