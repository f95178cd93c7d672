#include "common/bytes.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#include <wmmintrin.h>
#endif

namespace rfs {

namespace {
constexpr std::uint32_t kCrcPoly = 0x82f63b78u;

// One step of the reflected CRC: the state times x, mod P.
constexpr std::uint32_t times_x(std::uint32_t c) { return (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1; }

// Constant-initialized, so crc32c works from any static initializer.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = times_x(c);
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

#if defined(__x86_64__)
// Inputs of at least kMinRoundWords 8-byte words run in rounds of three
// adjacent lanes of equal length, at most kMaxLaneWords each: three
// independent `crc32` chains keep the unit busy through the
// instruction's 3-cycle latency, where one chain waits it out.
constexpr std::size_t kMaxLaneWords = 128;
constexpr std::size_t kMinRoundWords = 24;

// kShift[w] = x^(64w - 32) mod P (reflected), the factor that moves a
// lane's CRC past the next lane's w words; see shift(). Entry 0 is
// unused: a lane has at least kMinRoundWords / 3 words.
constexpr std::array<std::uint32_t, kMaxLaneWords + 1> make_shift_table() {
  std::array<std::uint32_t, kMaxLaneWords + 1> k{};
  std::uint32_t xn = 0x80000000u;  // x^0
  for (int i = 0; i < 32; ++i) xn = times_x(xn);
  for (std::size_t w = 1; w <= kMaxLaneWords; ++w) {
    k[w] = xn;
    for (int i = 0; i < 64; ++i) xn = times_x(xn);
  }
  return k;
}
constexpr std::array<std::uint32_t, kMaxLaneWords + 1> kShift = make_shift_table();

// The instruction consumes a little-endian word, i.e. its 8 bytes in
// memory order. Payloads sit at arbitrary offsets (slot and receive
// buffers start 32 bytes in), hence the memcpy loads.
std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// One chain over the words, then the 0-7 byte tail, from the running
// CRC c; returns the finished CRC (xorout applied). Aligned so that the
// word loop, after a short prologue, sits in one 64-byte fetch block:
// where it straddled two, BM_Crc32c/64 ran ~45% slower on a Xeon VM.
__attribute__((target("sse4.2"), aligned(64))) std::uint32_t crc_serial(std::uint32_t c,
                                                                       const std::uint8_t* p,
                                                                       std::size_t n) {
  std::uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) c64 = _mm_crc32_u64(c64, load_word(p));
  c = static_cast<std::uint32_t>(c64);
  if (n & 4) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    c = _mm_crc32_u32(c, v);
    p += 4;
  }
  if (n & 2) {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof v);
    c = _mm_crc32_u16(c, v);
    p += 2;
  }
  if (n & 1) c = _mm_crc32_u8(c, *p);
  return c ^ 0xffffffffu;
}

// c * x^(64w) mod P for k = kShift[w]. The carry-less product of two
// reflected 32-bit values is their product reflected into bits 0..62;
// shifted left by one it is a reflected 64-bit word, and `crc32` of that
// word from 0 multiplies it by x^32 and reduces it mod P.
__attribute__((target("sse4.2,pclmul"))) std::uint64_t shift(std::uint64_t c, __m128i k) {
  const __m128i prod = _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(c)), k, 0);
  return _mm_crc32_u64(0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(prod)) << 1);
}

// Rounds of three lanes while at least kMinRoundWords words remain, then
// crc_serial finishes. Out of line so that short inputs, which
// crc32c sends straight to crc_serial, pay none of its register saves.
__attribute__((target("sse4.2,pclmul"), noinline)) std::uint32_t crc_lanes(std::uint32_t c,
                                                                           const std::uint8_t* p,
                                                                           std::size_t n) {
  std::uint64_t c0 = c;
  while (n >= 8 * kMinRoundWords) {
    const std::size_t lane = std::min(n / 8 / 3, kMaxLaneWords);
    const std::size_t lane_bytes = 8 * lane;
    const std::uint8_t* p1 = p + lane_bytes;
    const std::uint8_t* p2 = p1 + lane_bytes;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < lane_bytes; i += 8) {
      c0 = _mm_crc32_u64(c0, load_word(p + i));
      c1 = _mm_crc32_u64(c1, load_word(p1 + i));
      c2 = _mm_crc32_u64(c2, load_word(p2 + i));
    }
    // CRC is linear: the CRC of lanes A then B is A's CRC carried past
    // B's length, xor B's CRC from 0.
    const __m128i k = _mm_cvtsi32_si128(static_cast<int>(kShift[lane]));
    c0 = shift(c0, k) ^ c1;
    c0 = shift(c0, k) ^ c2;
    p += 3 * lane_bytes;
    n -= 3 * lane_bytes;
  }
  return crc_serial(static_cast<std::uint32_t>(c0), p, n);
}

bool have_crc_instructions() {
  // Evaluated on first use, after __builtin_cpu_init, so a call from
  // another translation unit's static initializer reads the CPU safely.
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
  }();
  return have;
}
#endif
}  // namespace

namespace detail {
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t b : data) c = kCrcTable[(c ^ b) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}
}  // namespace detail

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
#if defined(__x86_64__)
  if (have_crc_instructions()) {
    return data.size() < 8 * kMinRoundWords ? crc_serial(0xffffffffu, data.data(), data.size())
                                            : crc_lanes(0xffffffffu, data.data(), data.size());
  }
#endif
  return detail::crc32c_portable(data);
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
