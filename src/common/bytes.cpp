#include "common/bytes.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
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

// Inputs of at least kMinFoldBytes run four 512-bit accumulators over
// 256-byte rounds of carry-less multiplies (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel 2009), which `crc32`'s 8 bytes per cycle do not bound.
constexpr std::size_t kMinFoldBytes = 256;

// x^n mod P, reflected: bit 31 holds x^0.
constexpr std::uint32_t x_pow_mod(unsigned n) {
  std::uint32_t c = 0x80000000u;
  for (unsigned i = 0; i < n; ++i) c = times_x(c);
  return c;
}

// Folding a 16-byte block D bits ahead multiplies it by x^D mod P. Its
// low qword H holds x^127..x^64 and its high qword L x^63..x^0. The
// carry-less product of a reflected 64-bit and 32-bit value, read as a
// reflected 16-byte block, is their product times x^33, so H x^(64+D)
// is clmul(H, x^(D+31) mod P) and L x^D is clmul(L, x^(D-33) mod P):
// selectors 0x00 and 0x11 against the pair {lo, hi} in one lane.
struct FoldKey {
  long long lo;
  long long hi;
};
constexpr FoldKey fold_key(unsigned d) { return {x_pow_mod(d + 31), x_pow_mod(d - 33)}; }

__attribute__((target("avx512f"))) __m512i broadcast(FoldKey k) {
  return _mm512_set4_epi64(k.hi, k.lo, k.hi, k.lo);
}

// Each 16-byte lane of x carried D bits on (k = fold_key(D)), xor y.
__attribute__((target("avx512f,vpclmulqdq"))) __m512i fold(__m512i x, __m512i k, __m512i y) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), y, 0x96);
}

// At least kMinFoldBytes from the running CRC c; returns the finished
// CRC. The folds turn the input, with c xored into its first 4 bytes,
// into one 16-byte block congruent to it mod P, whose CRC from 0 is the
// input's CRC from c. vzeroupper precedes every exit: the callers run
// legacy SSE code, which pays for dirty upper halves of the vector
// registers on each instruction, and gcc 12 emits none before the tail
// call to crc_serial.
__attribute__((target("avx512f,avx512vl,vpclmulqdq,pclmul,sse4.2"), noinline)) std::uint32_t
crc_fold(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const __m512i init = _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(c)));
  __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(p), init);
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  constexpr FoldKey k2048 = fold_key(2048), k1536 = fold_key(1536), k1024 = fold_key(1024),
                    k512 = fold_key(512), k384 = fold_key(384), k256 = fold_key(256),
                    k128 = fold_key(128);
  const __m512i round = broadcast(k2048);
  for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
    x0 = fold(x0, round, _mm512_loadu_si512(p));
    x1 = fold(x1, round, _mm512_loadu_si512(p + 64));
    x2 = fold(x2, round, _mm512_loadu_si512(p + 128));
    x3 = fold(x3, round, _mm512_loadu_si512(p + 192));
  }
  // Four accumulators into x3, which x0 precedes by 1536 bits, x1 by
  // 1024 and x2 by 512.
  x3 = fold(x0, broadcast(k1536), x3);
  x3 = fold(x1, broadcast(k1024), x3);
  x3 = fold(x2, broadcast(k512), x3);
  // Its lanes 0-2 precede lane 3 by 384, 256 and 128 bits; lane 3 meets
  // a zero key and passes through the mask.
  const __m512i lanes = fold(
      x3, _mm512_set_epi64(0, 0, k128.hi, k128.lo, k256.hi, k256.lo, k384.hi, k384.lo),
      _mm512_maskz_mov_epi64(0xc0, x3));
  // The full-mask maskz extracts, because gcc 12's plain ones read an
  // _mm256_undefined_si256() that -Wuninitialized reports.
  const __m256i half = _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xf, lanes, 0),
                                        _mm512_maskz_extracti64x4_epi64(0xf, lanes, 1));
  __m128i x = _mm_xor_si128(_mm256_castsi256_si128(half), _mm256_extracti128_si256(half, 1));
  const __m128i k16 = _mm_set_epi64x(k128.hi, k128.lo);
  for (; n >= 16; p += 16, n -= 16) {
    x = _mm_ternarylogic_epi64(_mm_clmulepi64_si128(x, k16, 0x00),
                               _mm_clmulepi64_si128(x, k16, 0x11),
                               _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), 0x96);
  }
  std::uint64_t c64 = _mm_crc32_u64(0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(x)));
  c64 = _mm_crc32_u64(c64, static_cast<std::uint64_t>(_mm_extract_epi64(x, 1)));
  _mm256_zeroupper();
  return crc_serial(static_cast<std::uint32_t>(c64), p, n);
}

// The tiers' entry points in detail::crc32c_tiers(): any length, from
// the initial CRC.
std::uint32_t crc32c_lanes(std::span<const std::uint8_t> data) {
  return data.size() < 8 * kMinRoundWords ? crc_serial(0xffffffffu, data.data(), data.size())
                                          : crc_lanes(0xffffffffu, data.data(), data.size());
}

std::uint32_t crc32c_fold(std::span<const std::uint8_t> data) {
  return data.size() < kMinFoldBytes ? crc32c_lanes(data)
                                     : crc_fold(0xffffffffu, data.data(), data.size());
}
#endif
}  // namespace

namespace detail {
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t b : data) c = kCrcTable[(c ^ b) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::span<const Crc32cTier> crc32c_tiers() {
#if defined(__x86_64__)
  static constexpr Crc32cTier kTiers[] = {
      {"portable", 0, crc32c_portable},
      {"sse4.2", 0, crc32c_lanes},
      {"vpclmulqdq", kMinFoldBytes, crc32c_fold},
  };
  // The prefix of kTiers this CPU runs. Evaluated on first use, after
  // __builtin_cpu_init, so a call from another translation unit's static
  // initializer reads the CPU safely.
  static const std::span<const Crc32cTier> tiers = [] {
    __builtin_cpu_init();
    const bool lanes = __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
    const bool fold = lanes && __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("vpclmulqdq");
    return std::span(kTiers).first(fold ? 3 : lanes ? 2 : 1);
  }();
  return tiers;
#else
  static constexpr Crc32cTier kTiers[] = {{"portable", 0, crc32c_portable}};
  return kTiers;
#endif
}
}  // namespace detail

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  static const auto crc = detail::crc32c_tiers().back().crc;
  return crc(data);
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
