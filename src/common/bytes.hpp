// Byte-order-safe serialization used by the wire protocols (rFaaS lease
// messages, HTTP bodies, code submission). Little-endian on the wire.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace rfs {

using Bytes = std::vector<std::uint8_t>;

/// Append-only byte writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }

  /// Length-prefixed string (u32 length + raw bytes).
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Length-prefixed blob.
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  /// Raw bytes, no length prefix.
  void raw(const void* data, std::size_t n) {
    auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Makes room for `n` bytes in all, so that writing up to `n`
  /// allocates once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Sequential byte reader with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  Result<std::uint8_t> u8() { return get<std::uint8_t>(); }
  Result<std::uint16_t> u16() { return get<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return get<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return get<std::uint64_t>(); }
  Result<double> f64() { return get<double>(); }

  Result<std::string> str() {
    auto len = u32();
    if (!len) return len.error();
    if (pos_ + len.value() > data_.size()) return Error::make(1, "ByteReader: string overrun");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len.value());
    pos_ += len.value();
    return s;
  }

  Result<Bytes> blob() {
    auto len = u32();
    if (!len) return len.error();
    if (pos_ + len.value() > data_.size()) return Error::make(1, "ByteReader: blob overrun");
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len.value()));
    pos_ += len.value();
    return b;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

  /// Any trivially copyable scalar, as its raw bytes.
  template <typename T>
  Result<T> get() {
    if (pos_ + sizeof(T) > data_.size()) return Error::make(1, "ByteReader: overrun");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// CRC-32C (Castagnoli: reflected polynomial 0x82F63B78, init and
/// xorout 0xFFFFFFFF), the payload CRC of iSCSI (RFC 3720), iWARP MPA
/// (RFC 5044) and NVMe/TCP. The CPU and the input length pick one of
/// three tiers (detail::crc32c_tiers()), all bit-identical:
/// - "vpclmulqdq", from 256 B on x86-64 CPUs with AVX-512F/VL and
///   VPCLMULQDQ: four 512-bit accumulators fold 256 bytes per round by
///   carry-less multiplication (Gopal et al., "Fast CRC Computation for
///   Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), then
///   reduce to one 16-byte block, fold in the 16-byte blocks left, and
///   `crc32` finishes that block and the 0-15 byte tail;
/// - "sse4.2", on the other inputs of CPUs with SSE4.2 and PCLMULQDQ:
///   the `crc32` instruction over 8-byte words, from 192 B on three
///   independent chains over adjacent lanes of up to 1 KiB each, joined
///   by carry-less multiplication (Gopal et al., "Fast CRC Computation
///   for iSCSI Polynomial Using CRC32 Instruction", Intel 2011), then
///   one chain for the rest and `crc32` on 4, 2 and 1 bytes for the 0-7
///   byte tail;
/// - "portable", detail::crc32c_portable, on every other CPU.
/// The data plane's payload checksum and the tests' end-to-end byte
/// checks both use it.
std::uint32_t crc32c(std::span<const std::uint8_t> data);

namespace detail {
/// The same CRC-32C one byte at a time through a 256-entry table: what
/// crc32c runs on CPUs without the instructions, callable anywhere so
/// that tests and benches reach it.
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data);

/// One of crc32c's tiers. `crc` takes any length: below `min_bytes` it
/// runs the previous tier's code.
struct Crc32cTier {
  const char* name;
  std::size_t min_bytes;
  std::uint32_t (*crc)(std::span<const std::uint8_t> data);
};

/// The tiers this CPU runs, slowest first, so that tests and benches
/// reach each one: "portable" (crc32c_portable) everywhere, then on
/// x86-64 "sse4.2" (the `crc32` chains) and "vpclmulqdq" (the 512-bit
/// folds). crc32c calls the last one's `crc`, so each input runs the
/// last tier whose `min_bytes` it meets.
std::span<const Crc32cTier> crc32c_tiers();
}  // namespace detail

/// Deterministic pattern fill used by tests and benches to validate
/// that bytes were actually moved end to end (zero-copy check).
void fill_pattern(std::span<std::uint8_t> out, std::uint64_t seed);

}  // namespace rfs
