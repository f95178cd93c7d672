// Unit tests for the common utilities: statistics, base64, byte
// serialization, CRC, PRNG determinism, units, the id window, the slot
// index and the bench table.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "common/base64.hpp"
#include "common/bytes.hpp"
#include "common/id_window.hpp"
#include "common/slot_index.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace rfs {
namespace {

TEST(Units, Literals) {
  EXPECT_EQ(1_us, 1000u);
  EXPECT_EQ(2_ms, 2'000'000u);
  EXPECT_EQ(1_s, 1'000'000'000u);
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(3_MiB, 3u * 1024 * 1024);
}

TEST(Units, TransferTime) {
  // 1 GB at 1 GB/s = 1 s.
  EXPECT_EQ(transfer_time(1'000'000'000, 1e9), 1_s);
  EXPECT_EQ(transfer_time(0, 1e9), 0u);
  // Sub-nanosecond transfers round up to 1 ns.
  EXPECT_EQ(transfer_time(1, 1e12), 1u);
}

TEST(Stats, MedianOddEven) {
  Summary odd({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median(), 2.0);
  Summary even({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(Stats, Percentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Summary s(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(Stats, MeanStd) {
  Summary s({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Stats, MedianCiContainsMedian) {
  std::vector<double> v;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) v.push_back(rng.normal(10.0, 2.0));
  Summary s(v);
  auto ci = s.median_ci(0.95);
  EXPECT_LE(ci.low, ci.median);
  EXPECT_GE(ci.high, ci.median);
  // For 1000 samples of N(10, 2) the CI of the median must be tight.
  EXPECT_NEAR(ci.median, 10.0, 0.3);
  EXPECT_LT(ci.high - ci.low, 1.0);
}

TEST(Stats, TinySampleCiFallsBackToRange) {
  Summary s({1.0, 2.0, 3.0});
  auto ci = s.median_ci(0.95);
  EXPECT_DOUBLE_EQ(ci.low, 1.0);
  EXPECT_DOUBLE_EQ(ci.high, 3.0);
}

TEST(Stats, Online) {
  OnlineStats os;
  for (double x : {1.0, 2.0, 3.0, 4.0}) os.add(x);
  EXPECT_DOUBLE_EQ(os.mean(), 2.5);
  EXPECT_DOUBLE_EQ(os.min(), 1.0);
  EXPECT_DOUBLE_EQ(os.max(), 4.0);
  EXPECT_NEAR(os.stddev(), 1.2909944, 1e-6);
}

TEST(Base64, KnownVectors) {
  // RFC 4648 test vectors.
  EXPECT_EQ(base64::encode(std::string("")), "");
  EXPECT_EQ(base64::encode(std::string("f")), "Zg==");
  EXPECT_EQ(base64::encode(std::string("fo")), "Zm8=");
  EXPECT_EQ(base64::encode(std::string("foo")), "Zm9v");
  EXPECT_EQ(base64::encode(std::string("foob")), "Zm9vYg==");
  EXPECT_EQ(base64::encode(std::string("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64::encode(std::string("foobar")), "Zm9vYmFy");
}

TEST(Base64, RejectsMalformed) {
  EXPECT_FALSE(base64::decode("abc").ok());      // not multiple of 4
  EXPECT_FALSE(base64::decode("a=bc").ok());     // misplaced padding
  EXPECT_FALSE(base64::decode("ab!c").ok());     // invalid character
  EXPECT_FALSE(base64::decode("=abc").ok());     // padding first
}

class Base64RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Base64RoundTrip, EncodeDecodeIdentity) {
  Bytes data(GetParam());
  fill_pattern(data, GetParam() + 1);
  auto encoded = base64::encode(std::span<const std::uint8_t>(data));
  EXPECT_EQ(encoded.size(), base64::encoded_size(data.size()));
  auto decoded = base64::decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Base64RoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 63, 64, 65, 1000, 4096, 100001));

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u16(300);
  w.u32(70000);
  w.u64(1ull << 40);
  w.f64(3.25);
  w.str("hello");
  w.blob(Bytes{1, 2, 3});
  Bytes buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8().value(), 7);
  EXPECT_EQ(r.u16().value(), 300);
  EXPECT_EQ(r.u32().value(), 70000u);
  EXPECT_EQ(r.u64().value(), 1ull << 40);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.25);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_EQ(r.blob().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderRejectsOverrun) {
  Bytes buf{1, 2};
  ByteReader r(buf);
  EXPECT_TRUE(r.u16().ok());
  EXPECT_FALSE(r.u32().ok());
}

TEST(Bytes, ReaderRejectsTruncatedString) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow
  w.raw("ab", 2);
  Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_FALSE(r.str().ok());
}

TEST(Bytes, Crc32cKnownValues) {
  // RFC 3720 appendix B.4 vectors, plus the catalogue check value.
  std::array<std::uint8_t, 32> zeros{}, ones{}, up{}, down{};
  ones.fill(0xFF);
  for (std::uint8_t i = 0; i < 32; ++i) {
    up[i] = i;
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(crc32c(up), 0x46DD794Eu);
  EXPECT_EQ(crc32c(down), 0x113FDB5Cu);
  const char* s = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

/// The CRC-32C of every prefix of `data`, one bit at a time straight
/// from the reflected polynomial: element i covers data[0, i).
std::vector<std::uint32_t> crc32c_reference_prefixes(std::span<const std::uint8_t> data) {
  std::vector<std::uint32_t> out{0};
  out.reserve(data.size() + 1);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : (c >> 1);
    out.push_back(c ^ 0xFFFFFFFFu);
  }
  return out;
}

/// crc32c and every tier this CPU runs (detail::crc32c_tiers(), not only
/// the one crc32c dispatches to) against the reference at each of
/// `lengths` (ascending) from start offsets 0..7, so loads are
/// unaligned. Prints the tiers, so a log shows which ones ran.
void expect_kernels_match_reference(const std::vector<std::size_t>& lengths) {
  std::cout << "[ tiers    ] crc32c tiers checked:";
  for (const detail::Crc32cTier& tier : detail::crc32c_tiers()) {
    std::cout << ' ' << tier.name << " (from " << tier.min_bytes << " B)";
  }
  std::cout << '\n';
  Bytes buf(lengths.back() + 7);
  fill_pattern(buf, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::span<const std::uint8_t> all(buf.data() + offset, lengths.back());
    const std::vector<std::uint32_t> want = crc32c_reference_prefixes(all);
    for (std::size_t len : lengths) {
      const auto data = all.first(len);
      ASSERT_EQ(crc32c(data), want[len]) << "crc32c, offset " << offset << " len " << len;
      for (const detail::Crc32cTier& tier : detail::crc32c_tiers()) {
        ASSERT_EQ(tier.crc(data), want[len])
            << "tier " << tier.name << ", offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Bytes, Crc32cMatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..4096: one `crc32` chain below 192 B, one or two
  // rounds of three lanes from there, 1-16 rounds of 256-byte folds from
  // 256 B with every count of 16-byte folds after them, and every 0-15
  // byte tail (4-, 2- and 1-byte `crc32`, or the table in the portable
  // kernel).
  std::vector<std::size_t> lengths(4097);
  std::iota(lengths.begin(), lengths.end(), 0);
  expect_kernels_match_reference(lengths);
}

TEST(Bytes, Crc32cMatchesBitwiseReferenceAcrossRounds) {
  // Up to 13 KiB: four full rounds of three 1 KiB lanes plus every
  // remainder (each multiple of 8 and the lengths 1 and 7 either side of
  // it), and 52 rounds of 256-byte folds ending in each 64-byte quarter
  // of a round (each multiple of 64 and the lengths 1 and 15 either side
  // of it). Then 1 MiB: 341 full lane rounds, a short one and two words;
  // 4,096 fold rounds.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 13 * 1024 + 7; ++len) {
    if (len % 8 <= 1 || len % 8 == 7 || len % 64 == 15 || len % 64 == 64 - 15) {
      lengths.push_back(len);
    }
  }
  lengths.push_back(std::size_t{1} << 20);
  expect_kernels_match_reference(lengths);
}

TEST(Bytes, PatternIsDeterministicAndSeedSensitive) {
  Bytes a(256), b(256), c(256);
  fill_pattern(a, 1);
  fill_pattern(b, 1);
  fill_pattern(c, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(IdWindow, HoldsExactlyWhatAFixedRingHolds) {
  // Reference: a ring of Window slots indexed by id % Window. Ids mostly
  // grow by one, sometimes skip ahead, sometimes repeat an older id (a
  // stale duplicate), so the growing ring must agree on every lookup.
  constexpr std::size_t kWindow = 64;
  std::mt19937_64 rng(7);
  IdWindow<std::uint64_t, kWindow> window;
  std::array<std::uint64_t, kWindow> ring{};  // id per slot, 0 = empty
  std::uint64_t next = 1;
  for (int i = 0; i < 20'000; ++i) {
    std::uint64_t id = next;
    if (rng() % 8 == 0) {
      id = next > 200 ? next - 1 - rng() % 200 : next;  // an older id again
    } else {
      next += rng() % 16 == 0 ? 1 + rng() % 100 : 1;
    }
    for (std::uint64_t probe = id > 150 ? id - 150 : 1; probe <= id + 2; ++probe) {
      const std::uint64_t* got = window.find(probe);
      ASSERT_EQ(got != nullptr, ring[probe % kWindow] == probe) << "id " << probe;
      if (got != nullptr) {
        EXPECT_EQ(*got, probe * 3);
      }
    }
    window.insert(id) = id * 3;
    ring[id % kWindow] = id;
  }
  EXPECT_EQ(window.find(0), nullptr);
}

TEST(IdWindow, KeepsTheLastWindowIdsAndReusesSlotStorage) {
  IdWindow<Bytes, 4> window;
  for (std::uint64_t id = 1; id <= 6; ++id) window.insert(id).assign(100, static_cast<std::uint8_t>(id));
  EXPECT_EQ(window.find(2), nullptr);  // replaced by 6
  ASSERT_NE(window.find(3), nullptr);
  EXPECT_EQ(window.find(3)->front(), 3u);
  // Id 7 replaces id 3 in its slot and gets that slot's buffer.
  const std::uint8_t* storage = window.find(3)->data();
  Bytes& reused = window.insert(7);
  EXPECT_EQ(reused.data(), storage);
  EXPECT_EQ(window.find(3), nullptr);
}

TEST(SlotIndex, FindsWhatALinearScanOfTheRingFinds) {
  // The executor's dedup window: a ring of 128 slots overwritten oldest
  // first, keys from several clients interleaved, some looked up again
  // (retries). Every lookup must agree with a scan of the ring, also
  // after the ring has turned over many times.
  constexpr std::size_t kSlots = 128;
  std::mt19937_64 rng(11);
  SlotIndex<kSlots> index;
  std::vector<std::uint64_t> ring;  // key per slot
  std::size_t oldest = 0;
  std::vector<std::uint64_t> seen;
  auto scan = [&](std::uint64_t key) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      if (ring[i] == key) return i;
    }
    return std::nullopt;
  };
  std::array<std::uint64_t, 4> next_seq{};
  for (int i = 0; i < 50'000; ++i) {
    std::uint64_t key;
    if (!seen.empty() && rng() % 3 == 0) {
      key = seen[seen.size() - 1 - rng() % std::min<std::size_t>(seen.size(), 300)];
    } else {
      const std::size_t client = rng() % next_seq.size();
      key = (static_cast<std::uint64_t>(client + 1) << 32) | ++next_seq[client];
    }
    ASSERT_EQ(index.find(key), scan(key)) << "step " << i;
    if (scan(key)) continue;
    std::size_t slot = ring.size();
    if (slot < kSlots) {
      ring.push_back(key);
    } else {
      slot = oldest;
      oldest = (oldest + 1) % kSlots;
      index.erase(slot);
      ring[slot] = key;
    }
    index.insert(key, slot);
    seen.push_back(key);
  }
  for (const std::uint64_t key : ring) EXPECT_EQ(index.find(key), scan(key));
}

TEST(Rng, DeterministicStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  OnlineStats os;
  for (int i = 0; i < 20000; ++i) os.add(rng.normal(4.0, 3.0));
  EXPECT_NEAR(os.mean(), 4.0, 0.1);
  EXPECT_NEAR(os.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  OnlineStats os;
  for (int i = 0; i < 20000; ++i) os.add(rng.exponential(0.5));
  EXPECT_NEAR(os.mean(), 2.0, 0.1);
}

std::string json_of(const Table& table) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  table.print_json(out);
  std::fclose(out);
  std::string json(buf, len);
  std::free(buf);
  return json;
}

TEST(Table, ShortRowsArePaddedToTheHeader) {
  Table table({"a", "b", "c"});
  table.row({"1"});
  table.row({"1", "2", "3"});
  EXPECT_EQ(json_of(table),
            "{\"columns\": [\"a\", \"b\", \"c\"], "
            "\"rows\": [[\"1\", \"\", \"\"], [\"1\", \"2\", \"3\"]]}\n");
}

TEST(TableDeathTest, RowWiderThanTheHeaderAborts) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.row({"1", "2", "3"}), "3 cells for 2 columns");
}

}  // namespace
}  // namespace rfs
