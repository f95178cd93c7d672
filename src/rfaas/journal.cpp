#include "rfaas/journal.hpp"

#include <tuple>

namespace rfs::rfaas {

namespace journal {

const char* to_string(Op op) {
  switch (op) {
    case Op::AddExecutor: return "add-executor";
    case Op::Grant: return "grant";
    case Op::Renew: return "renew";
    case Op::Release: return "release";
    case Op::Expire: return "expire";
    case Op::Evict: return "evict";
    case Op::SetDraining: return "set-draining";
    case Op::MarkDead: return "mark-dead";
    case Op::Migrate: return "migrate";
    case Op::Reattach: return "reattach";
  }
  return "unknown";
}

std::uint64_t chain_checksum(const JournalRecordMsg& r, std::uint64_t prev) {
  // Every field in wire order, except the checksum being computed.
  std::uint64_t h = prev;
  std::apply(
      [&](const auto&... f) {
        ((h = static_cast<const void*>(&f) == &r.checksum
                  ? h
                  : mix(h, static_cast<std::uint64_t>(f))),
         ...);
      },
      JournalRecordMsg::fields(r));
  return h;
}

}  // namespace journal

JournalRecordMsg Journal::append(JournalRecordMsg r) {
  std::lock_guard<std::mutex> lock(mu_);
  r.seq = next_seq_++;
  r.checksum = journal::chain_checksum(r, last_checksum_);
  last_checksum_ = r.checksum;
  records_.push_back(r);
  for (const auto& sink : sinks_) sink(r);
  return r;
}

void Journal::add_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
}

std::uint64_t Journal::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::uint64_t Journal::last_checksum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_checksum_;
}

std::size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::uint64_t Journal::base_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_seq_;
}

std::vector<JournalRecordMsg> Journal::records(std::uint64_t from_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JournalRecordMsg> out;
  for (const auto& r : records_) {
    if (r.seq >= from_seq) out.push_back(r);
  }
  return out;
}

void Journal::truncate_before(std::uint64_t upto_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t drop = 0;
  while (drop < records_.size() && records_[drop].seq < upto_seq) {
    base_checksum_ = records_[drop].checksum;
    ++drop;
  }
  if (drop == 0) return;
  records_.erase(records_.begin(), records_.begin() + static_cast<std::ptrdiff_t>(drop));
  base_seq_ = records_.empty() ? next_seq_ : records_.front().seq;
}

Bytes Journal::serialize(std::uint64_t from_seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter w;
  std::uint64_t seed = base_checksum_;
  std::uint64_t count = 0;
  std::uint64_t first = 0;
  std::uint64_t trailer = base_checksum_;
  for (const auto& r : records_) {
    if (r.seq < from_seq) {
      seed = r.checksum;
      continue;
    }
    if (count == 0) first = r.seq;
    ++count;
    trailer = r.checksum;
  }
  w.u64(first);
  w.u64(seed);
  w.u64(count);
  for (const auto& r : records_) {
    if (r.seq < from_seq) continue;
    std::uint8_t buf[kWireSize<JournalRecordMsg>];
    encode_into(r, buf, sizeof buf);
    w.raw(buf, sizeof buf);
  }
  w.u64(trailer);
  return w.take();
}

Result<std::vector<JournalRecordMsg>> Journal::deserialize(std::span<const std::uint8_t> raw) {
  ByteReader header(raw);
  auto first = header.u64();
  auto seed = header.u64();
  auto count = header.u64();
  if (!first || !seed || !count) return Error::make(30, "journal: truncated header");
  // Bound by the actual payload, never by the wire count: a corrupted
  // count must not drive allocation or reads past the buffer.
  const std::size_t body = raw.size() - 24;
  if (body < 8 || (body - 8) / kWireSize<JournalRecordMsg> < count.value()) {
    return Error::make(31, "journal: truncated log tail");
  }
  std::vector<JournalRecordMsg> out;
  out.reserve(static_cast<std::size_t>(count.value()));
  std::size_t off = 24;
  std::uint64_t prev = seed.value();
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto record = decode_journal_record(raw.subspan(off, kWireSize<JournalRecordMsg>));
    if (!record) return record.error();
    off += kWireSize<JournalRecordMsg>;
    const JournalRecordMsg& r = record.value();
    if (r.seq != first.value() + i) return Error::make(32, "journal: seq gap in log");
    if (r.checksum != journal::chain_checksum(r, prev)) {
      return Error::make(33, "journal: checksum chain mismatch");
    }
    prev = r.checksum;
    out.push_back(r);
  }
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, raw.data() + off, 8);
  off += 8;
  if (trailer != prev) return Error::make(34, "journal: trailer checksum mismatch");
  if (off != raw.size()) return Error::make(35, "journal: trailing bytes after log");
  return out;
}

}  // namespace rfs::rfaas
