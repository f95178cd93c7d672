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
  for (const auto& sink : sinks_) sink(r);
  return r;
}

void Journal::add_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
  streaming_.store(true, std::memory_order_relaxed);
}

std::uint64_t Journal::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::uint64_t Journal::last_checksum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_checksum_;
}

}  // namespace rfs::rfaas
