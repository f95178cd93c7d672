// Property-style robustness tests of the wire codecs: every prefix
// truncation and random byte corruption of every message type must be
// rejected cleanly (error Result) — never crash, never mis-decode into a
// different type's fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/http.hpp"
#include "rfaas/protocol.hpp"

namespace rfs::rfaas {
namespace {

// The fixed-layout wire sizes, type byte included. The field lists
// derive them; these pin them.
static_assert(kWireSize<LeaseRequestMsg> == 33);
static_assert(kWireSize<LeaseGrantMsg> == 37);
static_assert(kWireSize<ExtendLeaseMsg> == 25);
static_assert(kWireSize<ExtendOkMsg> == 25);
static_assert(kWireSize<LeaseDeniedMsg> == 18);
static_assert(kWireSize<JournalRecordMsg> == 74);
static_assert(kWireSize<SnapshotOfferMsg> == 37);
static_assert(kWireSize<FailoverAnnounceMsg> == 21);
static_assert(kWireSize<LeaseRevalidateMsg> == 21);
static_assert(kWireSize<InvocationCancelMsg> == 21);
static_assert(kWireSize<HealthReportMsg> == 29);
static_assert(kWireSize<HealthReportOkMsg> == 9);
static_assert(kWireSize<RegisterExecutorMsg> == 37);
static_assert(kWireSize<RegisterOkMsg> == 23);
static_assert(kWireSize<AllocationRequestMsg> == 43);
static_assert(kWireSize<SubmitCodeOkMsg> == 3);
static_assert(kWireSize<DeallocateMsg> == 17);
static_assert(kWireSize<ReleaseResourcesMsg> == 29);
static_assert(kWireSize<ReleaseOkMsg> == 17);
static_assert(kWireSize<BatchAllocateMsg> == 34);
static_assert(kWireSize<LeaseRenewedMsg> == 17);
static_assert(kWireSize<SubscribeEventsMsg> == 5);
// A string or vector makes the layout variable.
static_assert(!FixedLayout<AllocationReplyMsg> && !FixedLayout<SubmitCodeMsg> &&
              !FixedLayout<BatchGrantedMsg> && !FixedLayout<LeasesTerminatedMsg>);

std::vector<Bytes> sample_messages() {
  std::vector<Bytes> msgs;
  RegisterExecutorMsg reg;
  reg.device = 3;
  reg.alloc_port = 7000;
  reg.rdma_port = 7001;
  reg.cores = 36;
  reg.memory_bytes = 1ull << 36;
  reg.epoch = 4;
  reg.request_id = (4ull << 32) | 1;
  msgs.push_back(encode(reg));
  msgs.push_back(encode(RegisterOkMsg{6001, 0xFEEDFACE, 77, (4ull << 32) | 1}));
  msgs.push_back(encode(LeaseRequestMsg{9, 16, 1_GiB, 60_s, (1ull << 32) | 9}));
  LeaseGrantMsg grant;
  grant.lease_id = (2ull << 48) | 11;
  grant.device = 3;
  grant.alloc_port = 7000;
  grant.rdma_port = 7001;
  grant.workers = 4;
  grant.expires_at = 90_s;
  grant.request_id = (1ull << 32) | 9;
  msgs.push_back(encode(grant));
  msgs.push_back(encode_lease_error("nope"));
  msgs.push_back(encode_lease_error("stale epoch", (2ull << 32) | 3));
  LeaseDeniedMsg denied;
  denied.reason = static_cast<std::uint8_t>(DenialReason::Overload);
  denied.retry_after = 25_ms;
  denied.request_id = (1ull << 32) | 10;
  msgs.push_back(encode(denied));
  AllocationRequestMsg alloc;
  alloc.lease_id = 5;
  alloc.client_id = 9;
  alloc.workers = 2;
  alloc.memory_bytes = 256ull << 20;
  alloc.sandbox = 1;
  alloc.policy = 2;
  alloc.hot_timeout = 5_ms;
  alloc.expires_at = 90_s;
  msgs.push_back(encode(alloc));
  AllocationReplyMsg reply;
  reply.ok = true;
  reply.sandbox_id = 8;
  reply.rdma_port = 7002;
  reply.spawn_ns = 1234;
  reply.error = "";
  msgs.push_back(encode(reply));
  AllocationReplyMsg failed;
  failed.ok = false;
  failed.error = "no free cores";
  msgs.push_back(encode(failed));
  SubmitCodeMsg code;
  code.sandbox_id = 8;
  code.function_name = "echo";
  code.code_size = 7880;
  msgs.push_back(encode(code));
  msgs.push_back(encode(SubmitCodeOkMsg{3}));
  msgs.push_back(encode(DeallocateMsg{1, 2}));
  msgs.push_back(encode(ReleaseResourcesMsg{1, 2, 3, (5ull << 32) | 8}));
  msgs.push_back(encode(ReleaseOkMsg{1, (5ull << 32) | 8}));
  msgs.push_back(encode(ExtendLeaseMsg{(7ull << 48) | 42, 30_s, (6ull << 32) | 2}));
  msgs.push_back(encode(ExtendOkMsg{(7ull << 48) | 42, 90_s, (6ull << 32) | 2}));
  BatchAllocateMsg batch;
  batch.client_id = 9;
  batch.workers = 32;
  batch.memory_bytes = 256ull << 20;
  batch.timeout = 60_s;
  batch.mode = 1;
  batch.request_id = (3ull << 32) | 4;
  msgs.push_back(encode(batch));
  BatchGrantedMsg granted;
  granted.complete = true;
  LeaseGrantMsg g1;
  g1.lease_id = (1ull << 48) | 7;
  g1.device = 5;
  g1.alloc_port = 7100;
  g1.rdma_port = 7101;
  g1.workers = 4;
  g1.expires_at = 60_s;
  g1.request_id = 99;  // not on the wire: a nested grant has no request id
  granted.grants = {g1, LeaseGrantMsg{}};
  granted.error = "";
  granted.request_id = (3ull << 32) | 4;
  msgs.push_back(encode(granted));
  BatchGrantedMsg partial;
  partial.complete = false;
  partial.error = "insufficient capacity";
  partial.request_id = (3ull << 32) | 5;
  msgs.push_back(encode(partial));
  msgs.push_back(encode(LeaseRenewedMsg{(3ull << 48) | 5, 120_s}));
  LeasesTerminatedMsg sweep;
  sweep.reason = static_cast<std::uint8_t>(TerminationReason::QuotaPressure);
  sweep.evicted_at = 46_s;
  sweep.lease_ids = {(2ull << 48) | 9, (2ull << 48) | 10};
  sweep.seq = 13;
  msgs.push_back(encode(sweep));
  msgs.push_back(encode(SubscribeEventsMsg{77}));
  JournalRecordMsg rec;
  rec.seq = 17;
  rec.op = 2;  // journal::Op::Grant
  rec.lease_id = (3ull << 48) | 9;
  rec.client_id = 5;
  rec.executor = (3ull << 48) | 1;
  rec.workers = 4;
  rec.memory = 256ull << 20;
  rec.time = 90_s;
  rec.aux = 1;
  rec.aux2 = (7ull << 32) | 36;
  rec.checksum = 0xDEADBEEFCAFEull;
  msgs.push_back(encode(rec));
  msgs.push_back(encode(SnapshotOfferMsg{2, 4096, 0xFACEFEEDull, 12}));
  msgs.push_back(encode(FailoverAnnounceMsg{2, 4100, 7_s}));
  msgs.push_back(encode(LeaseRevalidateMsg{5, (3ull << 48) | 9, (4ull << 32) | 2}));
  msgs.push_back(encode(InvocationCancelMsg{7, (2ull << 32) | 15, 0}));
  HealthReportMsg health;
  health.client_id = 7;
  health.device = 3;
  health.latency_us = 812;
  health.ok_count = 40;
  health.fail_count = 3;
  health.request_id = (5ull << 32) | 21;
  msgs.push_back(encode(health));
  msgs.push_back(encode(HealthReportOkMsg{(5ull << 32) | 21}));
  return msgs;
}

std::string hex(const Bytes& raw) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : raw) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// Tries every decoder on `raw`; returns how many accepted it.
int accepted_by_any(const Bytes& raw) {
  int n = decode_lease_error(raw).ok();
#define RFS_TRY_DECODER(Name, decoder) n += decoder(raw).ok();
  RFS_CONTROL_MESSAGES(RFS_TRY_DECODER)
#undef RFS_TRY_DECODER
  return n;
}

TEST(ProtocolFuzz, EveryListedMessageHasASample) {
  // The fuzz cases below run over sample_messages(); a message added to
  // RFS_CONTROL_MESSAGES without a sample would escape them.
  std::set<std::uint8_t> sampled;
  for (const auto& msg : sample_messages()) sampled.insert(msg[0]);
  std::vector<std::pair<MsgType, const char*>> listed = {{MsgType::LeaseError, "LeaseError"}};
#define RFS_LIST_TYPE(Name, decoder) listed.emplace_back(Name##Msg::kType, #Name);
  RFS_CONTROL_MESSAGES(RFS_LIST_TYPE)
#undef RFS_LIST_TYPE
  for (const auto& [type, name] : listed) {
    EXPECT_TRUE(sampled.contains(static_cast<std::uint8_t>(type))) << name << " has no sample";
  }
}

TEST(ProtocolFuzz, EveryMessageDecodedByExactlyOneDecoder) {
  for (const auto& msg : sample_messages()) {
    EXPECT_EQ(accepted_by_any(msg), 1) << "type byte " << int(msg[0]);
  }
}

TEST(ProtocolGolden, SampleMessagesKeepTheirWireBytes) {
  // The wire format of every sample, byte for byte. The codecs are
  // derived from the messages' field lists, so reordering or retyping a
  // field, or a change in the shared codec, shows up here.
  const std::vector<std::string> golden = {
      "0003000000581b591b24000000000000001000000004000000000000000100000004000000",
      "017117cefaedfe000000004d0000000100000004000000",
      "0209000000100000000000004000000000005847f80d0000000900000001000000",
      "030b0000000000020003000000581b591b0400000000046bf4140000000900000001000000",
      "04040000006e6f70650000000000000000",
      "040b0000007374616c652065706f63680300000002000000",
      "170040787d01000000000a00000001000000",
      "050500000000000000090000000200000000000010000000000102404b4c000000000000046bf414000000",
      "060108000000000000005a1bd20400000000000000000000",
      "06000000000000000000000000000000000000000d0000006e6f206672656520636f726573",
      "070800000000000000040000006563686fc81e000000000000",
      "080300",
      "0901000000000000000200000000000000",
      "0e01000000000000000200000003000000000000000800000005000000",
      "1601000000000000000800000005000000",
      "0f2a0000000000070000ac23fc060000000200000006000000",
      "102a0000000000070000046bf4140000000200000006000000",
      "1109000000200000000000001000000000005847f80d000000010400000003000000",
      "120102000000070000000000010005000000bc1bbd1b04000000005847f80d00000000000000000000000000000000000000000000000000000000000000000000000400000003000000",
      "12000000000015000000696e73756666696369656e742063617061636974790500000003000000",
      "13050000000000030000b08ef01b000000",
      "1500004cd0b50a0000000200000009000000000002000a000000000002000d00000000000000",
      "144d000000",
      "18110000000000000002090000000000030005000000010000000000030004000000000000100000000000046bf41400000001000000000000002400000007000000fecaefbeadde0000",
      "19020000000010000000000000edfecefa000000000c000000000000000000000000000000",
      "1a02000000041000000000000000863ba101000000",
      "1b0500000009000000000003000200000004000000",
      "1c070000000f000000020000000000000000000000",
      "1d07000000030000002c03000028000000030000001500000005000000",
      "1e1500000005000000",
  };
  const auto msgs = sample_messages();
  ASSERT_EQ(msgs.size(), golden.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(hex(msgs[i]), golden[i]) << "sample " << i << ", type byte " << int(msgs[i][0]);
  }
}

TEST(ProtocolFastPath, EncodersAllocateTheExactSizeOnce) {
  // A fixed-layout message allocates its wire size; a variable-layout one
  // (a string or vector: AllocationReply, SubmitCode, BatchGranted,
  // LeasesTerminated, LeaseError) sums its fields' wire sizes first, so
  // its buffer never regrows and keeps no slack.
  for (const auto& msg : sample_messages()) {
    EXPECT_EQ(msg.capacity(), msg.size()) << "type byte " << int(msg[0]);
  }
}

TEST(ProtocolFuzz, AllPrefixTruncationsRejected) {
  for (const auto& msg : sample_messages()) {
    // SubmitCode tolerates trailing padding by design (the code bytes),
    // but a *truncated* message must never decode.
    for (std::size_t keep = 0; keep < msg.size(); ++keep) {
      Bytes cut(msg.begin(), msg.begin() + static_cast<std::ptrdiff_t>(keep));
      const auto t_full = peek_type(msg);
      const auto t_cut = peek_type(cut);
      if (!t_cut.ok()) continue;  // unknown type byte: fine
      if (t_cut.value() != t_full.value()) continue;
      // Same type byte but shorter body: the matching decoder must fail.
      EXPECT_EQ(accepted_by_any(cut), 0)
          << "type " << int(msg[0]) << " accepted a " << keep << "-byte prefix of "
          << msg.size();
    }
  }
}

TEST(ProtocolHardened, RequestIdEpochAndSeqRoundTrip) {
  // Every lease-critical field added for lossy-network hardening must
  // survive an encode/decode roundtrip exactly.
  RegisterExecutorMsg reg;
  reg.device = 3;
  reg.epoch = 9;
  reg.request_id = (9ull << 32) | 4;
  auto rdec = decode_register(encode(reg));
  ASSERT_TRUE(rdec.ok());
  EXPECT_EQ(rdec.value().epoch, 9u);
  EXPECT_EQ(rdec.value().request_id, (9ull << 32) | 4);

  auto req = decode_lease_request(encode(LeaseRequestMsg{9, 16, 1_GiB, 60_s, 42}));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().request_id, 42u);

  auto rel = decode_release(encode(ReleaseResourcesMsg{1, 2, 3, 55}));
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().request_id, 55u);

  auto rok = decode_release_ok(encode(ReleaseOkMsg{7, 55}));
  ASSERT_TRUE(rok.ok());
  EXPECT_EQ(rok.value().lease_id, 7u);
  EXPECT_EQ(rok.value().request_id, 55u);

  LeasesTerminatedMsg sweep;
  sweep.lease_ids = {1, 2, 3};
  sweep.seq = 32;
  auto sdec = decode_leases_terminated(encode(sweep));
  ASSERT_TRUE(sdec.ok());
  EXPECT_EQ(sdec.value().seq, 32u);
  EXPECT_EQ(sdec.value().lease_ids.size(), 3u);
}

TEST(ProtocolHardened, ReplyRequestIdExtractsFromEveryReplyType) {
  // The retransmission FSM matches replies to in-flight requests via
  // reply_request_id(); it must work for every type is_reply_type()
  // claims is a reply, and refuse everything else.
  const std::uint64_t id = (3ull << 32) | 17;
  LeaseGrantMsg grant;
  grant.lease_id = 11;
  grant.request_id = id;
  BatchGrantedMsg batch;
  batch.complete = true;
  batch.request_id = id;
  batch.error = "";
  LeaseDeniedMsg denied;
  denied.reason = static_cast<std::uint8_t>(DenialReason::Overload);
  denied.retry_after = 10_ms;
  denied.request_id = id;
  const std::vector<Bytes> replies = {
      encode(grant),
      encode_lease_error("no capacity", id),
      encode(denied),
      encode(ExtendOkMsg{99, 60_s, id}),
      encode(batch),
      encode(ReleaseOkMsg{4, id}),
      encode(RegisterOkMsg{6001, 1, 2, id}),
      encode(HealthReportOkMsg{id}),
  };
  for (const auto& raw : replies) {
    auto type = peek_type(raw);
    ASSERT_TRUE(type.ok());
    EXPECT_TRUE(is_reply_type(type.value())) << "type " << int(raw[0]);
    auto rid = reply_request_id(raw);
    ASSERT_TRUE(rid.ok()) << "type " << int(raw[0]);
    EXPECT_EQ(rid.value(), id) << "type " << int(raw[0]);
  }
  // Non-reply messages are not matchable.
  EXPECT_FALSE(is_reply_type(MsgType::LeaseRequest));
  EXPECT_FALSE(is_reply_type(MsgType::LeasesTerminated));
  EXPECT_FALSE(reply_request_id(encode(LeaseRequestMsg{1, 1, 1_GiB, 1_s, 5})).ok());
}

TEST(ProtocolHardened, DuplicateDeliveryDecodesIdentically) {
  // A duplicated frame is byte-identical; decoding it twice must yield
  // the same fields both times (codecs are stateless — the dedup layer
  // above relies on that).
  const Bytes raw = encode(LeaseRequestMsg{9, 16, 1_GiB, 60_s, (8ull << 32) | 6});
  auto first = decode_lease_request(raw);
  auto second = decode_lease_request(raw);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().client_id, second.value().client_id);
  EXPECT_EQ(first.value().request_id, second.value().request_id);
  EXPECT_EQ(first.value().request_id, (8ull << 32) | 6);
}

TEST(ProtocolHardened, FailoverMessagesRoundTripEveryField) {
  // The HA wire messages carry replicated state: any silently dropped
  // or misaligned field corrupts a standby, so every field is pinned.
  JournalRecordMsg rec;
  rec.seq = 0xA1B2C3D4E5ull;
  rec.op = 9;
  rec.lease_id = (7ull << 48) | 1234;
  rec.client_id = 0xCAFE;
  rec.executor = (7ull << 48) | 5;
  rec.workers = 17;
  rec.memory = 3ull << 33;
  rec.time = 123456789;
  rec.aux = 0x1122334455667788ull;
  rec.aux2 = 0x99AABBCCDDEEFF00ull;
  rec.checksum = 0x0123456789ABCDEFull;
  auto rdec = decode_journal_record(encode(rec));
  ASSERT_TRUE(rdec.ok());
  EXPECT_EQ(rdec.value().seq, rec.seq);
  EXPECT_EQ(rdec.value().op, rec.op);
  EXPECT_EQ(rdec.value().lease_id, rec.lease_id);
  EXPECT_EQ(rdec.value().client_id, rec.client_id);
  EXPECT_EQ(rdec.value().executor, rec.executor);
  EXPECT_EQ(rdec.value().workers, rec.workers);
  EXPECT_EQ(rdec.value().memory, rec.memory);
  EXPECT_EQ(rdec.value().time, rec.time);
  EXPECT_EQ(rdec.value().aux, rec.aux);
  EXPECT_EQ(rdec.value().aux2, rec.aux2);
  EXPECT_EQ(rdec.value().checksum, rec.checksum);

  auto odec = decode_snapshot_offer(encode(SnapshotOfferMsg{3, 777, 0xD1CEull, 42}));
  ASSERT_TRUE(odec.ok());
  EXPECT_EQ(odec.value().manager_epoch, 3u);
  EXPECT_EQ(odec.value().upto_seq, 777u);
  EXPECT_EQ(odec.value().digest, 0xD1CEull);
  EXPECT_EQ(odec.value().lease_count, 42u);

  auto adec = decode_failover_announce(encode(FailoverAnnounceMsg{4, 888, 9_s}));
  ASSERT_TRUE(adec.ok());
  EXPECT_EQ(adec.value().manager_epoch, 4u);
  EXPECT_EQ(adec.value().applied_seq, 888u);
  EXPECT_EQ(adec.value().promoted_at, 9_s);

  auto vdec = decode_lease_revalidate(encode(LeaseRevalidateMsg{6, 999, (5ull << 32) | 1}));
  ASSERT_TRUE(vdec.ok());
  EXPECT_EQ(vdec.value().client_id, 6u);
  EXPECT_EQ(vdec.value().lease_id, 999u);
  EXPECT_EQ(vdec.value().request_id, (5ull << 32) | 1);

  // LeaseRevalidate is a request (its replies reuse ExtendOk/LeaseError);
  // the journal/snapshot/announce stream messages are not call replies
  // either — none may be matchable by the retransmission FSM.
  EXPECT_FALSE(is_reply_type(MsgType::LeaseRevalidate));
  EXPECT_FALSE(is_reply_type(MsgType::JournalRecord));
  EXPECT_FALSE(is_reply_type(MsgType::SnapshotOffer));
  EXPECT_FALSE(is_reply_type(MsgType::FailoverAnnounce));
  EXPECT_FALSE(reply_request_id(encode(LeaseRevalidateMsg{1, 2, 3})).ok());
}

TEST(ProtocolFastPath, FailoverEncodeIntoMatchesTheBytesApiByteForByte) {
  // JournalRecord is the replication hot path (one frame per lease
  // transition): the zero-allocation encoder must emit exactly the
  // Bytes-API frame, and undersized buffers must refuse untouched.
  JournalRecordMsg rec;
  rec.seq = 31;
  rec.op = 4;
  rec.lease_id = (1ull << 48) | 2;
  rec.client_id = 9;
  rec.executor = (1ull << 48) | 1;
  rec.workers = 2;
  rec.memory = 64ull << 20;
  rec.time = 42_s;
  rec.aux = 3;
  rec.aux2 = 0;
  rec.checksum = 0xBEEF;
  SnapshotOfferMsg offer{2, 100, 0xABCD, 7};
  FailoverAnnounceMsg ann{2, 101, 5_s};
  LeaseRevalidateMsg reval{9, (1ull << 48) | 2, (6ull << 32) | 4};

  std::uint8_t buf[128];
  EXPECT_EQ(encode_into(rec, buf, sizeof buf), kWireSize<JournalRecordMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<JournalRecordMsg>), encode(rec));
  EXPECT_EQ(encode_into(offer, buf, sizeof buf), kWireSize<SnapshotOfferMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<SnapshotOfferMsg>), encode(offer));
  EXPECT_EQ(encode_into(ann, buf, sizeof buf), kWireSize<FailoverAnnounceMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<FailoverAnnounceMsg>), encode(ann));
  EXPECT_EQ(encode_into(reval, buf, sizeof buf), kWireSize<LeaseRevalidateMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<LeaseRevalidateMsg>), encode(reval));

  EXPECT_EQ(encode_into(rec, buf, kWireSize<JournalRecordMsg> - 1), 0u);
  EXPECT_EQ(encode_into(offer, buf, kWireSize<SnapshotOfferMsg> - 1), 0u);
  EXPECT_EQ(encode_into(ann, buf, 0), 0u);
  EXPECT_EQ(encode_into(reval, buf, kWireSize<LeaseRevalidateMsg> - 1), 0u);

  // Span decode from the stack buffer, truncation and type confusion.
  const std::size_t n = encode_into(rec, buf, sizeof buf);
  EXPECT_TRUE(decode_journal_record(std::span<const std::uint8_t>(buf, n)).ok());
  EXPECT_FALSE(decode_journal_record(std::span<const std::uint8_t>(buf, n - 1)).ok());
  buf[0] = static_cast<std::uint8_t>(MsgType::SnapshotOffer);
  EXPECT_FALSE(decode_journal_record(std::span<const std::uint8_t>(buf, n)).ok());
}

TEST(ProtocolFastPath, FaultToleranceMessagesRoundTripAndRefuseTruncation) {
  // The data-plane FT messages ride the hot path exactly when the fleet
  // is sick: the zero-allocation encoders must match the Bytes API, and
  // every field must survive the roundtrip.
  InvocationCancelMsg cancel{9, (3ull << 32) | 77, (6ull << 32) | 5};
  HealthReportMsg health;
  health.client_id = 9;
  health.device = 2;
  health.latency_us = 1500;
  health.ok_count = 12;
  health.fail_count = 8;
  health.request_id = (6ull << 32) | 6;
  HealthReportOkMsg ack{(6ull << 32) | 6};

  std::uint8_t buf[64];
  EXPECT_EQ(encode_into(cancel, buf, sizeof buf), kWireSize<InvocationCancelMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<InvocationCancelMsg>), encode(cancel));
  auto cdec =
      decode_invocation_cancel(std::span<const std::uint8_t>(buf, kWireSize<InvocationCancelMsg>));
  ASSERT_TRUE(cdec.ok());
  EXPECT_EQ(cdec.value().client_id, cancel.client_id);
  EXPECT_EQ(cdec.value().invocation_tag, cancel.invocation_tag);
  EXPECT_EQ(cdec.value().request_id, cancel.request_id);

  EXPECT_EQ(encode_into(health, buf, sizeof buf), kWireSize<HealthReportMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<HealthReportMsg>), encode(health));
  auto hdec = decode_health_report(std::span<const std::uint8_t>(buf, kWireSize<HealthReportMsg>));
  ASSERT_TRUE(hdec.ok());
  EXPECT_EQ(hdec.value().client_id, health.client_id);
  EXPECT_EQ(hdec.value().device, health.device);
  EXPECT_EQ(hdec.value().latency_us, health.latency_us);
  EXPECT_EQ(hdec.value().ok_count, health.ok_count);
  EXPECT_EQ(hdec.value().fail_count, health.fail_count);
  EXPECT_EQ(hdec.value().request_id, health.request_id);

  EXPECT_EQ(encode_into(ack, buf, sizeof buf), kWireSize<HealthReportOkMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<HealthReportOkMsg>), encode(ack));
  auto adec =
      decode_health_report_ok(std::span<const std::uint8_t>(buf, kWireSize<HealthReportOkMsg>));
  ASSERT_TRUE(adec.ok());
  EXPECT_EQ(adec.value().request_id, ack.request_id);

  // Undersized buffers refuse without writing; truncations reject.
  EXPECT_EQ(encode_into(cancel, buf, kWireSize<InvocationCancelMsg> - 1), 0u);
  EXPECT_EQ(encode_into(health, buf, kWireSize<HealthReportMsg> - 1), 0u);
  EXPECT_EQ(encode_into(ack, buf, 0), 0u);

  // The HealthReport ack is a matchable reply (retransmission FSM);
  // the fire-and-forget cancel is not.
  EXPECT_TRUE(is_reply_type(MsgType::HealthReportOk));
  EXPECT_FALSE(is_reply_type(MsgType::InvocationCancel));
  EXPECT_FALSE(is_reply_type(MsgType::HealthReport));
}

TEST(ProtocolFastPath, InvocationHeaderRoundTripsAllFaultToleranceFields) {
  // The 32-byte RDMA scratchpad header carries the deadline, idempotency
  // tag and payload checksum the whole FT design hangs off — any packing
  // drift silently disables retries/dedup, so every field is pinned.
  InvocationHeader hdr;
  hdr.result_addr = 0xDEADBEEF00ull;
  hdr.result_rkey = 0xFACE;
  hdr.invocation_tag = (9ull << 32) | 1234;
  hdr.deadline = 5_ms;
  hdr.checksum = payload_checksum(reinterpret_cast<const std::uint8_t*>("abc"), 3);

  std::uint8_t wire[InvocationHeader::kSize];
  hdr.pack(wire);
  const auto back = InvocationHeader::unpack(wire);
  EXPECT_EQ(back.result_addr, hdr.result_addr);
  EXPECT_EQ(back.result_rkey, hdr.result_rkey);
  EXPECT_EQ(back.invocation_tag, hdr.invocation_tag);
  EXPECT_EQ(back.deadline, hdr.deadline);
  EXPECT_EQ(back.checksum, hdr.checksum);

  // fold12 never emits 0 (0 = "not checked" on the wire), and the result
  // imm carries it losslessly next to the id + reject bit.
  for (std::uint32_t c : {0u, 1u, 0xFFFu, 0xABCDEFu, 0xFFFFFFFFu}) {
    const std::uint32_t f = fold12(c);
    EXPECT_NE(f, 0u);
    EXPECT_LE(f, 0xFFFu);
    const std::uint32_t imm = Imm::result(0x7ABCD, false, f);
    EXPECT_EQ(Imm::result_checksum(imm), f);
    EXPECT_EQ(Imm::result_id(imm), 0x7ABCDu);
    EXPECT_FALSE(Imm::rejected(imm));
  }
}

TEST(ProtocolFastPath, EmptyPayloadChecksumIsNotTheUncheckedMarker) {
  // A zero header checksum reads "not checked", and the executor then
  // leaves the reply unstamped too: an empty request must still carry a
  // nonzero checksum, or a non-empty reply to it would go unchecked.
  EXPECT_NE(payload_checksum(nullptr, 0), 0u);
}

TEST(ProtocolFastPath, FoldedChecksumSeesTheInjectedCorruptionAtEveryLength) {
  // The worker fault injector flips the first and last output byte. A
  // CRC is linear, so a XOR fold of it would miss that fixed error
  // pattern at some lengths for every payload; the 12-bit reply channel
  // may only miss it for particular data (~1 in 4096). Two payloads per
  // length: at least one of them must see the flips.
  constexpr std::size_t kMax = 16384;
  std::vector<std::uint8_t> a(kMax), b(kMax), flipped(kMax);
  fill_pattern(a, 1);
  fill_pattern(b, 2);
  auto caught = [&](const std::vector<std::uint8_t>& payload, std::size_t n) {
    std::copy_n(payload.begin(), n, flipped.begin());
    flipped[0] ^= 0xFF;
    flipped[n - 1] ^= 0xFF;
    return fold12(payload_checksum(payload.data(), n)) !=
           fold12(payload_checksum(flipped.data(), n));
  };
  std::vector<std::size_t> blind;
  for (std::size_t n = 2; n <= kMax; ++n) {
    if (!caught(a, n) && !caught(b, n)) blind.push_back(n);
  }
  EXPECT_EQ(blind.size(), 0u) << "first blind length " << (blind.empty() ? 0 : blind.front());
}

TEST(ProtocolFuzz, RandomCorruptionNeverCrashes) {
  Rng rng(123);
  auto msgs = sample_messages();
  for (int round = 0; round < 2000; ++round) {
    Bytes msg = msgs[rng.uniform_int(0, msgs.size() - 1)];
    // Flip 1-4 random bytes.
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      msg[rng.uniform_int(0, msg.size() - 1)] ^= static_cast<std::uint8_t>(rng.next());
    }
    // Must not crash; at most one decoder may accept (corruption inside
    // payload fields can still parse — that is the transport's job to
    // catch, not the codec's).
    (void)accepted_by_any(msg);
  }
  SUCCEED();
}

TEST(ProtocolFastPath, EncodeIntoMatchesTheBytesApiByteForByte) {
  // The zero-allocation fast path must produce exactly the wire bytes
  // the Bytes API produces (it IS the Bytes API's backend now, but this
  // pins the fixed layouts against accidental drift).
  LeaseRequestMsg req{9, 16, 1_GiB, 60_s};
  LeaseGrantMsg grant;
  grant.lease_id = (5ull << 48) | 123;
  grant.device = 7;
  grant.alloc_port = 7000;
  grant.rdma_port = 7001;
  grant.workers = 4;
  grant.expires_at = 90_s;
  ExtendLeaseMsg extend{(7ull << 48) | 42, 30_s};
  ExtendOkMsg ok{(7ull << 48) | 42, 90_s};
  LeaseDeniedMsg denied;
  denied.reason = static_cast<std::uint8_t>(DenialReason::QuotaExceeded);
  denied.retry_after = 250_ms;
  denied.request_id = (2ull << 32) | 6;

  std::uint8_t buf[64];
  EXPECT_EQ(encode_into(req, buf, sizeof buf), kWireSize<LeaseRequestMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<LeaseRequestMsg>), encode(req));
  EXPECT_EQ(encode_into(grant, buf, sizeof buf), kWireSize<LeaseGrantMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<LeaseGrantMsg>), encode(grant));
  EXPECT_EQ(encode_into(extend, buf, sizeof buf), kWireSize<ExtendLeaseMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<ExtendLeaseMsg>), encode(extend));
  EXPECT_EQ(encode_into(ok, buf, sizeof buf), kWireSize<ExtendOkMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<ExtendOkMsg>), encode(ok));
  EXPECT_EQ(encode_into(denied, buf, sizeof buf), kWireSize<LeaseDeniedMsg>);
  EXPECT_EQ(Bytes(buf, buf + kWireSize<LeaseDeniedMsg>), encode(denied));

  // Undersized buffers refuse without writing.
  EXPECT_EQ(encode_into(req, buf, kWireSize<LeaseRequestMsg> - 1), 0u);
  EXPECT_EQ(encode_into(grant, buf, 0), 0u);
  EXPECT_EQ(encode_into(denied, buf, kWireSize<LeaseDeniedMsg> - 1), 0u);
}

TEST(ProtocolFastPath, SpanDecodersRoundTripFromStackBuffers) {
  LeaseGrantMsg grant;
  grant.lease_id = (3ull << 48) | 77;
  grant.device = 2;
  grant.alloc_port = 6100;
  grant.rdma_port = 6101;
  grant.workers = 12;
  grant.expires_at = 12345678;

  std::uint8_t buf[64];
  const std::size_t n = encode_into(grant, buf, sizeof buf);
  auto decoded = decode_lease_grant(std::span<const std::uint8_t>(buf, n));
  EXPECT_TRUE(decoded.ok());
  if (decoded.ok()) {
    EXPECT_EQ(decoded.value().lease_id, grant.lease_id);
    EXPECT_EQ(decoded.value().device, grant.device);
    EXPECT_EQ(decoded.value().alloc_port, grant.alloc_port);
    EXPECT_EQ(decoded.value().rdma_port, grant.rdma_port);
    EXPECT_EQ(decoded.value().workers, grant.workers);
    EXPECT_EQ(decoded.value().expires_at, grant.expires_at);
  }
  // Truncations and a wrong type byte are rejected.
  EXPECT_FALSE(decode_lease_grant(std::span<const std::uint8_t>(buf, n - 1)).ok());
  buf[0] = static_cast<std::uint8_t>(MsgType::LeaseRequest);
  EXPECT_FALSE(decode_lease_grant(std::span<const std::uint8_t>(buf, n)).ok());

  // LeaseDenied is the hot reply under overload: the same stack-buffer
  // roundtrip, truncation and type-confusion guarantees must hold.
  LeaseDeniedMsg denied;
  denied.reason = static_cast<std::uint8_t>(DenialReason::Overload);
  denied.retry_after = 42_ms;
  denied.request_id = (9ull << 32) | 3;
  const std::size_t dn = encode_into(denied, buf, sizeof buf);
  ASSERT_EQ(dn, kWireSize<LeaseDeniedMsg>);
  auto ddec = decode_lease_denied(std::span<const std::uint8_t>(buf, dn));
  ASSERT_TRUE(ddec.ok());
  EXPECT_EQ(ddec.value().reason, denied.reason);
  EXPECT_EQ(ddec.value().retry_after, denied.retry_after);
  EXPECT_EQ(ddec.value().request_id, denied.request_id);
  EXPECT_FALSE(decode_lease_denied(std::span<const std::uint8_t>(buf, dn - 1)).ok());
  buf[0] = static_cast<std::uint8_t>(MsgType::LeaseGrant);
  EXPECT_FALSE(decode_lease_denied(std::span<const std::uint8_t>(buf, dn)).ok());

  LeaseRequestMsg req{1, 8, 256ull << 20, 60_s};
  const std::size_t rn = encode_into(req, buf, sizeof buf);
  auto rdec = decode_lease_request(std::span<const std::uint8_t>(buf, rn));
  EXPECT_TRUE(rdec.ok());
  if (rdec.ok()) {
    EXPECT_EQ(rdec.value().client_id, req.client_id);
    EXPECT_EQ(rdec.value().workers, req.workers);
    EXPECT_EQ(rdec.value().memory_bytes, req.memory_bytes);
    EXPECT_EQ(rdec.value().timeout, req.timeout);
  }
}

TEST(ProtocolFuzz, HttpParserSurvivesRandomBytes) {
  Rng rng(77);
  for (int round = 0; round < 2000; ++round) {
    Bytes junk(rng.uniform_int(0, 200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)net::HttpRequest::parse(junk);
    (void)net::HttpResponse::parse(junk);
  }
  SUCCEED();
}

TEST(ProtocolFuzz, HttpParserSurvivesMutatedValidMessages) {
  net::HttpRequest req;
  req.method = "POST";
  req.path = "/f/echo";
  req.headers["Host"] = "x";
  req.body = "0123456789";
  const Bytes base = req.serialize();
  Rng rng(31);
  for (int round = 0; round < 2000; ++round) {
    Bytes mutated = base;
    mutated[rng.uniform_int(0, mutated.size() - 1)] ^= static_cast<std::uint8_t>(rng.next());
    auto parsed = net::HttpRequest::parse(mutated);
    if (parsed.ok()) {
      // If it parses AND still advertises a Content-Length, the value
      // must be consistent with the body (a mutated header *name* may
      // remove the length check entirely — that is acceptable HTTP).
      auto it = parsed.value().headers.find("Content-Length");
      if (it != parsed.value().headers.end() && !it->second.empty() &&
          it->second.find_first_not_of("0123456789") == std::string::npos) {
        EXPECT_EQ(parsed.value().body.size(),
                  static_cast<std::size_t>(std::stoul(it->second)));
      }
    }
  }
}

}  // namespace
}  // namespace rfs::rfaas
