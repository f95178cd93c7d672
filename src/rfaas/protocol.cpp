#include "rfaas/protocol.hpp"

#include <cstring>

namespace rfs::rfaas {

void InvocationHeader::pack(std::uint8_t* out) const {
  std::memcpy(out, &result_addr, 8);
  std::memcpy(out + 8, &result_rkey, 4);
  std::memcpy(out + 12, &invocation_tag, 8);
  std::memcpy(out + 20, &deadline, 8);
  std::memcpy(out + 28, &checksum, 4);
}

InvocationHeader InvocationHeader::unpack(const std::uint8_t* in) {
  InvocationHeader h;
  std::memcpy(&h.result_addr, in, 8);
  std::memcpy(&h.result_rkey, in + 8, 4);
  std::memcpy(&h.invocation_tag, in + 12, 8);
  std::memcpy(&h.deadline, in + 20, 8);
  std::memcpy(&h.checksum, in + 28, 4);
  return h;
}

std::size_t encode_into(const InvocationHeader& h, std::uint8_t* out, std::size_t capacity) {
  if (capacity < InvocationHeader::kSize) return 0;
  h.pack(out);
  return InvocationHeader::kSize;
}

Result<InvocationFrame> decode_invocation_frame(std::span<const std::uint8_t> buf,
                                                std::uint32_t byte_len) {
  if (byte_len < InvocationHeader::kSize || byte_len > buf.size()) {
    return Error::make(23, "protocol: malformed invocation frame");
  }
  InvocationFrame f;
  f.header = InvocationHeader::unpack(buf.data());
  f.payload = buf.subspan(InvocationHeader::kSize, byte_len - InvocationHeader::kSize);
  return f;
}

InvocationResponse decode_invocation_response(const fabric::Wc& wc) {
  InvocationResponse r;
  r.invocation_id = Imm::result_id(wc.imm);
  r.rejected = Imm::rejected(wc.imm);
  r.output_bytes = wc.byte_len;
  r.checksum12 = Imm::result_checksum(wc.imm);
  return r;
}

namespace {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Reads one integer field at `p` and returns the byte after it. A bool
/// byte decodes as != 0.
template <class T>
const std::uint8_t* take(const std::uint8_t* p, T& v) {
  wire::Int<T> x;
  std::memcpy(&x, p, sizeof x);
  v = static_cast<T>(x);
  return p + sizeof x;
}

// Variable-length messages: one field at a time through ByteWriter and
// ByteReader. A struct element (a grant in a batch) contributes its body().
template <class T>
void write(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write(w, e);
  } else if constexpr (std::is_class_v<T>) {
    std::apply([&w](const auto&... f) { (write(w, f), ...); }, T::body(v));
  } else {
    const wire::Int<T> x = v;
    w.raw(&x, sizeof x);
  }
}

/// The bytes write() puts on the wire for `v`, over the same field walk.
template <class T>
std::size_t wire_size(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return sizeof(std::uint32_t) + v.size();
  } else if constexpr (kIsVector<T>) {
    std::size_t n = sizeof(std::uint32_t);
    for (const auto& e : v) n += wire_size(e);
    return n;
  } else if constexpr (std::is_class_v<T>) {
    return std::apply([](const auto&... f) { return (std::size_t{0} + ... + wire_size(f)); },
                      T::body(v));
  } else {
    return sizeof(wire::Int<T>);
  }
}

template <class T>
bool read(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    auto s = r.str();
    if (s) v = std::move(s).take();
    return s.ok();
  } else if constexpr (kIsVector<T>) {
    auto n = r.u32();
    if (!n) return false;
    // No reserve() from the wire-supplied count: a corrupted count must
    // fail on the bounds-checked reads below, not allocate.
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      if (!read(r, v.emplace_back())) return false;
    }
    return true;
  } else if constexpr (std::is_class_v<T>) {
    return std::apply([&r](auto&... f) { return (read(r, f) && ...); }, T::body(v));
  } else {
    auto x = r.get<wire::Int<T>>();
    if (x) v = static_cast<T>(x.value());
    return x.ok();
  }
}

template <class M>
Bytes encode_message(const M& m) {
  if constexpr (FixedLayout<M>) {
    Bytes out(kWireSize<M>);
    encode_into(m, out.data(), out.size());
    return out;
  } else {
    // One allocation of the exact size: the type byte, then the fields.
    ByteWriter w;
    w.reserve(std::apply([](const auto&... f) { return (std::size_t{1} + ... + wire_size(f)); },
                         M::fields(m)));
    w.u8(static_cast<std::uint8_t>(M::kType));
    std::apply([&w](const auto&... f) { (write(w, f), ...); }, M::fields(m));
    return w.take();
  }
}

template <class M>
Result<M> decode_message(std::span<const std::uint8_t> raw, const char* malformed) {
  constexpr auto kTypeByte = static_cast<std::uint8_t>(M::kType);
  M m;
  bool ok = false;
  if constexpr (FixedLayout<M>) {
    ok = raw.size() >= kWireSize<M> && raw[0] == kTypeByte;
    if (ok) {
      std::apply([p = raw.data() + 1](auto&... f) mutable { ((p = take(p, f)), ...); },
                 M::fields(m));
    }
  } else {
    ByteReader r(raw);
    auto type = r.u8();
    ok = type && type.value() == kTypeByte &&
         std::apply([&r](auto&... f) { return (read(r, f) && ...); }, M::fields(m));
  }
  if (!ok) return Error::make(22, malformed);
  return m;
}

/// LeaseError has no struct in the API: encode_lease_error() and
/// decode_lease_error() wrap this one.
struct LeaseErrorMsg {
  static constexpr MsgType kType = MsgType::LeaseError;
  std::string reason;
  std::uint64_t request_id = 0;

  static auto fields(auto& m) { return std::tie(m.reason, m.request_id); }
};

}  // namespace

#define RFS_DEFINE_CODEC(Name, decoder)                                 \
  Bytes encode(const Name##Msg& m) { return encode_message(m); }        \
  Result<Name##Msg> decoder(std::span<const std::uint8_t> raw) {        \
    return decode_message<Name##Msg>(raw, "protocol: malformed " #Name); \
  }
RFS_CONTROL_MESSAGES(RFS_DEFINE_CODEC)
#undef RFS_DEFINE_CODEC

Bytes encode(MsgType type) { return Bytes{static_cast<std::uint8_t>(type)}; }

Bytes encode_lease_error(const std::string& reason, std::uint64_t request_id) {
  return encode_message(LeaseErrorMsg{reason, request_id});
}

Result<std::string> decode_lease_error(std::span<const std::uint8_t> raw) {
  auto m = decode_message<LeaseErrorMsg>(raw, "protocol: malformed LeaseError");
  if (!m) return m.error();
  return std::move(m).take().reason;
}

Result<MsgType> peek_type(const Bytes& raw) {
  if (raw.empty()) return Error::make(21, "protocol: empty message");
  auto v = raw[0];
  if (v >= static_cast<std::uint8_t>(MsgType::Count)) {
    return Error::make(21, "protocol: unknown message type");
  }
  return static_cast<MsgType>(v);
}

bool is_reply_type(MsgType t) {
  switch (t) {
    case MsgType::LeaseGrant:
    case MsgType::LeaseError:
    case MsgType::LeaseDenied:
    case MsgType::ExtendOk:
    case MsgType::BatchGranted:
    case MsgType::ReleaseOk:
    case MsgType::RegisterOk:
    case MsgType::HealthReportOk:
      return true;
    default:
      return false;
  }
}

Result<std::uint64_t> reply_request_id(const Bytes& raw) {
  auto t = peek_type(raw);
  if (!t) return t.error();
  if (!is_reply_type(t.value())) return Error::make(24, "protocol: not a reply type");
  // Every reply appends the echoed id as its final 8 bytes; reading it
  // positionally keeps reply matching O(1) even for variable-length
  // replies (BatchGranted, LeaseError).
  if (raw.size() < 1 + 8) return Error::make(22, "protocol: truncated reply");
  std::uint64_t id = 0;
  std::memcpy(&id, raw.data() + raw.size() - 8, 8);
  return id;
}

}  // namespace rfs::rfaas
