// Typed, page-aligned, registrable memory buffers — the `rfaas::buffer`
// of the paper's programming model (Listing 2). Buffers are page-aligned
// "to achieve the highest bandwidth on RDMA" and can reserve a header
// region in front of the payload: the rFaaS input buffer carries a
// twelve-byte header with the client's result-buffer address and rkey.
//
// Memory model: a buffer is an anonymous private mapping of its
// page-rounded size. The kernel zero-fills each page on its first touch,
// so a buffer holds host memory only for the pages a run writes: an
// 8 MiB worker buffer that carries 64 B invocations holds a page or two.
// scrub() hands every page back with madvise(MADV_DONTNEED), after which
// Linux defines each page of a private anonymous mapping to read as
// zeros; that is what lets a recycled buffer pass to another tenant.
// Elsewhere MADV_DONTNEED is a hint that may keep the old bytes, so this
// header builds on Linux only.
#pragma once

#if !defined(__linux__)
#error "rdmalib::Buffer::scrub relies on Linux's zero-fill of MADV_DONTNEED pages"
#endif

#include <sys/mman.h>

#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <span>

#include "common/result.hpp"
#include "fabric/device.hpp"
#include "fabric/verbs.hpp"

namespace rfs::rdmalib {

/// Remote-buffer descriptor exchanged out of band or inside headers.
struct RemoteBuffer {
  std::uint64_t addr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t length = 0;
};

template <typename T>
class Buffer {
 public:
  static constexpr std::size_t kPageSize = 4096;

  /// Maps a page-aligned buffer for `count` elements of T preceded by
  /// `header_bytes` of header space; every byte reads as zero. Throws
  /// std::bad_alloc when the size overflows or the mapping fails.
  explicit Buffer(std::size_t count, std::size_t header_bytes = 0)
      : mem_(map(mapped_size(count, header_bytes))),
        count_(count),
        header_bytes_(header_bytes),
        raw_size_(header_bytes + count * sizeof(T)) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  /// Payload pointer (past the header).
  [[nodiscard]] T* data() { return reinterpret_cast<T*>(mem_.get() + header_bytes_); }
  [[nodiscard]] const T* data() const {
    return reinterpret_cast<const T*>(mem_.get() + header_bytes_);
  }
  [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }

  /// Element count of the payload.
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t payload_bytes() const { return count_ * sizeof(T); }

  /// Header region (may be empty).
  [[nodiscard]] std::uint8_t* header() { return mem_.get(); }
  [[nodiscard]] std::size_t header_bytes() const { return header_bytes_; }

  /// Raw region: header followed by payload.
  [[nodiscard]] std::uint8_t* raw() { return mem_.get(); }
  [[nodiscard]] const std::uint8_t* raw() const { return mem_.get(); }
  [[nodiscard]] std::size_t raw_bytes() const { return raw_size_; }
  /// Size of the mapping: raw_bytes() rounded up to whole pages.
  [[nodiscard]] std::size_t mapped_bytes() const { return mem_.get_deleter().bytes; }

  /// Drops every page of the mapping: each reads back as zero and holds
  /// no host memory until it is written again. The address, and with it
  /// any registration, stays.
  void scrub() {
    // Fails only where the pages cannot be dropped (mlock'ed memory):
    // zero them in place instead.
    if (::madvise(mem_.get(), mapped_bytes(), MADV_DONTNEED) != 0) {
      std::memset(mem_.get(), 0, mapped_bytes());
    }
  }

  [[nodiscard]] std::span<T> span() { return {data(), count_}; }
  [[nodiscard]] std::span<const T> span() const { return {data(), count_}; }

  /// Registers the raw region (header + payload) with `pd`.
  Status register_memory(fabric::ProtectionDomain& pd, std::uint32_t access) {
    mr_ = pd.register_memory(mem_.get(), raw_size_, access);
    pd_ = &pd;
    return Status::success();
  }

  /// Registration with virtual-time pinning cost (cold paths).
  sim::Task<Status> register_memory_timed(fabric::ProtectionDomain& pd, std::uint32_t access) {
    mr_ = co_await pd.register_memory_timed(mem_.get(), raw_size_, access);
    pd_ = &pd;
    co_return Status::success();
  }

  void deregister() {
    if (pd_ != nullptr && mr_ != nullptr) pd_->deregister(mr_);
    mr_ = nullptr;
  }

  [[nodiscard]] fabric::MemoryRegion* mr() const { return mr_; }
  [[nodiscard]] bool registered() const { return mr_ != nullptr; }

  /// SGE covering header + the first `bytes` of payload (default all).
  [[nodiscard]] fabric::Sge sge_with_header(std::size_t payload_len_bytes) const {
    return fabric::Sge{reinterpret_cast<std::uint64_t>(mem_.get()),
                       static_cast<std::uint32_t>(header_bytes_ + payload_len_bytes),
                       mr_ != nullptr ? mr_->lkey() : 0};
  }

  /// SGE covering the first `bytes` of payload only.
  [[nodiscard]] fabric::Sge sge_data(std::size_t payload_len_bytes) const {
    return fabric::Sge{reinterpret_cast<std::uint64_t>(mem_.get() + header_bytes_),
                       static_cast<std::uint32_t>(payload_len_bytes),
                       mr_ != nullptr ? mr_->lkey() : 0};
  }

  [[nodiscard]] fabric::Sge sge() const { return sge_with_header(payload_bytes()); }

  /// Descriptor of the raw region for remote writes into this buffer.
  [[nodiscard]] RemoteBuffer remote() const {
    return RemoteBuffer{reinterpret_cast<std::uint64_t>(mem_.get()),
                        mr_ != nullptr ? mr_->rkey() : 0,
                        static_cast<std::uint32_t>(raw_size_)};
  }

  /// Descriptor of the payload region only.
  [[nodiscard]] RemoteBuffer remote_data() const {
    return RemoteBuffer{reinterpret_cast<std::uint64_t>(mem_.get() + header_bytes_),
                        mr_ != nullptr ? mr_->rkey() : 0,
                        static_cast<std::uint32_t>(payload_bytes())};
  }

 private:
  struct Unmapper {
    std::size_t bytes = 0;
    void operator()(std::uint8_t* p) const { ::munmap(p, bytes); }
  };
  using Mapping = std::unique_ptr<std::uint8_t, Unmapper>;

  /// `header_bytes` plus `count` elements, rounded up to whole pages (one
  /// at least); std::bad_alloc when that does not fit a size_t.
  static std::size_t mapped_size(std::size_t count, std::size_t header_bytes) {
    std::size_t raw = 0;
    if (__builtin_mul_overflow(count, sizeof(T), &raw) ||
        __builtin_add_overflow(raw, header_bytes, &raw) ||
        raw > std::numeric_limits<std::size_t>::max() - (kPageSize - 1)) {
      throw std::bad_alloc();
    }
    const std::size_t rounded = (raw + kPageSize - 1) / kPageSize * kPageSize;
    return rounded == 0 ? kPageSize : rounded;
  }

  static Mapping map(std::size_t bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return Mapping(static_cast<std::uint8_t*>(p), Unmapper{bytes});
  }

  Mapping mem_;
  std::size_t count_;
  std::size_t header_bytes_;
  std::size_t raw_size_;
  fabric::MemoryRegion* mr_ = nullptr;
  fabric::ProtectionDomain* pd_ = nullptr;
};

}  // namespace rfs::rdmalib
