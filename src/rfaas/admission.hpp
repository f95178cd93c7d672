// Ingress admission control: token-bucket policing + weighted fair
// queueing in front of the resource manager's shard routing.
//
// The control plane is fast per-op (fig16), but speed alone does not
// survive overload: before this layer, every LeaseRequest paid the full
// pipeline — shard gate, placement scan, and on denial a quota-eviction
// pass — so demand beyond capacity made each request *more* expensive
// exactly when there were more of them. The admitter inverts that: one
// mutex, a handful of integer/double updates, and an early LeaseDenied
// with a retry_after hint. Saying no is O(1) and touches no shard state.
//
// Two mechanisms compose, both deterministic given an explicit clock:
//
//  - Per-tenant token bucket (policing): absolute rate caps. A tenant's
//    bucket holds up to `burst` tokens and refills at `rate_hz`; a
//    request with no token is shed with retry_after = time until one
//    token exists. rate 0 with burst 0 is a blocked tenant (always
//    shed); the config-default rate 0 disables policing entirely.
//
//  - Weighted fair queueing over the aggregate capacity: a global
//    bucket paces total admissions at `capacity_hz` (this is what keeps
//    goodput ≈ capacity while overloaded), and a fluid-GPS virtual
//    clock shares that capacity by tenant weight. Each tenant carries a
//    virtual finish tag advanced by 1/weight per admission; global
//    virtual time advances with the clock at capacity/weight_sum (the
//    rate a fully backlogged system serves virtual work). A tenant more
//    than `wfq_credit` virtual units ahead of global time is shed — so
//    under saturation each backlogged tenant is pinned at the credit
//    boundary and admitted at exactly capacity * weight / weight_sum,
//    and a light tenant can never be starved: its lag bound is the same
//    credit, and the clock-driven virtual time always drains it. The
//    fairness check only fires while the capacity bucket is contended
//    (below full): an uncontended admitter is work-conserving — free
//    capacity is never shed in the name of weight shares, and tag
//    clamping guarantees uncontended use never becomes debt later.
//
// Thread safety: all state sits behind one std::mutex. The sim calls
// admit() from a single thread, but the manager's counters are also
// read from threaded stress tests (and a future threaded frontend), so
// the lock — not the sim's cooperative scheduling — is the contract;
// tests/admission_test.cpp races admit() against set_weight() under
// TSan to hold it.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/units.hpp"
#include "rfaas/config.hpp"

namespace rfs::rfaas {

/// The admission verdict for one request.
struct AdmissionDecision {
  bool admitted = true;
  Duration retry_after = 0;  ///< shed only: wait at least this before retrying
};

/// Per-tenant token buckets + SFQ-over-capacity. One instance per
/// resource manager frontend; see the file comment for the model.
class Admission {
 public:
  explicit Admission(AdmissionConfig config);

  /// Whether any admission mechanism is configured. When false, admit()
  /// short-circuits to "admitted" without taking the lock's slow path.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Sets a tenant's WFQ weight (>= 1; 0 is clamped to 1). Unknown
  /// tenants have weight 1.
  void set_weight(std::uint32_t tenant, std::uint32_t weight);

  /// Overrides one tenant's policing bucket (rate 0 + burst 0 = always
  /// shed — an administratively blocked tenant).
  void set_rate(std::uint32_t tenant, double rate_hz, double burst);

  /// The admission decision for one request from `tenant` arriving at
  /// `now` (virtual or wall time — the admitter only ever diffs it).
  AdmissionDecision admit(std::uint32_t tenant, Time now);

  /// Counters (cumulative, monotone).
  [[nodiscard]] std::uint64_t admitted() const;
  [[nodiscard]] std::uint64_t shed_rate() const;   ///< policing-bucket sheds
  [[nodiscard]] std::uint64_t shed_capacity() const;  ///< capacity-bucket sheds
  [[nodiscard]] std::uint64_t shed_wfq() const;    ///< fairness-credit sheds
  [[nodiscard]] std::uint64_t sheds() const;       ///< all sheds combined

 private:
  struct Bucket {
    double tokens = 0;
    double rate_hz = 0;
    double burst = 0;
    Time last_refill = 0;
    bool limited = false;  ///< policing configured for this bucket
  };

  struct Tenant {
    Bucket bucket;
    double finish = 0;  ///< SFQ virtual finish tag
    std::uint32_t weight = 1;
  };

  static void refill(Bucket& b, Time now);
  [[nodiscard]] Duration hint(double deficit_tokens, double rate_hz) const;
  Tenant& tenant_slot(std::uint32_t tenant);

  AdmissionConfig config_;
  bool enabled_ = false;

  mutable std::mutex mu_;
  std::unordered_map<std::uint32_t, Tenant> tenants_;
  Bucket capacity_;
  double vtime_ = 0;        ///< fluid-GPS global virtual time
  Time vtime_at_ = 0;       ///< clock instant vtime_ was last advanced to
  double weight_sum_ = 0;   ///< sum of known tenant weights (GPS clock rate)

  std::uint64_t admitted_ = 0;
  std::uint64_t shed_rate_ = 0;
  std::uint64_t shed_capacity_ = 0;
  std::uint64_t shed_wfq_ = 0;
};

}  // namespace rfs::rfaas
