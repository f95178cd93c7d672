#include "rfaas/admission.hpp"

#include <algorithm>
#include <cmath>

namespace rfs::rfaas {

namespace {
// ~10 ms of line-rate burst, but never less than one whole token — a
// burst below 1 would shed every request including the first.
double default_burst(double rate_hz) { return std::max(1.0, rate_hz / 100.0); }
}  // namespace

Admission::Admission(AdmissionConfig config) : config_(config) {
  enabled_ = config_.enabled();
  capacity_.rate_hz = config_.capacity_hz;
  capacity_.burst = default_burst(config_.capacity_hz);
  capacity_.tokens = capacity_.burst;
  capacity_.limited = config_.capacity_hz > 0;
  for (auto [tenant, weight] : config_.tenant_weights) set_weight(tenant, weight);
}

void Admission::refill(Bucket& b, Time now) {
  if (now <= b.last_refill) return;  // duplicate-timestamp calls refill once
  const double elapsed_s = static_cast<double>(now - b.last_refill) * 1e-9;
  b.tokens = std::min(b.burst, b.tokens + elapsed_s * b.rate_hz);
  b.last_refill = now;
}

Duration Admission::hint(double deficit_tokens, double rate_hz) const {
  // Time until the bucket refills `deficit_tokens`; rate 0 never does.
  if (rate_hz <= 0) return config_.retry_after_max;
  const double wait_s = deficit_tokens / rate_hz;
  const auto wait = static_cast<Duration>(wait_s * 1e9);
  return std::clamp(wait, config_.retry_after_min, config_.retry_after_max);
}

Admission::Tenant& Admission::tenant_slot(std::uint32_t tenant) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  Tenant& t = it->second;
  if (inserted) {
    t.finish = vtime_;  // a newcomer starts at global time, owing nothing
    t.bucket.rate_hz = config_.tenant_rate_hz;
    t.bucket.burst = config_.tenant_burst > 0 ? config_.tenant_burst
                                              : default_burst(config_.tenant_rate_hz);
    t.bucket.tokens = t.bucket.burst;
    t.bucket.limited = config_.tenant_rate_hz > 0;
    weight_sum_ += t.weight;
  }
  return t;
}

void Admission::set_weight(std::uint32_t tenant, std::uint32_t weight) {
  std::lock_guard lock(mu_);
  Tenant& t = tenant_slot(tenant);
  weight_sum_ -= t.weight;
  t.weight = std::max(1u, weight);
  weight_sum_ += t.weight;
}

void Admission::set_rate(std::uint32_t tenant, double rate_hz, double burst) {
  std::lock_guard lock(mu_);
  Tenant& t = tenant_slot(tenant);
  t.bucket.rate_hz = rate_hz;
  t.bucket.burst = burst;
  t.bucket.tokens = std::min(t.bucket.tokens, burst);
  t.bucket.limited = true;  // rate 0 + burst 0 = administratively blocked
}

AdmissionDecision Admission::admit(std::uint32_t tenant, Time now) {
  if (!enabled_) return {};
  std::lock_guard lock(mu_);
  Tenant& t = tenant_slot(tenant);

  // 1. Policing: the tenant's own rate cap, independent of everyone else.
  if (t.bucket.limited) {
    refill(t.bucket, now);
    if (t.bucket.tokens < 1.0) {
      ++shed_rate_;
      return {false, hint(1.0 - t.bucket.tokens, t.bucket.rate_hz)};
    }
  }

  if (capacity_.limited) {
    // 2. Aggregate capacity: no token, nothing can be admitted — shed
    //    regardless of fairness standing.
    refill(capacity_, now);
    if (capacity_.tokens < 1.0) {
      ++shed_capacity_;
      return {false, hint(1.0 - capacity_.tokens, capacity_.rate_hz)};
    }

    // Advance the fluid GPS clock: virtual time moves with real time at
    // capacity/weight_sum, the rate at which a fully backlogged system
    // serves virtual work. Driving it from the clock (not from
    // admissions) means a shed tenant's lag always drains — fairness
    // can never deadlock the admitter.
    if (now > vtime_at_) {
      vtime_ += static_cast<double>(now - vtime_at_) * 1e-9 * capacity_.rate_hz /
                std::max(1.0, weight_sum_);
      vtime_at_ = now;
    }

    // 3. Fairness — but only while the capacity is contended (bucket
    //    below full: demand has been outrunning the refill). An
    //    uncontended admitter is work-conserving: nobody competes for
    //    the token, so shedding by weight share would deny capacity
    //    that is sitting free. A tenant whose virtual finish tag has
    //    run more than wfq_credit ahead of global virtual time is
    //    consuming beyond its weight share of the contended capacity —
    //    shed it and leave the token for a tenant that is behind. In
    //    sustained overload each backlogged tenant's tag is pinned at
    //    the credit boundary, so its admission rate is exactly
    //    capacity * weight / weight_sum.
    const double start = std::max(t.finish, vtime_);
    const bool contended = capacity_.tokens < capacity_.burst;
    if (contended && start - vtime_ > config_.wfq_credit) {
      ++shed_wfq_;
      // The lag drains at dV/dt = capacity/weight_sum: excess virtual
      // units take excess * weight_sum / capacity seconds.
      const double excess = start - vtime_ - config_.wfq_credit;
      return {false, hint(excess * std::max(1.0, weight_sum_), capacity_.rate_hz)};
    }

    // Admit: consume the token and advance the tenant's tag by its
    // weighted cost (1/weight virtual units per admission). The tag is
    // clamped to the credit boundary, so capacity used while
    // uncontended never becomes debt once contention starts — the
    // tenant resumes from the boundary, paced at its weight share from
    // that instant on. (Under contention the clamp is a no-op: the
    // credit check already bounded `start`.)
    capacity_.tokens -= 1.0;
    t.finish = std::min(start + 1.0 / static_cast<double>(t.weight),
                        vtime_ + config_.wfq_credit + 1.0 / static_cast<double>(t.weight));
  }

  if (t.bucket.limited) t.bucket.tokens -= 1.0;
  ++admitted_;
  return {};
}

std::uint64_t Admission::admitted() const {
  std::lock_guard lock(mu_);
  return admitted_;
}

std::uint64_t Admission::shed_rate() const {
  std::lock_guard lock(mu_);
  return shed_rate_;
}

std::uint64_t Admission::shed_capacity() const {
  std::lock_guard lock(mu_);
  return shed_capacity_;
}

std::uint64_t Admission::shed_wfq() const {
  std::lock_guard lock(mu_);
  return shed_wfq_;
}

std::uint64_t Admission::sheds() const {
  std::lock_guard lock(mu_);
  return shed_rate_ + shed_capacity_ + shed_wfq_;
}

}  // namespace rfs::rfaas
