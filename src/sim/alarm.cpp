#include "sim/alarm.hpp"

#include <utility>

namespace rfs::sim {

Alarm::Alarm(std::function<Time(Time now)> fire) : fire_(std::move(fire)) {}

Alarm::~Alarm() {
  if (state_ != nullptr) state_->fire = nullptr;
}

void Alarm::arm(Time at) {
  if (state_ == nullptr) {
    state_ = std::make_shared<State>();
    state_->fire = std::move(fire_);
  }
  if (state_->due <= at) return;  // the live actor wakes in time
  // No actor, or one due after `at`: start one for it. The late one sees
  // the new generation when it wakes and retires.
  state_->due = at;
  spawn(*Engine::current(), run(state_, ++state_->generation));
}

Task<void> Alarm::run(std::shared_ptr<State> state, std::uint64_t generation) {
  for (;;) {
    co_await delay_until(state->due);
    if (!state->fire || state->generation != generation) co_return;
    state->due = state->fire(Engine::current()->now());
    if (state->due == kNever) co_return;
  }
}

}  // namespace rfs::sim
