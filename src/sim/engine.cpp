#include "sim/engine.hpp"

namespace rfs::sim {

namespace {
thread_local Engine* t_current = nullptr;
thread_local bool t_draining = false;
}  // namespace

Engine::Engine() {
  if (t_current == nullptr) t_current = this;
}

Engine::~Engine() {
  // Backstop for owners that did not drain explicitly. Harnesses drain
  // first thing in their own destructors, while the simulated objects the
  // actors reference are still alive — prefer that.
  drain_detached();
  if (t_current == this) t_current = nullptr;
}

void Engine::register_detached(DetachedLink& link) {
  link.prev = nullptr;
  link.next = detached_;
  if (detached_ != nullptr) detached_->prev = &link;
  detached_ = &link;
  ++detached_count_;
}

void Engine::deregister_detached(DetachedLink& link) {
  if (link.prev != nullptr) {
    link.prev->next = link.next;
  } else {
    detached_ = link.next;
  }
  if (link.next != nullptr) link.next->prev = link.prev;
  link.prev = nullptr;
  link.next = nullptr;
  --detached_count_;
}

void Engine::drain_detached() {
  // Unlink before destroying, and re-read the head every time: a frame's
  // destruction runs its locals' destructors, which may spawn further
  // actors.
  const bool outer = t_draining;
  t_draining = true;
  while (detached_ != nullptr) {
    DetachedLink& link = *detached_;
    deregister_detached(link);
    link.frame.destroy();
  }
  t_draining = outer;
  // Queued resumptions may now dangle (their frames died above); nothing
  // may run after a drain, so drop them wholesale.
  queue_ = {};
  now_lane_.clear();
  now_head_ = 0;
}

bool Engine::draining() { return t_draining; }

void Engine::schedule_at(Time t, std::coroutine_handle<> h) {
  if (t <= now_) {
    now_lane_.push_back(h);
    return;
  }
  queue_.push(Item{t, seq_++, h});
}

Time Engine::run() {
  CurrentEngineScope scope(*this);
  while (step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  CurrentEngineScope scope(*this);
  while ((now_head_ < now_lane_.size() && now_ <= deadline) ||
         (!queue_.empty() && queue_.top().t <= deadline)) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

bool Engine::step() {
  std::coroutine_handle<> h;
  if (!queue_.empty() && queue_.top().t <= now_) {
    // Queued before time reached now_, so ahead of every lane entry.
    h = queue_.top().h;
    queue_.pop();
  } else if (now_head_ < now_lane_.size()) {
    h = now_lane_[now_head_++];
    if (now_head_ == now_lane_.size()) {
      now_lane_.clear();
      now_head_ = 0;
    }
  } else if (!queue_.empty()) {
    now_ = queue_.top().t;
    h = queue_.top().h;
    queue_.pop();
  } else {
    return false;
  }
  CurrentEngineScope scope(*this);
  h.resume();
  return true;
}

Engine* Engine::current() { return t_current; }

void Engine::make_current() { t_current = this; }

CurrentEngineScope::CurrentEngineScope(Engine& e) : prev_(t_current) { t_current = &e; }

CurrentEngineScope::~CurrentEngineScope() { t_current = prev_; }

}  // namespace rfs::sim
