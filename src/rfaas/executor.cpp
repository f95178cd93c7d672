#include "rfaas/executor.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace rfs::rfaas {

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

Worker::Worker(ExecutorManager& mgr, Sandbox& sandbox) : mgr_(mgr), sandbox_(sandbox) {}

Worker::~Worker() {
  conn_.reset();  // its queue pair holds the protection domain
  mgr_.device_.dealloc_pd(pd_);
}

sim::Task<void> Worker::init() {
  // The executor process "accesses the selected RDMA device, registers
  // memory buffers, and creates worker threads pinned to assigned cores"
  // (Sec. III-C, cold invocations).
  pd_ = mgr_.device_.alloc_pd();
  const std::uint64_t out_bytes = mgr_.config_.worker_out_buffer_bytes > 0
                                      ? mgr_.config_.worker_out_buffer_bytes
                                      : mgr_.config_.worker_buffer_bytes;
  // Draw from the manager's buffer freelist when a retired worker left a
  // matching region behind; a new process still pays the (timed) pinning
  // cost, but the host maps no new region.
  recv_buf_ = mgr_.take_pooled_buffer(mgr_.config_.worker_buffer_bytes);
  out_buf_ = mgr_.take_pooled_buffer(out_bytes);
  co_await recv_buf_->register_memory_timed(*pd_, fabric::RemoteWrite | fabric::LocalWrite);
  co_await out_buf_->register_memory_timed(*pd_, fabric::LocalWrite);
  co_await sim::delay(mgr_.config_.worker_spawn);
  sim::spawn(mgr_.engine_, run());
}

void Worker::attach_connection(std::unique_ptr<rdmalib::Connection> conn) {
  conn_ = std::move(conn);
  // Client writes may arrive marginally before the first receive is
  // posted; infinite RNR retry parks them instead of erroring.
  conn_->qp()->set_rnr_policy(fabric::RnrPolicy::Wait);
  connected_.set();
}

void Worker::stop() {
  running_ = false;
  connected_.set();
  if (conn_) conn_->close();
}

sim::Task<void> Worker::drain() {
  running_ = false;
  connected_.set();
  // A wedged worker's invocation never completes (injected stuck fault):
  // waiting on done_ would hang the teardown forever, so it is the one
  // in-flight case drain() abandons.
  if (in_flight_ && !wedged_) {
    // An invocation is executing: let it run to completion and write its
    // result back over the still-open connection before closing. run()
    // exits its loop right after (running_ is false) and sets done_.
    ++mgr_.drained_in_flight_;
    co_await done_.wait();
  }
  // Idle (or now-finished) worker: closing flushes pending receives with
  // FlushError, which wakes a hot poller or blocked warm waiter promptly.
  if (conn_) conn_->close();
}

void Worker::rearm() {
  conn_.reset();
  connected_.reset();
  done_.reset();
  running_ = true;
  hot_ = false;
  holds_core_ = false;
  in_flight_ = false;
  wedged_ = false;
  sim::spawn(mgr_.engine_, run());
}

void Worker::surrender_buffers() {
  if (recv_buf_) {
    recv_buf_->deregister();
    mgr_.recycle_buffer(std::move(recv_buf_));
  }
  if (out_buf_) {
    out_buf_->deregister();
    mgr_.recycle_buffer(std::move(out_buf_));
  }
}

void Worker::post_receive() {
  // WRITE_WITH_IMM places the data via the rkey; the receive work request
  // only carries the completion event, so it needs no scatter list.
  (void)conn_->post_recv_empty(served_ + 1);
}

void Worker::release_core_if_held() {
  if (holds_core_) {
    mgr_.host_.release_core();
    holds_core_ = false;
  }
}

sim::Task<void> Worker::run() {
  co_await connected_.wait();
  if (running_ && conn_ != nullptr) {
    post_receive();
    if (sandbox_.policy == InvocationPolicy::HotAlways) {
      co_await mgr_.host_.acquire_core();
      holds_core_ = true;
      hot_ = true;
    }

    while (running_) {
      if (hot_) {
        // Hot: busy-poll the CQ; the core stays occupied and the polling
        // time is billed as Ch.
        const Time poll_start = mgr_.engine_.now();
        auto wc = co_await conn_->recv_cq().wait_polling(poll_start + sandbox_.hot_timeout);
        const Duration polled = mgr_.engine_.now() - poll_start;
        mgr_.account_hot_poll(sandbox_.client_id, polled);
        mgr_.host_.note_busy(polled);
        if (!running_) break;
        if (!wc.has_value()) {
          // Roll back to warm after the configured silence (Sec. III-C).
          if (sandbox_.policy == InvocationPolicy::Adaptive) {
            release_core_if_held();
            hot_ = false;
          }
          continue;
        }
        if (wc->status != fabric::WcStatus::Success) break;
        in_flight_ = true;
        co_await execute_and_reply(*wc, true);
        in_flight_ = false;
      } else {
        // Warm: block on the completion channel; pay wake-up + re-arm and
        // the local resource check with the allocator, then acquire the
        // core (rejecting under oversubscription, Fig. 6).
        auto wc = co_await conn_->recv_cq().wait_blocking();
        if (!running_) break;
        if (!wc.has_value()) continue;  // drained by another consumer during the wake-up
        if (wc->status != fabric::WcStatus::Success) break;
        // The invocation's bytes already landed in recv_buf_; from here it
        // must run to completion even if a teardown starts concurrently.
        in_flight_ = true;
        co_await sim::delay(mgr_.config_.warm_rearm + mgr_.config_.warm_resource_check);
        holds_core_ = mgr_.host_.try_acquire_core();
        co_await execute_and_reply(*wc, false);
        in_flight_ = false;
        if (holds_core_) {
          if (sandbox_.policy == InvocationPolicy::Adaptive) {
            hot_ = true;  // enter hot polling on the held core
          } else {
            release_core_if_held();
          }
        }
      }
    }
  }
  release_core_if_held();
  done_.set();
}

namespace {

/// Slack the deadline guard reserves for the reply's wire + wake-up
/// latency: an execution admitted by the guard deterministically lands
/// its response at the client before the client's deadline fires, so a
/// deadline timeout implies the invocation did not (and will not)
/// execute — the invariant the retry path's zero-double-execution gate
/// rests on.
constexpr Duration kDeadlineMargin = 100_us;

/// Keeps a torn-down sandbox from being freed (see Sandbox::pins).
class SandboxPin {
 public:
  explicit SandboxPin(Sandbox& sb) : sb_(sb) { ++sb_.pins; }
  ~SandboxPin() {
    // A drain may destroy the holding frame after the manager is gone.
    if (!sim::Engine::draining()) --sb_.pins;
  }
  SandboxPin(const SandboxPin&) = delete;
  SandboxPin& operator=(const SandboxPin&) = delete;

 private:
  Sandbox& sb_;
};

}  // namespace

sim::Task<void> Worker::execute_and_reply(const fabric::Wc& wc, bool hot) {
  sandbox_.last_invocation = mgr_.engine_.now();
  const auto& sb_model = mgr_.config_.sandbox(sandbox_.type);
  const std::uint32_t invocation_id = Imm::invocation_id(wc.imm);
  const std::uint16_t fn_index = Imm::fn_index(wc.imm);
  const CodePackage* code =
      fn_index < sandbox_.codes.size() ? sandbox_.codes[fn_index] : nullptr;
  bool rejected = !hot && !holds_core_;

  // Injected executor fault, drawn before any timed work so the RNG
  // stream depends only on the seed and the dispatch order (replayable
  // from RFS_CHAOS_SEED like link faults).
  net::WorkerFaultInjector::Decision fault;
  if (mgr_.worker_faults_ != nullptr) fault = mgr_.worker_faults_->decide(mgr_.device_.id());

  // Worker crash: the process dies before user code runs — no reply, no
  // execution, the connection drops. Only the client's deadline (or a
  // flushed CQ) surfaces this.
  if (fault.crash) {
    running_ = false;
    if (conn_) conn_->close();
    co_return;
  }

  // Stuck sandbox: the invocation wedges forever. Teardown must not
  // wait for it (drain() checks wedged_) and the warm pool never adopts
  // its sandbox (poolable()).
  if (fault.stuck) {
    wedged_ = true;
    co_await wedge_.wait();  // never set: parked until simulation end
    co_return;
  }

  // Gray slowness: a pre-dispatch stall (host alive but degraded).
  // Injected before the deadline guard so a pause that overruns the
  // client's deadline becomes a deadline drop — never a late execution
  // racing the client's retry.
  if (fault.gray_delay > 0) co_await sim::delay(fault.gray_delay);

  // Dispatch: header parse + function lookup (+ virtualized NIC cost).
  const Duration dispatch =
      mgr_.config_.executor_dispatch +
      (hot ? sb_model.hot_invocation_overhead : sb_model.warm_invocation_overhead);
  co_await sim::delay(dispatch);

  // A frame shorter than the header (or overrunning the buffer) names no
  // result address or key to answer at: run nothing, write nothing, and
  // leave the client's deadline to surface the loss.
  const auto frame = decode_invocation_frame({recv_buf_->raw(), recv_buf_->raw_bytes()},
                                             wc.byte_len);
  if (!frame.ok()) {
    post_receive();
    co_return;
  }
  const InvocationHeader& header = frame.value().header;
  const std::uint8_t* input = frame.value().payload.data();
  const auto input_size = static_cast<std::uint32_t>(frame.value().payload.size());
  const std::uint64_t tag = header.invocation_tag;

  // Modelled execution time is known up front (the simulation charges it
  // in virtual time), which lets the deadline guard below prove whether
  // this invocation can still answer in time.
  Duration compute = 0;
  if (code != nullptr) {
    double multiplier = 1.0;
    if (sandbox_.type == SandboxType::Docker) {
      multiplier = code->docker_compute_multiplier > 0.0 ? code->docker_compute_multiplier
                                                         : sb_model.compute_multiplier;
    }
    compute = static_cast<Duration>(
        static_cast<double>(code->compute_time(input_size)) * multiplier);
  }

  bool dropped = false;

  // Hedge-loser cancellation parked on the manager beat us to dispatch.
  if (tag != 0 && mgr_.consume_cancel(tag)) {
    rejected = true;
    dropped = true;
  }

  // Deadline guard: if the modelled execution cannot complete — with a
  // margin covering the reply's flight — before the client's deadline,
  // the client has (or will have) timed out and retried elsewhere.
  // Executing now would be the classic retry double-execution; drop.
  if (!dropped && header.deadline != 0 &&
      mgr_.engine_.now() + compute + kDeadlineMargin > header.deadline) {
    rejected = true;
    dropped = true;
  }

  // Request integrity: a checksum mismatch means the payload was mangled
  // in flight; reject rather than execute garbage bytes.
  if (!dropped && header.checksum != 0 && payload_checksum(input, input_size) != header.checksum) {
    rejected = true;
    dropped = true;
  }

  std::uint32_t out_len = 0;
  std::uint32_t reply_csum = 0;
  const ExecutorManager::DedupEntry* dup =
      (!dropped && tag != 0) ? mgr_.dedup_find(tag) : nullptr;
  if (dup != nullptr) {
    // Idempotent replay: this tag already executed on this manager (a
    // retry or hedge twin). Return the stored clean result without
    // running user code again.
    out_len = static_cast<std::uint32_t>(dup->output.size());
    std::memcpy(out_buf_->raw(), dup->output.data(), out_len);
    reply_csum = dup->checksum12;
    rejected = false;
    ++served_;
  } else if (!rejected && code != nullptr) {
    if (mgr_.worker_faults_ != nullptr) (void)mgr_.worker_faults_->note_execution(tag);
    const CodePackage& pkg = *code;
    // Run the real user code on the real bytes...
    out_len = pkg.entry(input, input_size, out_buf_->raw());
    // ...and charge its modelled duration in virtual time.
    if (compute > 0) co_await mgr_.host_.compute_on_held_core(compute);
    mgr_.account_compute(sandbox_.client_id, compute + dispatch);
    ++served_;
    // Stamp the reply checksum and store the clean result for replay
    // BEFORE any injected corruption: the client detects the flipped
    // bytes by the mismatch, and its same-worker retry replays the
    // stored clean copy instead of re-executing.
    if (header.checksum != 0) reply_csum = fold12(payload_checksum(out_buf_->raw(), out_len));
    if (tag != 0) mgr_.dedup_record(tag, reply_csum, out_buf_->raw(), out_len);
    if (fault.corrupt) mgr_.worker_faults_->corrupt({out_buf_->raw(), out_len});
  }

  // Re-post the receive before replying so the next request finds it.
  post_receive();

  // Write the result (or the rejection notice) directly into the client's
  // memory using the header's address and access key.
  rdmalib::RemoteBuffer dst{header.result_addr, header.result_rkey, out_len};
  const std::uint32_t imm =
      Imm::result(invocation_id, rejected || code == nullptr, reply_csum);
  const bool inline_ok = out_len <= mgr_.fabric_.model().max_inline;
  auto st = conn_->post_write_imm(out_buf_->sge_data(out_len), dst, imm, invocation_id,
                                  inline_ok);
  if (!st.ok()) {
    log::warn("worker", "result write failed: ", st.error().message);
    co_return;
  }
  auto send_wc = co_await conn_->send_cq().wait_polling();
  if (send_wc->status != fabric::WcStatus::Success) {
    log::debug("worker", "result delivery failed: ", to_string(send_wc->status));
  }
}

// ---------------------------------------------------------------------------
// IdleHistory
// ---------------------------------------------------------------------------

Duration IdleHistory::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(count_ - 1) + 0.5);
  // Selects the idx-th smallest retained sample, as sorting would.
  std::array<Duration, kWindow> window = samples_;
  std::nth_element(window.begin(), window.begin() + idx, window.begin() + count_);
  return window[idx];
}

namespace {

/// Histogram key of a sandbox: its tenant plus its primary
/// (first-installed) function. Idle behaviour is a property of how ONE
/// tenant drives a function image — mixing tenants would let a bursty
/// client's short gaps shrink the keep-alive horizon of a slow-cadence
/// one (and vice versa), exactly the cross-tenant interference the
/// per-function SeBS eviction model avoids.
std::string function_key(const Sandbox& sb) {
  return std::to_string(sb.client_id) + '/' +
         (sb.codes.empty() ? std::string{} : sb.codes.front()->name);
}

}  // namespace

// ---------------------------------------------------------------------------
// ExecutorManager
// ---------------------------------------------------------------------------

ExecutorManager::ExecutorManager(sim::Engine& engine, fabric::Fabric& fabric,
                                 net::TcpNetwork& tcp, sim::Host& host, fabric::Device& device,
                                 Config config, const FunctionRegistry& registry)
    : engine_(engine),
      fabric_(fabric),
      tcp_(tcp),
      host_(host),
      device_(device),
      config_(std::move(config)),
      registry_(registry) {
  pd_ = device_.alloc_pd();
  billing_scratch_ = std::make_unique<rdmalib::Buffer<std::uint64_t>>(8);
  (void)billing_scratch_->register_memory(*pd_, fabric::LocalWrite);
}

void ExecutorManager::start(fabric::DeviceId rm_device, std::uint16_t rm_port) {
  alive_ = true;
  sim::spawn(engine_, run_alloc_server());
  sim::spawn(engine_, run_rdma_accept());
  sim::spawn(engine_, register_with_rm(rm_device, rm_port));
  sim::spawn(engine_, billing_flush_loop());
  sim::spawn(engine_, reaper_loop());
  // Only schedule the sweep when the pool exists: with the pool disabled
  // (the default) the manager's event pattern is exactly the seed's.
  if (config_.warm_pool_capacity > 0) sim::spawn(engine_, warm_pool_sweeper());
}

void ExecutorManager::stop() {
  alive_ = false;
  std::vector<std::uint64_t> ids;
  for (auto& [id, sb] : sandboxes_) ids.push_back(id);
  for (auto id : ids) {
    auto it = sandboxes_.find(id);
    if (it == sandboxes_.end()) continue;
    Sandbox& sb = *it->second;
    sb.dead = true;
    for (auto& w : sb.workers) w->stop();
    bury(std::move(it->second));
    sandboxes_.erase(it);
  }
  while (!warm_pool_.empty()) {
    auto sb = std::move(warm_pool_.front());
    warm_pool_.pop_front();
    host_.release_memory(sb->memory_bytes);
    bury(std::move(sb));
  }
  if (rm_session_) rm_session_->stream()->close();
}

std::size_t ExecutorManager::live_sandboxes() const {
  std::size_t n = 0;
  for (const auto& [id, sb] : sandboxes_) {
    if (!sb->dead) ++n;
  }
  return n;
}

Sandbox* ExecutorManager::find_sandbox(std::uint64_t id) {
  auto it = sandboxes_.find(id);
  return it == sandboxes_.end() ? nullptr : it->second.get();
}

void ExecutorManager::account_compute(std::uint32_t client_id, Duration d) {
  pending_usage_[client_id].compute_ns += d;
}

void ExecutorManager::account_hot_poll(std::uint32_t client_id, Duration d) {
  pending_usage_[client_id].hot_poll_ns += d;
}

void ExecutorManager::account_allocation(std::uint32_t client_id, std::uint64_t mib_ms) {
  pending_usage_[client_id].allocation_mib_ms += mib_ms;
}

sim::Task<void> ExecutorManager::run_alloc_server() {
  auto& listener = tcp_.listen(device_.id(), alloc_port_);
  while (alive_) {
    auto stream = co_await listener.accept();
    if (stream == nullptr) break;
    sim::spawn(engine_, handle_stream(std::move(stream)));
  }
}

sim::Task<void> ExecutorManager::handle_stream(std::shared_ptr<net::TcpStream> stream) {
  while (alive_) {
    auto raw = co_await stream->recv();
    if (!raw.has_value()) break;
    auto type = peek_type(*raw);
    if (!type) {
      stream->send(encode_lease_error("malformed message"));
      continue;
    }
    switch (type.value()) {
      case MsgType::AllocationRequest: {
        auto req = decode_allocation_request(*raw);
        if (!req) {
          stream->send(encode_lease_error(req.error().message));
          break;
        }
        auto reply = co_await allocate_sandbox(req.value());
        stream->send(encode(reply));
        break;
      }
      case MsgType::SubmitCode: {
        auto req = decode_submit_code(*raw);
        if (!req) {
          stream->send(encode_lease_error(req.error().message));
          break;
        }
        Sandbox* sb = find_sandbox(req.value().sandbox_id);
        if (sb == nullptr || sb->dead) {
          stream->send(encode_lease_error("unknown sandbox"));
          break;
        }
        auto pkg = registry_.find(req.value().function_name);
        if (!pkg) {
          stream->send(encode_lease_error(pkg.error().message));
          break;
        }
        // Warm-pool payoff: a revived sandbox still has the library
        // installed from its previous life — return the existing index
        // and skip the dlopen + relocation cost entirely.
        auto installed = std::find(sb->codes.begin(), sb->codes.end(), pkg.value());
        if (installed != sb->codes.end()) {
          SubmitCodeOkMsg ok;
          ok.fn_index = static_cast<std::uint16_t>(installed - sb->codes.begin());
          stream->send(encode(ok));
          break;
        }
        // Install the shipped library: dlopen + relocation cost scales
        // with the code size (which already paid its wire cost).
        SandboxPin pin(*sb);
        co_await sim::delay(config_.code_install_base +
                            config_.code_install_per_kb * (req.value().code_size / 1024));
        sb->codes.push_back(pkg.value());
        SubmitCodeOkMsg ok;
        ok.fn_index = static_cast<std::uint16_t>(sb->codes.size() - 1);
        stream->send(encode(ok));
        break;
      }
      case MsgType::Deallocate: {
        auto req = decode_deallocate(*raw);
        if (!req) {
          stream->send(encode_lease_error(req.error().message));
          break;
        }
        Sandbox* sb = find_sandbox(req.value().sandbox_id);
        if (sb != nullptr && !sb->dead) {
          co_await teardown_sandbox(*sb, /*notify_rm=*/true);
        }
        stream->send(encode(MsgType::DeallocateOk));
        break;
      }
      case MsgType::InvocationCancel: {
        // Hedge-loser suppression: fire-and-forget (no reply — the
        // canceller is racing the invocation and never waits on us).
        // Parking the tag is enough: a dispatch that has not started yet
        // consumes it and drops; one already past dispatch is absorbed
        // by the dedup table on the client's side instead.
        auto req = decode_invocation_cancel(*raw);
        if (req) note_cancel(req.value().invocation_tag);
        break;
      }
      default:
        stream->send(encode_lease_error("unexpected message type"));
        break;
    }
  }
}

sim::Task<AllocationReplyMsg> ExecutorManager::allocate_sandbox(const AllocationRequestMsg& req) {
  co_await sim::delay(config_.allocation_processing);
  AllocationReplyMsg reply;
  if (!alive_) {
    reply.error = "allocator shutting down";
    co_return reply;
  }
  const std::uint64_t total_memory = req.memory_bytes * req.workers;

  // Warm hit: a pooled sandbox of the same tenant and shape revives in
  // microseconds — the executor process, its installed code and its
  // registered buffers are all still live, so the entire cold path
  // (sandbox spawn, buffer pinning, worker spawn, code install) vanishes.
  if (auto pooled = take_from_pool(req, total_memory)) {
    const Time revive_start = engine_.now();
    Sandbox& sb = *pooled;
    sb.idle_history->record(engine_.now() - sb.pooled_at);
    ++pool_stats_.hits;
    sb.lease_id = req.lease_id;
    sb.policy = static_cast<InvocationPolicy>(req.policy);
    sb.hot_timeout = req.hot_timeout;
    sb.created_at = engine_.now();
    sb.last_invocation = engine_.now();
    sb.billed_until = engine_.now();
    sb.expires_at = req.expires_at;
    sb.pooled_at = 0;
    sb.dead = false;
    co_await sim::delay(config_.warm_pool_revive);
    for (auto& w : sb.workers) {
      // The previous serving loop signalled done_ on exit; awaiting it
      // makes the rearm race-free before resetting the worker state.
      co_await w->done().wait();
      w->rearm();
    }
    const std::uint64_t sid = sb.id;
    sandboxes_[sid] = std::move(pooled);
    if (sb.expires_at > 0) expiry_alarm_.arm(sb.expires_at);
    reply.ok = true;
    reply.sandbox_id = sid;
    reply.rdma_port = rdma_port_;
    reply.spawn_ns = engine_.now() - revive_start;
    co_return reply;
  }
  if (config_.warm_pool_capacity > 0) ++pool_stats_.misses;

  // Cold allocation. Under memory pressure the pool yields first:
  // keep-alive sandboxes are reclaimed oldest-first until the reservation
  // fits (pooled capacity is a cache, never a denial-of-service).
  auto st = host_.reserve_memory(total_memory);
  while (!st.ok() && !warm_pool_.empty()) {
    auto victim = std::move(warm_pool_.front());
    warm_pool_.pop_front();
    ++pool_stats_.pressure_evictions;
    destroy_sandbox_final(std::move(victim));
    st = host_.reserve_memory(total_memory);
  }
  if (!st.ok()) {
    reply.error = st.error().message;
    co_return reply;
  }

  auto sandbox = std::make_unique<Sandbox>();
  Sandbox& sb = *sandbox;
  sb.id = next_sandbox_id_++;
  sb.lease_id = req.lease_id;
  sb.client_id = req.client_id;
  sb.type = static_cast<SandboxType>(req.sandbox);
  sb.policy = static_cast<InvocationPolicy>(req.policy);
  sb.hot_timeout = req.hot_timeout;
  sb.memory_bytes = total_memory;
  sb.created_at = engine_.now();
  sb.last_invocation = engine_.now();
  sb.billed_until = sb.created_at;
  sb.expires_at = req.expires_at;
  sandboxes_[sb.id] = std::move(sandbox);
  SandboxPin pin(sb);  // a teardown may bury it while it starts
  const Time spawn_start = engine_.now();

  // Sandbox creation (process start or container boot with SR-IOV).
  co_await sim::delay(config_.sandbox(sb.type).spawn_latency);
  // A LeasesTerminated (drain, quota, rebalance) may have torn the still
  // empty sandbox down meanwhile: its workers would wait for a client
  // connection that run_rdma_accept() refuses, and never be freed.
  if (sb.dead) {
    reply.error = "sandbox torn down during its start";
    co_return reply;
  }

  // Workers initialize concurrently: buffer registration + thread spawn.
  sim::WaitGroup wg(req.workers);
  for (std::uint32_t i = 0; i < req.workers; ++i) {
    sb.workers.push_back(std::make_unique<Worker>(*this, sb));
    auto init_one = [](Worker* w, sim::WaitGroup* group) -> sim::Task<void> {
      co_await w->init();
      group->done();
    };
    sim::spawn(engine_, init_one(sb.workers.back().get(), &wg));
  }
  co_await wg.wait();
  if (sb.dead) {  // the teardown drained the workers while they started
    reply.error = "sandbox torn down during its start";
    co_return reply;
  }
  if (sb.expires_at > 0) expiry_alarm_.arm(sb.expires_at);

  reply.ok = true;
  reply.sandbox_id = sb.id;
  reply.rdma_port = rdma_port_;
  reply.spawn_ns = engine_.now() - spawn_start;
  co_return reply;
}

sim::Task<void> ExecutorManager::teardown_sandbox(Sandbox& sb, bool notify_rm) {
  if (sb.dead) co_return;
  sb.dead = true;
  SandboxPin pin(sb);  // stop() may bury it mid-teardown
  // Graceful drain: a worker that already accepted an invocation finishes
  // it and delivers the result before its connection closes; idle workers
  // close immediately (identical to the pre-drain behaviour).
  for (auto& w : sb.workers) co_await w->drain();

  const bool park = poolable(sb);
  // A parked sandbox keeps its host memory reservation (the keep-alive
  // cost); a destroyed one releases it right away.
  if (!park) host_.release_memory(sb.memory_bytes);

  // Bill the allocation component Ca: memory reservation x wall time.
  // The flush loop already accrued up to billed_until; charge the tail.
  // Pooled time is NOT billed to the client — keep-alive is funded by the
  // provider in exchange for faster repeat allocations (the SeBS model).
  account_allocation(sb.client_id,
                     allocation_mib_ms(sb.memory_bytes, engine_.now() - sb.billed_until));
  sb.billed_until = engine_.now();
  co_await flush_billing();

  if (notify_rm && rm_session_ != nullptr && !rm_session_->closed()) {
    // "When users terminate the allocation before the lease expires,
    // executors notify the manager to include their resources in future
    // allocations" (Sec. III-B). The release retransmits until the
    // manager acks it (detached: teardown latency must not absorb
    // retransmission timeouts); one that never lands is reclaimed by the
    // manager's expiry sweep.
    const ReleaseResourcesMsg rel{.lease_id = sb.lease_id,
                                  .workers = static_cast<std::uint32_t>(sb.workers.size()),
                                  .memory_bytes = sb.memory_bytes};
    sim::spawn(engine_, send_acked(rm_session_, rel));
  }

  auto it = sandboxes_.find(sb.id);
  std::unique_ptr<Sandbox> owned;
  if (it != sandboxes_.end()) {
    owned = std::move(it->second);
    sandboxes_.erase(it);
  }
  if (owned == nullptr) co_return;

  if (park) {
    sb.pooled_at = engine_.now();
    sb.idle_history = &idle_history_[function_key(sb)];
    ++pool_stats_.parked;
    warm_pool_.push_back(std::move(owned));
    if (warm_pool_.size() > config_.warm_pool_capacity) {
      auto victim = std::move(warm_pool_.front());
      warm_pool_.pop_front();
      ++pool_stats_.capacity_evictions;
      destroy_sandbox_final(std::move(victim));
    }
  } else {
    for (auto& w : sb.workers) w->surrender_buffers();
    bury(std::move(owned));
  }
}

bool ExecutorManager::poolable(const Sandbox& sb) const {
  // A wedged (stuck-fault) worker never completes its invocation, so its
  // sandbox can never be revived — rearm() would wait on done() forever.
  for (const auto& w : sb.workers) {
    if (w->wedged()) return false;
  }
  return alive_ && config_.warm_pool_capacity > 0 && !sb.workers.empty();
}

const ExecutorManager::DedupEntry* ExecutorManager::dedup_find(std::uint64_t tag) const {
  const auto slot = dedup_tags_.find(tag);
  return slot ? &dedup_[*slot] : nullptr;
}

void ExecutorManager::dedup_record(std::uint64_t tag, std::uint32_t checksum12,
                                   const std::uint8_t* out, std::uint32_t len) {
  if (dedup_find(tag) != nullptr) return;
  std::size_t slot = dedup_.size();
  if (slot < kDedupWindow) {
    dedup_.emplace_back();
  } else {
    slot = dedup_oldest_;
    dedup_oldest_ = (dedup_oldest_ + 1) % kDedupWindow;
    dedup_tags_.erase(slot);
  }
  dedup_tags_.insert(tag, slot);
  DedupEntry& e = dedup_[slot];
  e.checksum12 = checksum12;
  e.output.assign(out, out + len);
}

void ExecutorManager::note_cancel(std::uint64_t tag) {
  if (tag == 0 || !cancelled_tags_.insert(tag).second) return;
  cancel_fifo_.push_back(tag);
  if (cancel_fifo_.size() > kCancelWindow) {
    cancelled_tags_.erase(cancel_fifo_.front());
    cancel_fifo_.pop_front();
  }
}

bool ExecutorManager::consume_cancel(std::uint64_t tag) {
  return cancelled_tags_.erase(tag) != 0;
}

std::unique_ptr<Sandbox> ExecutorManager::take_from_pool(const AllocationRequestMsg& req,
                                                         std::uint64_t total_memory) {
  // Most-recently-parked first: the newest entry has the warmest caches
  // and the longest remaining keep-alive horizon. A sandbox never crosses
  // tenants — the pool match requires the same client, isolation type,
  // worker count and reservation size.
  for (auto it = warm_pool_.rbegin(); it != warm_pool_.rend(); ++it) {
    Sandbox& sb = **it;
    if (sb.client_id != req.client_id) continue;
    if (sb.type != static_cast<SandboxType>(req.sandbox)) continue;
    if (sb.workers.size() != req.workers) continue;
    if (sb.memory_bytes != total_memory) continue;
    auto fwd = std::next(it).base();
    auto owned = std::move(*fwd);
    warm_pool_.erase(fwd);
    return owned;
  }
  return nullptr;
}

void ExecutorManager::destroy_sandbox_final(std::unique_ptr<Sandbox> sb) {
  host_.release_memory(sb->memory_bytes);
  for (auto& w : sb->workers) w->surrender_buffers();
  bury(std::move(sb));
}

void ExecutorManager::bury(std::unique_ptr<Sandbox> sb) {
  std::erase_if(graveyard_, [](const std::unique_ptr<Sandbox>& dead) {
    return dead->pins == 0 && std::ranges::all_of(dead->workers, [](const auto& w) {
             return w->done().is_set();
           });
  });
  graveyard_.push_back(std::move(sb));
}

Duration ExecutorManager::keepalive_horizon(const Sandbox& sb) const {
  // The horizon covers the 99th percentile of the function's idle gaps,
  // padded by half: idle gaps jitter, and a gap marginally above every
  // previous observation would otherwise always evict. The padding
  // trades a little held memory for not cold-starting a tenant whose
  // cadence drifted a few percent.
  constexpr double kMargin = 1.5;
  if (sb.idle_history == nullptr || sb.idle_history->count() == 0) {
    // No history yet: optimistic start, the first idle samples decide.
    return config_.warm_pool_max_keepalive;
  }
  const Duration q = sb.idle_history->horizon_quantile();
  const auto padded = static_cast<Duration>(static_cast<double>(q) * kMargin);
  return std::clamp(padded, config_.warm_pool_min_keepalive, config_.warm_pool_max_keepalive);
}

std::uint64_t ExecutorManager::warm_pool_memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& sb : warm_pool_) total += sb->memory_bytes;
  return total;
}

sim::Task<void> ExecutorManager::warm_pool_sweeper() {
  // Predictive eviction: a pooled sandbox whose idle time exceeds its
  // function's keep-alive horizon (idle-histogram quantile) is unlikely
  // to be asked for again — reclaim its memory.
  while (alive_) {
    co_await sim::delay(config_.warm_pool_sweep_period);
    if (!alive_) break;
    for (auto it = warm_pool_.begin(); it != warm_pool_.end();) {
      Sandbox& sb = **it;
      if (engine_.now() - sb.pooled_at > keepalive_horizon(sb)) {
        auto victim = std::move(*it);
        it = warm_pool_.erase(it);
        ++pool_stats_.predictive_evictions;
        destroy_sandbox_final(std::move(victim));
      } else {
        ++it;
      }
    }
  }
}

std::unique_ptr<rdmalib::Buffer<std::uint8_t>> ExecutorManager::take_pooled_buffer(
    std::uint64_t bytes) {
  auto it = buffer_pool_.find(bytes);
  if (it != buffer_pool_.end() && !it->second.empty()) {
    auto buf = std::move(it->second.back());
    it->second.pop_back();
    --buffer_pool_count_;
    // Scrub: the region last served another allocation, possibly of a
    // different tenant; a recycled buffer must look freshly zeroed.
    buf->scrub();
    return buf;
  }
  return std::make_unique<rdmalib::Buffer<std::uint8_t>>(bytes);
}

void ExecutorManager::recycle_buffer(std::unique_ptr<rdmalib::Buffer<std::uint8_t>> buf) {
  if (buf == nullptr || buffer_pool_count_ >= kBufferPoolCap) return;
  ++buffer_pool_count_;
  buffer_pool_[buf->payload_bytes()].push_back(std::move(buf));
}

Time ExecutorManager::expire_sandboxes(Time now) {
  Time next = sim::kNever;
  if (!alive_) return next;
  for (const auto& [id, sb] : sandboxes_) {
    if (sb->dead || sb->expires_at == 0) continue;
    if (sb->expires_at > now) {
      next = std::min(next, sb->expires_at);
      continue;
    }
    log::debug("executor", "lease expired, reclaiming sandbox ", id);
    sim::spawn(engine_, reclaim_sandbox(id));
  }
  return next;
}

sim::Task<void> ExecutorManager::reclaim_sandbox(std::uint64_t sandbox_id) {
  Sandbox* sb = find_sandbox(sandbox_id);
  if (sb != nullptr && !sb->dead) co_await teardown_sandbox(*sb, /*notify_rm=*/false);
}

sim::Task<void> ExecutorManager::run_rdma_accept() {
  auto& listener = fabric_.listen(device_, rdma_port_);
  while (alive_) {
    auto req = co_await listener.accept();
    if (req == nullptr) break;
    ByteReader rd(req->private_data());
    auto sandbox_id = rd.u64();
    auto worker_idx = rd.u32();
    if (!sandbox_id || !worker_idx) {
      req->reject("malformed private data");
      continue;
    }
    Sandbox* sb = find_sandbox(sandbox_id.value());
    if (sb == nullptr || sb->dead || worker_idx.value() >= sb->workers.size()) {
      req->reject("no such worker");
      continue;
    }
    Worker& worker = *sb->workers[worker_idx.value()];
    // Reply with the worker's receive-buffer descriptor so the client can
    // write invocations into it.
    auto remote = worker.recv_buf_->remote();
    ByteWriter w;
    w.u64(remote.addr);
    w.u32(remote.rkey);
    w.u32(remote.length);
    worker.attach_connection(
        rdmalib::Connection::accept(*req, device_, worker.pd_, w.take()));
  }
}

sim::Task<void> ExecutorManager::register_with_rm(fabric::DeviceId rm_device,
                                                  std::uint16_t rm_port) {
  // The session pump below runs until the manager-side stream dies. With
  // Config::executor_reconnect_attempts == 0 that loss is permanent (the
  // pre-HA behaviour); otherwise the executor redials with backoff —
  // after a manager failover the promoted standby re-attaches the
  // registration (leases and sandboxes preserved). Every attempt bumps
  // the registration epoch, so a zombie primary's stale session can
  // never speak for this device again. The attempt budget resets after
  // any successful registration: each distinct manager death gets the
  // full budget, while an unreachable fleet still bounds the loop (the
  // sim engine runs until no events remain).
  unsigned failures = 0;
  while (alive_) {
    const bool registered = co_await register_session(rm_device, rm_port);
    if (registered) failures = 0;
    if (!alive_ || failures >= config_.executor_reconnect_attempts) co_return;
    ++failures;
    co_await sim::delay(config_.executor_reconnect_backoff);
  }
}

sim::Task<bool> ExecutorManager::register_session(fabric::DeviceId rm_device,
                                                  std::uint16_t rm_port) {
  // Registration runs through a retransmitting session: a dropped
  // RegisterExecutor or RegisterOk no longer strands the executor
  // outside the fleet. The epoch stamps this registration attempt so the
  // manager can fence retransmissions from a superseded session.
  ManagerLink link{&tcp_, device_.id(), rm_device, rm_port};
  link.options.epoch = static_cast<std::uint32_t>(registration_epoch_ + 1);
  auto session = co_await dial(engine_, link);
  if (!session.ok()) {
    log::warn("executor", "cannot reach resource manager: ", session.error().message);
    co_return false;
  }
  ++registration_epoch_;
  rm_session_ = std::move(session).take();

  RegisterExecutorMsg reg;
  reg.device = device_.id();
  reg.alloc_port = alloc_port_;
  reg.rdma_port = rdma_port_;
  reg.cores = host_.cores();
  reg.memory_bytes = host_.memory_bytes();
  reg.epoch = registration_epoch_;

  auto reply = co_await rm_session_->request(reg);
  if (!reply.ok()) {
    log::warn("executor", "registration failed: ", reply.error().message);
    co_return false;
  }
  auto ok = decode_register_ok(reply.value());
  if (!ok) {
    // Typically a LeaseError push-back: this epoch was fenced by a newer
    // registration session for the same device.
    log::warn("executor", "registration refused: ", ok.error().message);
    co_return false;
  }
  billing_addr_ = ok.value().billing_addr;
  billing_rkey_ = ok.value().billing_rkey;

  // RDMA connection to the resource manager for billing atomics.
  auto conn = co_await rdmalib::Connection::connect(fabric_, device_, pd_, rm_device,
                                                    ok.value().rm_rdma_port);
  if (conn.ok()) {
    rm_conn_ = std::move(conn).take();
  } else {
    log::warn("executor", "billing connection failed: ", conn.error().message);
  }

  // Answer heartbeats and apply lease-renewal pushes for as long as we
  // are alive. Pushes arrive through the session pump, which has already
  // dropped duplicated deliveries of sequenced eviction pushes — a
  // duplicated LeasesTerminated cannot reclaim a fresh sandbox that
  // reused the lease id.
  while (true) {
    auto msg = co_await rm_session_->next_push();
    if (!msg.has_value()) break;
    auto type = peek_type(*msg);
    if (!type.ok() || !alive_) continue;
    if (type.value() == MsgType::Heartbeat) {
      // Acks are periodic and loss-tolerant by design (the liveness
      // window spans multiple heartbeats), so they stay fire-and-forget.
      rm_session_->send_raw(encode(MsgType::HeartbeatAck));
    } else if (type.value() == MsgType::LeaseRenewed) {
      auto renewed = decode_lease_renewed(*msg);
      if (!renewed) continue;
      for (auto& [id, sb] : sandboxes_) {
        if (sb->dead || sb->lease_id != renewed.value().lease_id) continue;
        sb->expires_at = std::max(sb->expires_at, renewed.value().expires_at);
      }
    } else if (type.value() == MsgType::LeasesTerminated) {
      // Manager-initiated reclamation: the leases are already gone on the
      // manager side; tear their sandboxes down now instead of waiting for
      // the (possibly renewed) expiry timer. No ReleaseResources back —
      // the manager returned the capacity when it evicted. One message
      // carries every lease the manager evicted from this executor in one
      // sweep.
      auto term = decode_leases_terminated(*msg);
      if (!term) continue;
      for (auto lease_id : term.value().lease_ids) reclaim_lease(lease_id);
    }
  }
  co_return true;  // registered; the pump ended with the session
}

void ExecutorManager::reclaim_lease(std::uint64_t lease_id) {
  std::vector<std::uint64_t> doomed;
  for (auto& [id, sb] : sandboxes_) {
    if (!sb->dead && sb->lease_id == lease_id) doomed.push_back(id);
  }
  for (auto id : doomed) {
    log::debug("executor", "lease ", lease_id,
               " terminated by the manager, reclaiming sandbox ", id);
    sim::spawn(engine_, reclaim_sandbox(id));
  }
}

sim::Task<void> ExecutorManager::billing_flush_loop() {
  while (alive_) {
    co_await sim::delay(config_.billing_flush_period);
    if (!alive_) break;
    accrue_allocation();
    co_await flush_billing();
  }
}

void ExecutorManager::accrue_allocation() {
  const Time now = engine_.now();
  for (auto& [id, sb] : sandboxes_) {
    if (sb->dead) continue;
    // Bill whole milliseconds only and carry the remainder, so periodic
    // accrual sums to exactly what a single teardown-time charge would.
    const Duration span = now - sb->billed_until;
    const Duration billed = (span / 1'000'000ull) * 1'000'000ull;
    if (billed == 0) continue;
    account_allocation(sb->client_id, allocation_mib_ms(sb->memory_bytes, billed));
    sb->billed_until += billed;
  }
}

sim::Task<void> ExecutorManager::flush_billing() {
  if (rm_conn_ == nullptr || billing_addr_ == 0 || !rm_conn_->alive()) co_return;
  // The gate keeps concurrent flushes (periodic loop vs teardown) from
  // draining each other's completions in the batched poll below.
  co_await billing_flush_gate_.lock();
  for (auto& [client, usage] : pending_usage_) {
    const std::uint64_t deltas[3] = {usage.allocation_mib_ms, usage.compute_ns,
                                     usage.hot_poll_ns};
    const std::uint64_t tenant = client % BillingDatabase::kMaxTenants;
    const std::uint64_t base =
        billing_addr_ + tenant * BillingDatabase::kCountersPerTenant * 8;
    // Chain the non-zero counter updates into a single doorbell and drain
    // their completions in one poll sweep instead of one post + one poll
    // per counter (the fig18 doorbell-batching model).
    std::array<fabric::SendWr, 3> wrs;
    std::size_t n = 0;
    for (int i = 0; i < 3; ++i) {
      if (deltas[i] == 0) continue;
      fabric::SendWr& wr = wrs[n++];
      wr.wr_id = static_cast<std::uint64_t>(i);
      wr.opcode = fabric::Opcode::FetchAdd;
      wr.sge = {{reinterpret_cast<std::uint64_t>(billing_scratch_->data() + i), 8,
                 billing_scratch_->mr()->lkey()}};
      wr.remote_addr = base + static_cast<std::uint64_t>(i) * 8;
      wr.rkey = billing_rkey_;
      wr.swap_or_add = deltas[i];
    }
    if (n == 0) {
      usage = TenantUsage{};
      continue;
    }
    auto st = rm_conn_->post_many({wrs.data(), n});
    if (!st.ok()) {
      billing_flush_gate_.unlock();
      co_return;
    }
    bool failed = false;
    std::size_t drained = 0;
    std::array<fabric::Wc, 3> wcs;
    while (drained < n) {
      const std::size_t got =
          co_await rm_conn_->send_cq().wait_polling_many({wcs.data(), n - drained});
      for (std::size_t k = 0; k < got; ++k) {
        if (wcs[k].status != fabric::WcStatus::Success) failed = true;
      }
      drained += got;
    }
    if (failed) {
      billing_flush_gate_.unlock();
      co_return;
    }
    usage = TenantUsage{};
  }
  billing_flush_gate_.unlock();
}

sim::Task<void> ExecutorManager::reaper_loop() {
  // "removing processes that are idle for a long time or exceed specified
  // time limits" (Sec. III-A).
  while (alive_) {
    co_await sim::delay(std::max<Duration>(config_.executor_idle_timeout / 4, 1_ms));
    if (!alive_) break;
    std::vector<std::uint64_t> idle;
    for (auto& [id, sb] : sandboxes_) {
      if (sb->dead) continue;
      const Time last = std::max(sb->last_invocation, sb->created_at);
      if (engine_.now() - last > config_.executor_idle_timeout) idle.push_back(id);
    }
    for (auto id : idle) {
      Sandbox* sb = find_sandbox(id);
      if (sb != nullptr && !sb->dead) {
        log::debug("executor", "reaping idle sandbox ", id);
        co_await teardown_sandbox(*sb, /*notify_rm=*/true);
      }
    }
  }
}

}  // namespace rfs::rfaas
