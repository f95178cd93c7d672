#include "rfaas/session.hpp"

#include <algorithm>

#include "sim/engine.hpp"

namespace rfs::rfaas {

namespace {

/// The seq of an eviction push (LeaseTerminated/LeasesTerminated), 0 when
/// it does not decode; nullopt for every other push type.
std::optional<std::uint64_t> eviction_seq(MsgType type, const Bytes& msg) {
  if (type == MsgType::LeaseTerminated) {
    auto m = decode_lease_terminated(msg);
    return m ? m.value().seq : 0;
  }
  if (type == MsgType::LeasesTerminated) {
    auto m = decode_leases_terminated(msg);
    return m ? m.value().seq : 0;
  }
  return std::nullopt;
}

}  // namespace

Session::Session(sim::Engine& engine, std::shared_ptr<net::TcpStream> stream,
                 SessionOptions options)
    : state_(std::make_shared<State>(engine, std::move(stream), options)) {
  sim::spawn(engine, pump(state_));
}

std::uint64_t Session::next_request_id() {
  ++state_->sequence;
  return (static_cast<std::uint64_t>(state_->options.epoch) << 32) |
         static_cast<std::uint64_t>(state_->sequence);
}

Duration Session::current_rto() const { return rto_of(*state_); }

Duration Session::rto_of(const State& st) {
  if (!st.has_rtt) return st.options.rto_initial;
  const double rto = st.srtt + 4.0 * st.rttvar;
  return std::clamp(static_cast<Duration>(rto), st.options.rto_min, st.options.rto_max);
}

void Session::note_rtt(State& st, Duration sample) {
  // RFC 6298 smoothing (alpha = 1/8, beta = 1/4).
  const double s = static_cast<double>(sample);
  if (!st.has_rtt) {
    st.srtt = s;
    st.rttvar = s / 2.0;
    st.has_rtt = true;
    return;
  }
  const double err = s - st.srtt;
  st.rttvar = 0.75 * st.rttvar + 0.25 * (err < 0 ? -err : err);
  st.srtt = 0.875 * st.srtt + 0.125 * s;
}

Time Session::retransmit_due(State& st, Time now) {
  if (st.deadline > now) return st.deadline;  // kNever: no call is waiting
  st.reply_event.set();                       // the waiting call timed out
  return sim::kNever;
}

sim::Task<Result<Bytes>> Session::call(Bytes request, std::uint64_t request_id) {
  auto st = state_;
  co_await st->call_mutex.lock();
  ++st->calls;
  st->waiting = true;
  st->pending_id = request_id;
  st->pending_reply.reset();

  Result<Bytes> out = Error::make(30, "session: retransmit budget exhausted");
  Duration rto = rto_of(*st);
  bool retransmitted = false;
  for (unsigned attempt = 0; attempt <= st->options.max_retransmits; ++attempt) {
    if (st->closed || st->stream->closed()) {
      out = Error::make(31, "session: stream closed");
      break;
    }
    if (attempt > 0) {
      ++st->retransmits;
      retransmitted = true;
    }
    const Time sent_at = st->engine.now();
    st->stream->send(Bytes(request));
    const Time deadline = sent_at + rto;
    st->deadline = deadline;
    st->retransmit_alarm.arm(deadline);
    while (!st->pending_reply && !st->closed && st->engine.now() < deadline) {
      st->reply_event.reset();
      co_await st->reply_event.wait();
    }
    if (st->pending_reply) {
      // Karn's rule: an exchange that was ever retransmitted yields no
      // RTT sample (the reply could answer either transmission).
      if (!retransmitted) note_rtt(*st, st->engine.now() - sent_at);
      out = std::move(*st->pending_reply);
      st->pending_reply.reset();
      break;
    }
    rto = std::min<Duration>(rto * 2, st->options.rto_max);
  }
  if (!out.ok()) ++st->call_failures;

  st->waiting = false;
  st->pending_id = 0;
  st->deadline = sim::kNever;
  st->call_mutex.unlock();
  co_return out;
}

sim::Task<std::optional<Bytes>> Session::next_push() {
  auto st = state_;
  while (true) {
    if (!st->pushes.empty()) {
      Bytes msg = std::move(st->pushes.front());
      st->pushes.pop_front();
      co_return msg;
    }
    if (st->closed) co_return std::nullopt;
    st->push_event.reset();
    co_await st->push_event.wait();
  }
}

void Session::send_raw(Bytes message) { state_->stream->send(std::move(message)); }

sim::Task<void> Session::pump(std::shared_ptr<State> st) {
  while (true) {
    auto raw = co_await st->stream->recv();
    if (!raw) break;
    classify(*st, std::move(*raw));
  }
  st->closed = true;
  st->reply_event.set();
  st->push_event.set();
}

void Session::record_completed(State& st, std::uint64_t id, const Bytes& reply) {
  std::uint64_t lease_id = 0;
  if (auto type = peek_type(reply); type && type.value() == MsgType::LeaseGrant) {
    if (auto grant = decode_lease_grant(reply)) lease_id = grant.value().lease_id;
  }
  st.completed.insert(id) = lease_id;
}

void Session::classify(State& st, Bytes msg) {
  auto type = peek_type(msg);
  if (!type) return;  // garbage frame: drop

  if (is_reply_type(type.value())) {
    auto id = reply_request_id(msg);
    if (!id) return;
    if (id.value() != 0 && st.waiting && id.value() == st.pending_id) {
      record_completed(st, id.value(), msg);
      st.pending_reply = std::move(msg);
      st.reply_event.set();
      return;
    }
    if (const std::uint64_t* granted = st.completed.find(id.value())) {
      ++st.duplicate_replies;
      // The invariant the chaos gate pins to zero: a re-answer to a
      // completed request naming a DIFFERENT lease would be a second
      // grant for one logical request.
      if (type.value() == MsgType::LeaseGrant && *granted != 0) {
        if (auto grant = decode_lease_grant(msg);
            grant && grant.value().lease_id != *granted) {
          ++st.double_grants;
        }
      }
    }
    return;  // a duplicate, or a reply to a request we gave up on: drop
  }

  // Push path. The manager numbers eviction pushes per stream from 1, so
  // one without a seq (or that does not decode) is dropped, and a
  // duplicated delivery is counted and dropped: neither reaches the
  // owner's termination handler. Other push types carry no seq.
  if (const auto seq = eviction_seq(type.value(), msg)) {
    if (*seq == 0) return;
    if (st.push_seqs.find(*seq) != nullptr) {
      ++st.duplicate_pushes;
      return;
    }
    st.push_seqs.insert(*seq);
  }
  st.pushes.push_back(std::move(msg));
  st.push_event.set();
}

sim::Task<Result<std::shared_ptr<Session>>> dial(sim::Engine& engine, ManagerLink link) {
  auto stream = co_await link.tcp->connect(link.device, link.manager, link.port);
  if (!stream.ok()) co_return stream.error();
  co_return std::make_shared<Session>(engine, stream.value(), link.options);
}

}  // namespace rfs::rfaas
