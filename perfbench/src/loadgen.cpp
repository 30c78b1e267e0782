#include "loadgen.hpp"

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <span>
#include <stdexcept>

#include "host.hpp"
#include "metrics/timer.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace perfbench {

namespace net = mpcbf::net;
using mpcbf::metrics::now_ns;

struct LoadGen::Conn {
  Conn(net::Socket s, const StreamShape& shape, std::uint32_t index,
       std::uint32_t offset)
      : sock(std::move(s)), stream(shape, index, offset), index(index) {}

  struct InFlight {
    std::uint64_t id = 0;
    Op op = Op::kQuery;
    std::uint32_t count = 0;
    std::uint64_t probe_mask = 0;  ///< bit i = key i is a probe
    bool all_probe = false;        ///< sweep frames: every key a probe
    std::uint64_t intended_ns = 0;
  };

  net::Socket sock;
  OpStream stream;
  std::uint32_t index;
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  std::size_t roff = 0;
  std::deque<InFlight> inflight;
  bool want_out = false;
  bool dead = false;
  std::uint64_t sweep_next = 0;
  std::uint32_t sweep_batch = 0;
};

void PhaseResult::append(const PhaseResult& o) {
  wall_s += o.wall_s;
  frames += o.frames;
  keys += o.keys;
  mutations += o.mutations;
  failed_keys += o.failed_keys;
  probes += o.probes;
  probe_positives += o.probe_positives;
  gen_cpu_ns += o.gen_cpu_ns;
  window_keys_per_s.insert(window_keys_per_s.end(),
                           o.window_keys_per_s.begin(),
                           o.window_keys_per_s.end());
  send_lag_us.insert(send_lag_us.end(), o.send_lag_us.begin(),
                     o.send_lag_us.end());
  query_us.insert(query_us.end(), o.query_us.begin(), o.query_us.end());
  mutation_us.insert(mutation_us.end(), o.mutation_us.begin(),
                     o.mutation_us.end());
  for (const auto& e : o.errors) note_error(e);
}

LoadGen::LoadGen(std::uint16_t port, const StreamShape& shape,
                 std::uint32_t conns) {
  if (shape.batch == 0 || shape.batch > 64) {
    throw std::invalid_argument("LoadGen: stream batch must be 1..64");
  }
  // Open-loop pacing sleeps to the next due time; the default 50 us
  // timer slack would show up as send lag.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("LoadGen: epoll_create1 failed");
  const std::uint32_t cycle = shape.queries_per_cycle + 2;
  for (std::uint32_t c = 0; c < conns; ++c) {
    net::Socket s = net::connect_tcp("127.0.0.1", port,
                                     std::chrono::milliseconds(0));
    net::set_nonblocking(s.fd(), true);
    auto conn = std::make_unique<Conn>(std::move(s), shape, c,
                                       c * cycle / std::max(conns, 1u));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
      throw std::runtime_error("LoadGen: epoll_ctl failed");
    }
    conns_.push_back(std::move(conn));
  }
}

LoadGen::~LoadGen() {
  if (epfd_ >= 0) ::close(epfd_);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> LoadGen::windows()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& c : conns_) {
    out.emplace_back(c->stream.lo(), c->stream.hi());
  }
  return out;
}

std::size_t LoadGen::in_flight() const noexcept {
  std::size_t n = 0;
  for (const auto& c : conns_) n += c->inflight.size();
  return n;
}

void LoadGen::send_frame(Conn& c, Source src, std::uint64_t intended_ns) {
  Conn::InFlight f;
  if (src == Source::kStream) {
    c.stream.next(keys_);
    for (std::uint32_t i = 0; i < keys_.count; ++i) {
      if (keys_.probe[i] != 0) f.probe_mask |= std::uint64_t{1} << i;
    }
  } else {
    c.stream.sweep_probes(c.sweep_next, keys_, c.sweep_batch);
    c.sweep_next += c.sweep_batch;
    f.all_probe = true;
  }
  f.id = next_id_++;
  f.op = keys_.op;
  f.count = keys_.count;
  f.intended_ns = intended_ns;
  payload_.clear();
  net::append_key_batch<std::string_view>(
      payload_, std::span<const std::string_view>(keys_.views.data(),
                                                  keys_.count));
  net::append_frame(c.wbuf, static_cast<net::Opcode>(keys_.op), 0, f.id,
                    payload_);
  c.inflight.push_back(f);
  ++frames_sent_;
}

bool LoadGen::flush(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = ::send(c.sock.fd(), c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n > 0) {
      c.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  }
  const bool want_out = !c.wbuf.empty();
  if (want_out != c.want_out) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.ptr = &c;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.sock.fd(), &ev);
    c.want_out = want_out;
  }
  return true;
}

void LoadGen::poll(std::int64_t timeout_ns, PhaseResult& r) {
  epoll_event events[16];
  int n;
  if (timeout_ns < 0) {
    n = ::epoll_wait(epfd_, events, 16, 1000);
  } else {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
    n = ::epoll_pwait2(epfd_, events, 16, &ts, nullptr);
  }
  for (int i = 0; i < n; ++i) {
    Conn& c = *static_cast<Conn*>(events[i].data.ptr);
    if (c.dead) continue;
    if ((events[i].events & EPOLLOUT) != 0 && !flush(c)) {
      c.dead = true;
    }
    if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      on_readable(c, r);
    }
    if (c.dead) {
      for (const auto& f : c.inflight) r.failed_keys += f.count;
      c.inflight.clear();
      (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.sock.fd(), nullptr);
      r.note_error("connection " + std::to_string(c.index) + " lost");
    }
  }
}

void LoadGen::on_readable(Conn& c, PhaseResult& r) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.sock.fd(), buf, sizeof buf, 0);
    if (n > 0) {
      c.rbuf.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.dead = true;  // EOF or hard error
    break;
  }
  for (;;) {
    const std::string_view view(c.rbuf.data() + c.roff,
                                c.rbuf.size() - c.roff);
    const net::DecodeResult d = net::decode_frame(view);
    if (d.status == net::DecodeStatus::kNeedMore) break;
    if (d.status == net::DecodeStatus::kError) {
      r.note_error(std::string("reply stream corrupt: ") + d.error);
      c.dead = true;
      break;
    }
    handle_reply(c, d.frame.header.opcode, d.frame.header.flags,
                 d.frame.header.request_id, d.frame.payload, r);
    c.roff += d.consumed;
  }
  if (c.roff == c.rbuf.size()) {
    c.rbuf.clear();
    c.roff = 0;
  } else if (c.roff > (1u << 20)) {
    c.rbuf.erase(0, c.roff);
    c.roff = 0;
  }
}

void LoadGen::handle_reply(Conn& c, std::uint8_t opcode, std::uint8_t flags,
                           std::uint64_t request_id,
                           std::string_view payload, PhaseResult& r) {
  const std::uint64_t now = now_ns();
  if (c.inflight.empty()) {
    r.note_error("unsolicited reply id " + std::to_string(request_id));
    ++r.failed_keys;
    return;
  }
  const Conn::InFlight f = c.inflight.front();
  c.inflight.pop_front();
  ++r.frames;
  r.keys += f.count;
  if (request_id != f.id || opcode != static_cast<std::uint8_t>(f.op)) {
    r.note_error("reply id/opcode mismatch: got " +
                 std::to_string(request_id) + "/" + std::to_string(opcode) +
                 ", want " + std::to_string(f.id) + "/" +
                 std::to_string(static_cast<int>(f.op)));
    r.failed_keys += f.count;
    return;
  }
  if ((flags & net::kFlagResponse) == 0 || (flags & net::kFlagError) != 0) {
    net::WireError err;
    std::string why = "error reply";
    if ((flags & net::kFlagError) != 0 &&
        net::parse_error(payload, err) == nullptr) {
      why += ": " + err.message;
    }
    r.note_error(why);
    r.failed_keys += f.count;
    return;
  }
  if (const char* bad = net::parse_verdicts(payload, verdicts_);
      bad != nullptr || verdicts_.size() != f.count) {
    r.note_error(bad != nullptr ? bad : "verdict count mismatch");
    r.failed_keys += f.count;
    return;
  }
  const double us = static_cast<double>(now - f.intended_ns) / 1e3;
  if (f.op == Op::kQuery) {
    if (record_latency_) r.query_us.push_back(us);
    for (std::uint32_t i = 0; i < f.count; ++i) {
      const bool probe = f.all_probe || ((f.probe_mask >> i) & 1u) != 0;
      if (probe) {
        ++r.probes;
        r.probe_positives += verdicts_[i];
      } else if (verdicts_[i] == 0) {
        ++r.failed_keys;  // false negative on an acknowledged-live key
        r.note_error("false negative on a live key");
      }
    }
  } else {
    if (record_latency_) r.mutation_us.push_back(us);
    for (std::uint32_t i = 0; i < f.count; ++i) {
      if (verdicts_[i] == 0) {
        ++r.failed_keys;
        r.note_error(f.op == Op::kInsert ? "insert not acknowledged"
                                         : "erase not acknowledged");
      } else {
        ++r.mutations;
      }
    }
  }
  if (spans_ != nullptr) {
    spans_->add(Span{static_cast<std::uint32_t>(f.op), f.id, 0,
                     f.intended_ns, now});
  }
}

void LoadGen::drain(PhaseResult& r, double timeout_s) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  while (in_flight() > 0) {
    const std::uint64_t now = now_ns();
    if (now >= deadline) break;
    poll(static_cast<std::int64_t>(deadline - now), r);
  }
  for (auto& c : conns_) {
    if (c->inflight.empty()) continue;
    for (const auto& f : c->inflight) r.failed_keys += f.count;
    r.note_error("timeout: " + std::to_string(c->inflight.size()) +
                 " frames unanswered");
    c->inflight.clear();
  }
}

PhaseResult LoadGen::closed_loop(double seconds, std::uint32_t window,
                                 std::uint32_t sub_windows) {
  PhaseResult r;
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const auto span = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t deadline = t0 + span;
  const std::uint64_t slice = span / std::max(sub_windows, 1u);
  record_latency_ = false;
  std::uint64_t slice_start = t0;
  std::uint64_t slice_keys = 0;
  for (;;) {
    for (auto& c : conns_) {
      if (c->dead || c->inflight.size() >= window) continue;
      while (c->inflight.size() < window) {
        send_frame(*c, Source::kStream, now_ns());
      }
      if (!flush(*c)) c->dead = true;
    }
    const std::uint64_t now = now_ns();
    if (now >= slice_start + slice &&
        r.window_keys_per_s.size() < sub_windows) {
      r.window_keys_per_s.push_back(
          static_cast<double>(r.keys - slice_keys) * 1e9 /
          static_cast<double>(now - slice_start));
      slice_start = now;
      slice_keys = r.keys;
    }
    if (now >= deadline) break;
    poll(static_cast<std::int64_t>(
             std::min(slice_start + slice, deadline) - now),
         r);
  }
  r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  drain(r);
  record_latency_ = true;
  r.gen_cpu_ns = thread_cpu_ns() - cpu0;
  return r;
}

PhaseResult LoadGen::open_loop(double seconds, double frames_per_s) {
  PhaseResult r;
  const std::uint64_t cpu0 = thread_cpu_ns();
  const double interval = 1e9 / frames_per_s;
  // Room for every sample up front: growing these vectors mid-phase
  // copies them, and the copy would stall the send schedule.
  const auto due_frames = static_cast<std::size_t>(seconds * frames_per_s) + 1;
  for (auto* v : {&r.send_lag_us, &r.query_us, &r.mutation_us}) {
    v->reserve(due_frames);
  }
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t f = 0;
  std::vector<Conn*> dirty;
  for (;;) {
    const std::uint64_t now = now_ns();
    std::uint64_t due = t0 + static_cast<std::uint64_t>(
                                 static_cast<double>(f) * interval);
    while (due <= now && due < deadline) {
      Conn& c = *conns_[f % conns_.size()];
      if (!c.dead) {
        send_frame(c, Source::kStream, due);
        r.send_lag_us.push_back(static_cast<double>(now - due) / 1e3);
        dirty.push_back(&c);
      }
      ++f;
      due = t0 + static_cast<std::uint64_t>(static_cast<double>(f) * interval);
    }
    for (Conn* c : dirty) {
      if (!flush(*c)) c->dead = true;
    }
    dirty.clear();
    if (due >= deadline) break;
    const std::uint64_t after = now_ns();
    poll(due > after ? static_cast<std::int64_t>(due - after) : 0, r);
  }
  r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  drain(r);
  r.gen_cpu_ns = thread_cpu_ns() - cpu0;
  return r;
}

PhaseResult LoadGen::unloaded(std::uint32_t frames) {
  PhaseResult r;
  Conn& c = *conns_.front();
  for (std::uint32_t i = 0; i < frames && !c.dead; ++i) {
    send_frame(c, Source::kStream, now_ns());
    if (!flush(c)) {
      c.dead = true;
      break;
    }
    drain(r, 5.0);
  }
  return r;
}

PhaseResult LoadGen::probe_sweep(std::uint64_t per_conn,
                                 std::uint32_t batch) {
  PhaseResult r;
  const std::uint64_t frames_per_conn = (per_conn + batch - 1) / batch;
  std::vector<std::uint64_t> sent(conns_.size(), 0);
  constexpr std::size_t kWindow = 4;
  for (auto& c : conns_) c->sweep_batch = batch;
  for (;;) {
    bool more = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      if (c.dead) continue;
      while (sent[i] < frames_per_conn && c.inflight.size() < kWindow) {
        send_frame(c, Source::kSweep, now_ns());
        ++sent[i];
      }
      if (!flush(c)) c.dead = true;
      more = more || sent[i] < frames_per_conn;
    }
    if (!more) break;
    poll(-1, r);
  }
  drain(r);
  return r;
}

}  // namespace perfbench
