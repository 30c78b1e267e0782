// Single-threaded epoll load generator speaking the mpcbfd wire protocol.
//
// One thread drives every connection: it encodes frames with
// net/protocol.hpp (append_frame + append_key_batch), pipelines them over
// non-blocking sockets and decodes replies with decode_frame. Each reply
// is checked against the stream that produced its request: request id and
// opcode must match the oldest in-flight frame of that connection, no
// error flag, one verdict per key, every INSERT/ERASE acknowledged and
// every query of a live key positive. Positive verdicts on probe keys are
// false positives and feed the FPR.
//
// Two load shapes:
//  * closed loop — each connection keeps `window` frames in flight and
//    sends the next one when a reply arrives (throughput);
//  * open loop — frames are due on a fixed schedule regardless of
//    replies; latency is timed from each frame's intended send time, so a
//    stall is charged to every request queued behind it (no coordinated
//    omission).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "keystream.hpp"

namespace perfbench {

/// One span recorded by the benchmark around a call it makes.
struct Span {
  std::uint32_t name = 0;   ///< index into the span-name table
  std::uint64_t id = 0;     ///< request id (frames) or block index
  std::uint64_t parent = 0;  ///< id of the causing span, 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Bounded in-memory span log: keeps the first `cap` spans, counts all.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 0) : cap_(cap) { spans_.reserve(cap); }
  void add(const Span& s) {
    ++total_;
    if (spans_.size() < cap_) spans_.push_back(s);
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t total_ = 0;
};

/// Outcome of one load phase.
struct PhaseResult {
  double wall_s = 0;
  std::uint64_t frames = 0;  ///< frames answered
  std::uint64_t keys = 0;    ///< keys answered (all op classes)
  std::uint64_t mutations = 0;  ///< INSERT/ERASE keys acknowledged
  std::uint64_t failed_keys = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_positives = 0;
  /// Keys per second in each equal sub-window of a closed-loop phase.
  std::vector<double> window_keys_per_s;
  /// Per-frame latency (us) by op class.
  std::vector<double> query_us;
  std::vector<double> mutation_us;
  /// Open loop: how late each frame left the generator (us).
  std::vector<double> send_lag_us;
  std::uint64_t gen_cpu_ns = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void note_error(std::string what) {
    if (errors.size() < 8) errors.push_back(std::move(what));
  }

  /// Folds in phase `o`.
  void append(const PhaseResult& o);
};

class LoadGen {
 public:
  /// Connects `conns` sockets to 127.0.0.1:port. Connection c replays
  /// OpStream(shape, c); streams start at staggered cycle offsets so the
  /// connections' mutation frames do not line up.
  LoadGen(std::uint16_t port, const StreamShape& shape, std::uint32_t conns);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Closed loop for `seconds`, `window` frames in flight per connection;
  /// throughput is sampled in `sub_windows` equal slices. No latency
  /// samples are kept.
  PhaseResult closed_loop(double seconds, std::uint32_t window,
                          std::uint32_t sub_windows = 10);

  /// Open loop at `frames_per_s` (spread round-robin over connections).
  PhaseResult open_loop(double seconds, double frames_per_s);

  /// One frame in flight on connection 0, `frames` times.
  PhaseResult unloaded(std::uint32_t frames);

  /// Queries `per_conn` fresh probe keys on every connection in frames
  /// of `batch` keys (closed loop), for the false-positive rate.
  PhaseResult probe_sweep(std::uint64_t per_conn, std::uint32_t batch);

  /// Data frames sent so far (all phases).
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_;
  }
  /// Each connection's live window now: [lo, hi) per connection.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  windows() const;

  /// Records one span per answered frame while set (traced runs).
  void set_span_log(SpanLog* log) noexcept { spans_ = log; }

 private:
  struct Conn;
  enum class Source { kStream, kSweep };

  void send_frame(Conn& c, Source src, std::uint64_t intended_ns);
  bool flush(Conn& c);
  /// Waits up to `timeout_ns` (negative = forever) and handles replies.
  void poll(std::int64_t timeout_ns, PhaseResult& r);
  void on_readable(Conn& c, PhaseResult& r);
  void handle_reply(Conn& c, std::uint8_t opcode, std::uint8_t flags,
                    std::uint64_t request_id, std::string_view payload,
                    PhaseResult& r);
  /// Waits for every in-flight frame; leftovers after `timeout_s` fail.
  void drain(PhaseResult& r, double timeout_s = 20.0);
  [[nodiscard]] std::size_t in_flight() const noexcept;

  int epfd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_id_ = 1;
  std::uint64_t frames_sent_ = 0;
  SpanLog* spans_ = nullptr;
  /// Whether answered frames add latency samples (not in closed loops,
  /// whose sample count would follow throughput into peak_rss_mb).
  bool record_latency_ = true;
  std::string payload_;
  std::vector<std::uint8_t> verdicts_;
  FrameKeys keys_;
};

}  // namespace perfbench
