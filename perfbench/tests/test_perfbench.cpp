// Self-tests for the benchmark: seeded key streams, the percentile
// helpers, open-loop stall accounting against a deliberately stalling
// local server, reply checking, and a short clean run of every workload.
//
//   cmake --build <build-dir> --target perfbench_tests && <build-dir>/perfbench_tests
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "keystream.hpp"
#include "loadgen.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace net = mpcbf::net;
using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

std::string stream_bytes(const StreamShape& shape, std::uint32_t conn,
                         std::uint32_t frames) {
  OpStream s(shape, conn);
  FrameKeys f;
  std::string out;
  for (std::uint32_t i = 0; i < frames; ++i) {
    s.next(f);
    out.push_back(static_cast<char>(f.op));
    out.append(f.bytes.data(), f.count * kKeyBytes);
    out.append(reinterpret_cast<const char*>(f.probe.data()), f.count);
  }
  return out;
}

void test_streams_are_seeded() {
  StreamShape shape;
  shape.seed = 42;
  shape.live_per_conn = 5000;
  shape.batch = 8;
  shape.queries_per_cycle = 3;
  shape.zipf_s = 0.99;
  CHECK(stream_bytes(shape, 0, 2000) == stream_bytes(shape, 0, 2000));
  CHECK(stream_bytes(shape, 0, 2000) != stream_bytes(shape, 1, 2000));
  StreamShape other = shape;
  other.seed = 43;
  CHECK(stream_bytes(shape, 0, 2000) != stream_bytes(other, 0, 2000));
}

void test_domains_disjoint_and_window_stationary() {
  StreamShape shape;
  shape.seed = 7;
  shape.live_per_conn = 1000;
  shape.batch = 4;
  shape.queries_per_cycle = 8;
  OpStream s(shape, 2);
  FrameKeys f;
  const std::uint32_t cycle = s.cycle_len();
  for (std::uint32_t i = 0; i < 50 * cycle; ++i) {
    s.next(f);
    for (std::uint32_t k = 0; k < f.count; ++k) {
      const auto domain = static_cast<std::uint8_t>(f.bytes[k * kKeyBytes + 15]);
      CHECK(domain == static_cast<std::uint8_t>(f.probe[k] != 0
                                                    ? Domain::kProbe
                                                    : Domain::kLive));
      CHECK(f.op == Op::kQuery || f.probe[k] == 0);
    }
    if ((i + 1) % cycle == 0) {
      CHECK(s.hi() - s.lo() == shape.live_per_conn);
    }
  }
  CHECK(s.lo() == 50 * shape.batch);
}

void test_zipf() {
  ZipfSampler z(1000, 0.99);
  Rng rng(3);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t r = z.sample(rng);
    CHECK(r < 1000);
    if (r < 1000) ++hits[r];
  }
  CHECK(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[500]);
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentiles p = summarize(v);
  CHECK(p.count == 1000);
  CHECK(p.p50 == 500);
  CHECK(p.p99 == 990);
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(p.p99_valid);
  v.pop_back();  // 999 samples: only 9 beyond p99
  CHECK(samples_beyond(999, 99) == 9);
  CHECK(!summarize(v).p99_valid);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 2, 3}) == 2.5);

  // A stall that delays 2% of the samples is reported in the p99, not
  // trimmed away.
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(i % 50 == 0 ? 5000.0 : 10.0 + (i % 97) * 0.1);
  }
  const Percentiles stalled = summarize(samples);
  CHECK(stalled.p99_valid);
  CHECK(stalled.p99 == 5000.0);
  CHECK(stalled.p50 < 20.0);
}

/// Minimal mpcbfd stand-in: answers every key batch (live keys positive,
/// probes negative, mutations acknowledged). Optionally sleeps before
/// answering frame `stall_at`, or answers live keys negative.
class FakeServer {
 public:
  FakeServer(int stall_at, int stall_ms, bool lie)
      : listener_(net::listen_tcp("127.0.0.1", 0)),
        port_(net::local_port(listener_.fd())),
        thread_([this, stall_at, stall_ms, lie] {
          serve(stall_at, stall_ms, lie);
        }) {}
  ~FakeServer() { thread_.join(); }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve(int stall_at, int stall_ms, bool lie) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) return;
    std::string in;
    std::string out;
    std::string payload;
    std::vector<std::string_view> keys;
    std::vector<std::uint8_t> verdicts;
    char buf[65536];
    int frames = 0;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
      std::size_t off = 0;
      out.clear();
      for (;;) {
        const auto d = net::decode_frame(std::string_view(in).substr(off));
        if (d.status != net::DecodeStatus::kFrame) break;
        off += d.consumed;
        if (frames++ == stall_at) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
        }
        (void)net::parse_key_batch(d.frame.payload, keys);
        verdicts.clear();
        for (const auto k : keys) {
          const bool live = static_cast<std::uint8_t>(k[15]) ==
                            static_cast<std::uint8_t>(Domain::kLive);
          const bool query = d.frame.header.opcode ==
                             static_cast<std::uint8_t>(Op::kQuery);
          verdicts.push_back(!query || (live && !lie) ? 1 : 0);
        }
        payload.clear();
        net::append_verdicts(payload, verdicts);
        net::append_frame(out,
                          static_cast<net::Opcode>(d.frame.header.opcode),
                          net::kFlagResponse, d.frame.header.request_id,
                          payload);
      }
      in.erase(0, off);
      if (!out.empty()) net::write_all(fd, out.data(), out.size());
    }
    ::close(fd);
  }

  net::Socket listener_;
  std::uint16_t port_;
  std::thread thread_;
};

StreamShape small_shape() {
  StreamShape shape;
  shape.seed = 11;
  shape.live_per_conn = 1000;
  shape.batch = 4;
  shape.queries_per_cycle = 3;
  return shape;
}

void test_open_loop_charges_stalls() {
  // 2000 frames/s for 1 s; the server sleeps 50 ms before answering frame
  // 600. About 100 frames fall due during the stall; timed from their
  // intended send times they must carry the wait that is left when they
  // fall due, not just the time since the stalled server finally read them.
  FakeServer server(600, 50, false);
  PhaseResult r;
  {
    LoadGen gen(server.port(), small_shape(), 1);
    r = gen.open_loop(1.0, 2000.0);
  }
  CHECK(r.failed_keys == 0);
  CHECK(r.frames == 2000);
  std::vector<double> all = r.query_us;
  all.insert(all.end(), r.mutation_us.begin(), r.mutation_us.end());
  std::size_t over_10ms = 0;
  double worst = 0;
  for (const double us : all) {
    worst = std::max(worst, us);
    if (us > 10000) ++over_10ms;
  }
  // Frames due in the first 40 ms of the stall wait > 10 ms: ~80 of them.
  CHECK(worst > 45000);
  CHECK(over_10ms >= 60);
  CHECK(over_10ms <= 150);
}

void test_replies_are_checked() {
  FakeServer liar(-1, 0, true);
  PhaseResult r;
  {
    LoadGen gen(liar.port(), small_shape(), 1);
    r = gen.closed_loop(0.2, 4, 2);
  }
  CHECK(r.frames > 0);
  CHECK(r.failed_keys > 0);  // live keys answered negative
}

void test_workloads_run_clean() {
  const auto dir = std::filesystem::current_path() / ".bench_build" /
                   ("perfbench-test-" + std::to_string(::getpid()));
  for (const auto& name : workload_names()) {
    for (const bool trace : {false, true}) {
      RunConfig cfg;
      cfg.workload = name;
      cfg.seed = 2;
      cfg.seconds = 3.0;
      cfg.trace = trace;
      cfg.setups = 1;
      cfg.workdir = dir;
      cfg.offered_keys_per_s =
          name == "sharded-uniform-query" ? 1800000 : 450000;
      const RunResult r = run_workload(cfg);
      std::printf("  %s trace=%d: attempted %llu failed %llu\n", name.c_str(),
                  trace ? 1 : 0,
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
      for (const auto& e : r.errors) std::printf("    %s\n", e.c_str());
      CHECK(r.attempted > 0);
      CHECK(r.failed == 0);
      CHECK(!r.metrics.empty());
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  test_streams_are_seeded();
  test_domains_disjoint_and_window_stationary();
  test_zipf();
  test_percentiles();
  test_open_loop_charges_stalls();
  test_replies_are_checked();
  test_workloads_run_clean();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all perfbench tests passed\n");
  return 0;
}
