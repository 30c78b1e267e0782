#include "workloads.hpp"

#include <sched.h>
#include <unistd.h>
#include <x86intrin.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>

#include "filters.hpp"
#include "host.hpp"
#include "io/journal.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = mpcbf::core;
namespace net = mpcbf::net;
using mpcbf::metrics::now_ns;

namespace {

constexpr double kWarmupSeconds = 0.5;
/// Throughput is sampled in windows of this length.
constexpr double kRateWindowSeconds = 0.1;
/// Embedded latency is sampled in blocks: kBlockCalls consecutive calls
/// (16 op cycles) out of every kBlockEvery are timed, and one sample per
/// op class is that block's mean time per call. On a shared host the tail
/// of single ~100 ns calls moved +-25% between runs with other tenants'
/// cache and core contention; block means keep the sampled-call cost
/// visible without that noise, and timing 1 call in 16 keeps the clock
/// reads from dominating.
constexpr std::uint64_t kBlockCalls = 160;
constexpr std::uint64_t kBlockEvery = 2560;
/// Fresh probe keys queried after the run for the false-positive rate.
constexpr std::uint64_t kSweepProbes = std::uint64_t{1} << 21;
constexpr std::uint32_t kSweepBatch = 1024;
constexpr std::size_t kSpanCap = 1 << 18;

std::uint32_t rate_windows(double seconds) {
  return std::max(10u, static_cast<std::uint32_t>(seconds / kRateWindowSeconds));
}

/// Keeps the server's threads on CPUs 0..workers-1 and the calling
/// (generator) thread on the next CPU, when the host has that many, so
/// that the scheduler cannot stack two busy threads on one CPU for a whole
/// run; placement is then the same from run to run.
void pin_threads(const std::set<int>& server_tids, std::uint32_t workers) {
  if (workers + 1 > read_host_info().nproc) return;
  cpu_set_t server_cpus;
  CPU_ZERO(&server_cpus);
  for (std::uint32_t c = 0; c < workers; ++c) CPU_SET(c, &server_cpus);
  for (const int tid : server_tids) {
    (void)::sched_setaffinity(tid, sizeof server_cpus, &server_cpus);
  }
  cpu_set_t gen_cpu;
  CPU_ZERO(&gen_cpu);
  CPU_SET(workers, &gen_cpu);
  (void)::sched_setaffinity(0, sizeof gen_cpu, &gen_cpu);
}

/// True while another set-up should be timed: at least `min` of them,
/// then more until 2 s has gone into set-up (at most 25), so a short
/// set-up is timed often enough for a steady median.
bool more_setups(const std::vector<double>& done, std::uint32_t min) {
  double total = 0;
  for (const double s : done) total += s;
  return done.size() < min || (total < 2.0 && done.size() < 25);
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The latency metrics of a phase, over all of its samples: the p50s in
/// the end-to-end set, the p99s in the traced set (they are not steady
/// enough to gate; see README.md). Sample counts go to the info lines.
void add_latency_metrics(const PhaseResult& p, bool trace, RunResult& res) {
  const struct {
    const char* name;
    const std::vector<double>& us;
  } classes[] = {{"query", p.query_us}, {"mutation", p.mutation_us}};
  for (const auto& c : classes) {
    const Percentiles pct = summarize(c.us);
    const std::string name = c.name;
    if (trace) {
      res.add(name + "_p99_us", pct.p99, "us");
    } else {
      res.add(name + "_p50_us", pct.p50, "us");
    }
    res.info.push_back(name + " latency: " + std::to_string(pct.count) +
                       " samples, " +
                       std::to_string(samples_beyond(pct.count, 99)) +
                       " beyond p99");
    if (!pct.p99_valid) {
      res.fail(1, name + "_p99_us: fewer than " +
                      std::to_string(kMinTailSamples) +
                      " samples beyond p99");
    }
  }
}

struct Counters {
  std::uint64_t requests = 0;
  std::vector<std::uint64_t> shard_keys;
  std::uint64_t shard_subbatches = 0;
  std::uint64_t ring_forwards = 0;
  std::uint64_t ring_full = 0;
};

Counters read_counters(std::uint32_t shards) {
  auto& reg = mpcbf::metrics::Registry::global();
  Counters c;
  for (const char* op : {"query", "insert", "erase"}) {
    c.requests +=
        reg.counter("mpcbf_server_requests_total", "", {{"op", op}}).value();
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::string id = std::to_string(s);
    c.shard_keys.push_back(
        reg.counter("mpcbf_server_shard_keys_total", "", {{"shard", id}})
            .value());
    c.shard_subbatches +=
        reg.counter("mpcbf_server_shard_requests_total", "", {{"shard", id}})
            .value();
    c.ring_forwards += reg.counter("mpcbf_server_shard_ring_forwards_total",
                                   "", {{"shard", id}})
                           .value();
    c.ring_full +=
        reg.counter("mpcbf_server_shard_ring_full_total", "", {{"shard", id}})
            .value();
  }
  return c;
}

ThreadUsage usage_of(const std::set<int>& tids) {
  ThreadUsage sum;
  for (const auto& [tid, u] : read_thread_usage()) {
    if (tids.count(tid) == 0) continue;
    sum.cpu_ns += u.cpu_ns;
    sum.ctx_switches += u.ctx_switches;
  }
  return sum;
}

void write_spans(const std::filesystem::path& out, const SpanLog& log) {
  static const char* kNames[] = {"root",         "frame.query",
                                 "frame.insert", "frame.erase",
                                 "ladder.hash",  "ladder.word_engine",
                                 "ladder.mpcbf", "ladder.durable",
                                 "ladder.backend", "ladder.protocol"};
  if (out.empty()) return;
  std::filesystem::create_directories(out.parent_path());
  std::ofstream os(out);
  os << "{\"names\":[";
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    os << (i ? "," : "") << '"' << kNames[i] << '"';
  }
  os << "],\"total\":" << log.total() << ",\"spans\":[";
  bool first = true;
  for (const Span& s : log.spans()) {
    os << (first ? "" : ",") << '[' << s.name << ',' << s.id << ','
       << s.parent << ',' << s.start_ns << ',' << s.end_ns << ']';
    first = false;
  }
  os << "]}\n";
}

// --- embedded-scalar -----------------------------------------------------

/// Serialized TSC read: a sampled call is timed in TSC ticks, which cost
/// less than a clock_gettime and resolve below a nanosecond.
inline std::uint64_t tsc() noexcept {
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
}

/// Nanoseconds per TSC tick, measured against the steady clock.
double tsc_ns_per_tick() {
  const std::uint64_t n0 = now_ns();
  const std::uint64_t c0 = tsc();
  while (now_ns() - n0 < 20'000'000) {
  }
  const std::uint64_t n1 = now_ns();
  const std::uint64_t c1 = tsc();
  return static_cast<double>(n1 - n0) / static_cast<double>(c1 - c0);
}

/// Runs the scalar op loop for `seconds`, timing sampled blocks of calls
/// (every call, each with a span, when `spans` is set).
PhaseResult embedded_phase(Filter& f, OpStream& stream, double seconds,
                           double ns_per_tick, SpanLog* spans) {
  PhaseResult r;
  // Room for every sample at up to 50M calls/s, touched up front, so the
  // benchmark's own memory (peak_rss_mb) does not follow the call rate.
  const auto cap = static_cast<std::size_t>(seconds * 50e6 / kBlockEvery);
  for (auto* v : {&r.query_us, &r.mutation_us}) {
    v->resize(cap);
    v->clear();
  }
  // Per op class (0 = query, 1 = mutation): ticks and calls in the block.
  std::uint64_t block_ticks[2] = {0, 0};
  std::uint64_t block_calls[2] = {0, 0};
  FrameKeys fk;
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const auto span_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint32_t windows = rate_windows(seconds);
  const std::uint64_t slice = span_ns / windows;
  std::uint64_t slice_start = t0;
  std::uint64_t slice_keys = 0;
  for (std::uint64_t i = 0;; ++i) {
    if ((i & 1023) == 0) {
      const std::uint64_t now = now_ns();
      if (now >= slice_start + slice &&
          r.window_keys_per_s.size() < windows) {
        r.window_keys_per_s.push_back(static_cast<double>(r.keys - slice_keys) *
                                      1e9 /
                                      static_cast<double>(now - slice_start));
        slice_start = now;
        slice_keys = r.keys;
      }
      if (now >= t0 + span_ns) break;
    }
    stream.next(fk);
    const std::string_view key = fk.key(0);
    const std::uint64_t in_block = i % kBlockEvery;
    const bool timed = spans != nullptr || in_block < kBlockCalls;
    const std::uint64_t c0 = timed ? tsc() : 0;
    bool v = false;
    switch (fk.op) {
      case Op::kQuery: v = f.contains(key); break;
      case Op::kInsert: v = f.insert(key); break;
      case Op::kErase: v = f.erase(key); break;
    }
    if (timed) {
      const std::uint64_t c1 = tsc();
      const int cls = fk.op == Op::kQuery ? 0 : 1;
      block_ticks[cls] += c1 - c0;
      ++block_calls[cls];
      if (in_block == kBlockCalls - 1) {
        for (int k = 0; k < 2; ++k) {
          if (block_calls[k] == 0) continue;
          const double us = static_cast<double>(block_ticks[k]) *
                            ns_per_tick /
                            static_cast<double>(block_calls[k]) / 1e3;
          (k == 0 ? r.query_us : r.mutation_us).push_back(us);
          block_ticks[k] = 0;
          block_calls[k] = 0;
        }
      }
      if (spans != nullptr) {
        spans->add(Span{static_cast<std::uint32_t>(fk.op), i + 1, 0,
                        static_cast<std::uint64_t>(c0 * ns_per_tick),
                        static_cast<std::uint64_t>(c1 * ns_per_tick)});
      }
    }
    ++r.keys;
    if (fk.op == Op::kQuery) {
      if (fk.probe[0] != 0) {
        ++r.probes;
        r.probe_positives += v ? 1 : 0;
      } else if (!v) {
        ++r.failed_keys;
        r.note_error("false negative on a live key");
      }
    } else if (!v) {
      ++r.failed_keys;
      r.note_error(fk.op == Op::kInsert ? "insert failed" : "erase failed");
    } else {
      ++r.mutations;
    }
  }
  r.wall_s = seconds_since(t0);
  r.gen_cpu_ns = thread_cpu_ns() - cpu0;
  return r;
}

void run_embedded(const WorkloadSpec& w, const RunConfig& cfg,
                  RunResult& res, double& keys_per_s_out) {
  StreamShape shape = w.shape;
  shape.seed = cfg.seed;
  std::vector<double> setup;
  std::unique_ptr<Filter> f;
  while (more_setups(setup, cfg.setups)) {
    f.reset();
    const std::uint64_t t0 = now_ns();
    f = std::make_unique<Filter>(filter_config(w));
    preload_filter(*f, shape, 1);
    setup.push_back(seconds_since(t0));
  }
  OpStream stream(shape, 0);
  const double tick = tsc_ns_per_tick();
  const PhaseResult warm =
      embedded_phase(*f, stream, kWarmupSeconds, tick, nullptr);
  const PhaseResult run = embedded_phase(*f, stream, cfg.seconds, tick, nullptr);
  res.absorb(warm);
  res.absorb(run);
  PhaseResult traced;
  SpanLog spans(cfg.trace ? kSpanCap : 0);
  if (cfg.trace) {
    traced = embedded_phase(*f, stream, cfg.seconds / 2, tick, &spans);
    res.absorb(traced);
  }
  // False-positive sweep over fresh probes.
  FrameKeys probes;
  std::uint64_t positives = 0;
  for (std::uint64_t first = 0; first < kSweepProbes; first += kSweepBatch) {
    stream.sweep_probes(first, probes, kSweepBatch);
    for (std::uint32_t i = 0; i < probes.count; ++i) {
      positives += f->contains(probes.key(i)) ? 1 : 0;
    }
  }
  // Every key still in the live window must answer positive.
  FrameKeys live;
  for (std::uint64_t j = stream.lo(); j < stream.hi(); ++j) {
    live.resize(1);
    stream.preload_key(j, live.bytes.data());
    ++res.attempted;
    if (!f->contains(live.key(0))) res.fail(1, "live key lost after run");
  }
  res.attempted += kSweepProbes;

  const double kps = median(run.window_keys_per_s);
  keys_per_s_out = kps;
  const double fpr =
      static_cast<double>(positives + run.probe_positives) /
      static_cast<double>(kSweepProbes + run.probes);
  if (!cfg.trace) {
    res.add("setup_s", median(setup), "s");
    res.add("keys_per_s", kps, "1/s");
    add_latency_metrics(run, false, res);
    res.add("fpr", fpr, "ratio");
    res.add("peak_rss_mb", peak_rss_mb(), "MiB");
    res.info.push_back("latency samples: mean per call of " +
                       std::to_string(kBlockCalls) + " consecutive calls, " +
                       "one block in every " + std::to_string(kBlockEvery) +
                       " calls");
    return;
  }
  const double traced_kps = median(traced.window_keys_per_s);
  add_latency_metrics(run, true, res);
  res.add("loadgen.send_lag_p99_us", 0, "us");
  res.add("loadgen.cpu_frac",
          static_cast<double>(run.gen_cpu_ns) / (run.wall_s * 1e9), "ratio");
  res.add("trace.overhead_frac", (kps - traced_kps) / kps, "ratio");
  write_spans(cfg.trace_out, spans);
}

// --- server workloads ----------------------------------------------------

/// One running server with its filters and a connected generator.
/// Members are declared so that destruction closes the generator's
/// sockets first, then stops the server, then releases the filters.
struct ServerRig {
  std::shared_ptr<Durable> durable;
  std::vector<std::shared_ptr<Filter>> shards;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<LoadGen> gen;
  std::set<int> server_tids;
  /// The backend's SNAPSHOT hook (durable only), taken under its lock.
  std::function<std::uint64_t()> snapshot;

  ~ServerRig() {
    gen.reset();
    if (server) server->stop();
  }
};

std::unique_ptr<ServerRig> setup_server(const WorkloadSpec& w,
                                        const StreamShape& shape,
                                        const std::filesystem::path& dir) {
  auto rig = std::make_unique<ServerRig>();
  const core::MpcbfConfig fc = filter_config(w);
  std::set<int> before;
  net::Server::Options so;
  so.workers = w.workers;
  std::vector<std::uint8_t> ok(kPreloadChunk);
  if (w.kind == Kind::kFlatDurable) {
    build_durable_dir(dir, w, shape, w.conns);
    rig->durable = Durable::open_shared(dir, fc, serving_options());
    for (const auto& [tid, u] : read_thread_usage()) before.insert(tid);
    net::FilterBackend backend = net::make_backend(rig->durable);
    rig->snapshot = backend.snapshot;
    rig->server = std::make_unique<net::Server>(std::move(backend), so);
  } else {
    for (std::uint32_t s = 0; s < w.filters; ++s) {
      rig->shards.push_back(std::make_shared<Filter>(fc));
    }
    // Route the preload exactly as the server's decode path routes keys.
    std::vector<std::vector<std::string_view>> per(w.filters);
    for (std::uint32_t c = 0; c < w.conns; ++c) {
      for_each_preload_chunk(shape, c, [&](std::span<const std::string_view> k) {
        for (auto& v : per) v.clear();
        for (const auto key : k) per[net::shard_of(key, w.filters)].push_back(key);
        for (std::uint32_t s = 0; s < w.filters; ++s) {
          rig->shards[s]->insert_batch(
              std::span<const std::string_view>(per[s]),
              std::span<std::uint8_t>(ok.data(), per[s].size()));
        }
      });
    }
    net::ShardSet set;
    for (std::uint32_t s = 0; s < w.filters; ++s) {
      set.shards.push_back(net::make_shard_backend(rig->shards[s], s));
    }
    for (const auto& [tid, u] : read_thread_usage()) before.insert(tid);
    rig->server = std::make_unique<net::Server>(std::move(set), so);
  }
  rig->server->start();
  for (const auto& [tid, u] : read_thread_usage()) {
    if (before.count(tid) == 0) rig->server_tids.insert(tid);
  }
  pin_threads(rig->server_tids, w.workers);
  rig->gen = std::make_unique<LoadGen>(rig->server->port(), shape, w.conns);
  return rig;
}

void run_server(const WorkloadSpec& w, const RunConfig& cfg,
                const std::filesystem::path& workdir, RunResult& res,
                double& keys_per_s_out) {
  StreamShape shape = w.shape;
  shape.seed = cfg.seed;
  const std::filesystem::path dir = workdir / "durable";
  std::vector<double> setup;
  std::unique_ptr<ServerRig> rig;
  while (more_setups(setup, cfg.setups)) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    rig = setup_server(w, shape, dir);
    setup.push_back(seconds_since(t0));
  }
  LoadGen& gen = *rig->gen;
  const std::uint32_t shards = w.kind == Kind::kSharded ? w.filters : 0;
  const Counters c0 = read_counters(shards);
  const std::uint64_t frames0 = gen.frames_sent();

  const PhaseResult warm = gen.closed_loop(kWarmupSeconds, w.window);
  // Throughput and latency, half of the run each, alternate in rounds, so
  // both sample the whole run on a host whose speed drifts over seconds.
  constexpr std::uint32_t kRounds = 8;
  const double sat_s = cfg.seconds / 2 / kRounds;
  const double open_s = cfg.seconds / 2 / kRounds;
  const double open_fps = cfg.offered_keys_per_s / w.shape.batch;
  PhaseResult sat;
  PhaseResult open;
  ThreadUsage busy;
  std::uint64_t journaled = 0;  // mutations acknowledged since the snapshot
  for (std::uint32_t k = 0; k < kRounds; ++k) {
    if (k + 1 == kRounds && rig->snapshot) {
      // Compact the WAL before the last round, so recovery loads a
      // snapshot and replays a bounded journal tail.
      (void)rig->snapshot();
      journaled = 0;
    }
    const ThreadUsage u0 = usage_of(rig->server_tids);
    const PhaseResult s = gen.closed_loop(sat_s, w.window, rate_windows(sat_s));
    const ThreadUsage u1 = usage_of(rig->server_tids);
    busy.cpu_ns += u1.cpu_ns - u0.cpu_ns;
    busy.ctx_switches += u1.ctx_switches - u0.ctx_switches;
    const PhaseResult o = gen.open_loop(open_s, open_fps);
    journaled += s.mutations + o.mutations;
    sat.append(s);
    open.append(o);
  }
  PhaseResult traced;
  PhaseResult unloaded;
  SpanLog spans(cfg.trace ? kSpanCap : 0);
  if (cfg.trace) {
    gen.set_span_log(&spans);
    traced = gen.closed_loop(sat_s, w.window, rate_windows(sat_s));
    gen.set_span_log(nullptr);
    unloaded = gen.unloaded(2000);
  }
  const PhaseResult sweep =
      gen.probe_sweep(kSweepProbes / w.conns, kSweepBatch);
  for (const PhaseResult* p : std::initializer_list<const PhaseResult*>{
           &warm, &sat, &open, &traced, &unloaded, &sweep}) {
    res.absorb(*p);
  }
  const Counters c1 = read_counters(shards);
  const std::uint64_t frames_sent = gen.frames_sent() - frames0;
  const std::uint64_t requests = c1.requests - c0.requests;
  if (requests != frames_sent) {
    res.fail(1, "net.server.requests_total " + std::to_string(requests) +
                    " != frames sent " + std::to_string(frames_sent));
  }
  const auto windows = gen.windows();
  journaled += traced.mutations + unloaded.mutations;
  const double kps = median(sat.window_keys_per_s);
  keys_per_s_out = kps;
  const double query_p50 = summarize(open.query_us).p50;
  std::uint64_t probes = 0;
  std::uint64_t positives = 0;
  for (const PhaseResult* p : std::initializer_list<const PhaseResult*>{
           &sat, &open, &sweep}) {
    probes += p->probes;
    positives += p->probe_positives;
  }
  const double rss = peak_rss_mb();

  // Recovery: stop the server, reopen the directory, and require every
  // acknowledged-live key to answer positive.
  double recovery_s = 0;
  double wal_bytes_per_mutation = 0;
  if (w.kind == Kind::kFlatDurable) {
    rig.reset();
    const auto wal = std::filesystem::file_size(Durable::journal_path(dir));
    wal_bytes_per_mutation =
        static_cast<double>(wal - mpcbf::io::Journal::kHeaderBytes) /
        static_cast<double>(std::max<std::uint64_t>(journaled, 1));
    const std::uint64_t t0 = now_ns();
    auto recovered = Durable::open_shared(dir, filter_config(w),
                                          serving_options());
    recovery_s = seconds_since(t0);
    FrameKeys live;
    std::vector<std::uint8_t> verdict(kPreloadChunk);
    for (std::uint32_t c = 0; c < windows.size(); ++c) {
      const OpStream keys(shape, c);
      for (std::uint64_t j = windows[c].first; j < windows[c].second;
           j += kPreloadChunk) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kPreloadChunk, windows[c].second - j));
        live.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          keys.preload_key(j + i, live.bytes.data() + i * kKeyBytes);
        }
        recovered->contains_batch(
            std::span<const std::string_view>(live.views.data(), n),
            std::span<std::uint8_t>(verdict.data(), n));
        res.attempted += n;
        for (std::uint32_t i = 0; i < n; ++i) {
          if (verdict[i] == 0) res.fail(1, "live key lost in recovery");
        }
      }
    }
  }

  res.info.push_back("open loop: offered " + std::to_string(open_fps) +
                     " frames/s, sent " + std::to_string(open.frames) +
                     " frames in " + std::to_string(open.wall_s) + " s");
  if (!cfg.trace) {
    res.add("setup_s", median(setup), "s");
    res.add("keys_per_s", kps, "1/s");
    add_latency_metrics(open, false, res);
    res.add("fpr", static_cast<double>(positives) / static_cast<double>(probes),
            "ratio");
    res.add("peak_rss_mb", rss, "MiB");
    return;
  }

  add_latency_metrics(open, true, res);
  const double rtt = median(unloaded.query_us);
  const double workers = static_cast<double>(w.workers);
  res.add("core.durable.recovery_s", recovery_s, "s");
  res.add("io.journal.wal_bytes_per_mutation", wal_bytes_per_mutation, "B");
  res.add("net.server.unloaded_rtt_us", rtt, "us");
  res.add("net.server.queue_wait_p50_us", query_p50 - rtt, "us");
  res.add("net.server.worker_cpu_frac",
          static_cast<double>(busy.cpu_ns) /
              (sat.wall_s * 1e9 * workers),
          "ratio");
  res.add("net.server.ctx_switches_per_frame",
          static_cast<double>(busy.ctx_switches) /
              static_cast<double>(std::max<std::uint64_t>(sat.frames, 1)),
          "count");
  res.add("net.server.requests_total", static_cast<double>(requests), "count");
  double forward_ratio = 0;
  double imbalance = 0;
  if (shards > 0) {
    std::uint64_t sum = 0;
    std::uint64_t mx = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const std::uint64_t k = c1.shard_keys[s] - c0.shard_keys[s];
      sum += k;
      mx = std::max(mx, k);
    }
    imbalance = sum == 0 ? 0
                         : static_cast<double>(mx) * shards /
                               static_cast<double>(sum);
    const std::uint64_t subs = c1.shard_subbatches - c0.shard_subbatches;
    forward_ratio = subs == 0 ? 0
                              : static_cast<double>(c1.ring_forwards -
                                                    c0.ring_forwards) /
                                    static_cast<double>(subs);
  }
  res.add("net.shard.ring_forward_ratio", forward_ratio, "ratio");
  res.add("net.shard.ring_full_total",
          static_cast<double>(c1.ring_full - c0.ring_full), "count");
  res.add("net.shard.key_imbalance", imbalance, "ratio");
  Percentiles lag = summarize(open.send_lag_us);
  res.add("loadgen.send_lag_p99_us", lag.p99, "us");
  res.add("loadgen.cpu_frac",
          static_cast<double>(sat.gen_cpu_ns) / (sat.wall_s * 1e9), "ratio");
  const double traced_kps = median(traced.window_keys_per_s);
  res.add("trace.overhead_frac", (kps - traced_kps) / kps, "ratio");
  write_spans(cfg.trace_out, spans);
}

}  // namespace

WorkloadSpec workload_by_name(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  w.shape.probe_frac = 0.25;
  if (name == "embedded-scalar") {
    w.kind = Kind::kEmbedded;
    w.memory_bits = std::size_t{1} << 23;
    w.shape.batch = 1;
    w.shape.queries_per_cycle = 8;  // 80/10/10
    w.shape.live_per_conn = w.live_per_filter();
  } else if (name == "flat-durable-mixed") {
    w.kind = Kind::kFlatDurable;
    w.memory_bits = std::size_t{1} << 28;
    w.conns = 3;
    w.workers = 3;
    w.window = 8;
    w.shape.batch = 8;
    w.shape.queries_per_cycle = 3;  // 60/20/20
    w.shape.zipf_s = 0.99;
    w.shape.live_per_conn = w.live_per_filter() / w.conns;
  } else if (name == "sharded-uniform-query") {
    w.kind = Kind::kSharded;
    w.memory_bits = std::size_t{1} << 26;
    w.filters = 3;
    w.conns = 3;
    w.workers = 3;
    w.window = 4;
    w.shape.batch = 64;
    w.shape.queries_per_cycle = 18;  // 90/5/5
    // Three connections fill three shards at 64 bits per live key.
    w.shape.live_per_conn = w.live_per_filter() * w.filters / w.conns;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<std::string> workload_names() {
  return {"embedded-scalar", "flat-durable-mixed", "sharded-uniform-query"};
}

RunResult run_workload(const RunConfig& cfg) {
  const WorkloadSpec w = workload_by_name(cfg.workload);
  RunResult res;

  const HostInfo host = read_host_info();
  const unsigned threads = w.workers + 1;  // server workers + generator
  res.info.push_back("host: nproc=" + std::to_string(host.nproc) + " cpu=\"" +
                     host.cpu_model + "\" loadavg=" +
                     std::to_string(host.loadavg_1m) + "," +
                     std::to_string(host.loadavg_5m));
  const bool budget_ok = threads <= host.nproc;
  res.info.push_back("budget: server_threads=" + std::to_string(w.workers) +
                     " generator_threads=1 nproc=" +
                     std::to_string(host.nproc) +
                     (budget_ok ? " ok" : " INVALID (threads exceed nproc)"));

  const std::filesystem::path workdir =
      cfg.workdir / (w.name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  struct Cleanup {
    std::filesystem::path p;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(p, ec);
    }
  } cleanup{workdir};

  double kps = 0;
  if (w.kind == Kind::kEmbedded) {
    run_embedded(w, cfg, res, kps);
  } else {
    run_server(w, cfg, workdir, res, kps);
  }
  if (cfg.trace) {
    SpanLog spans(0);
    LadderResult lad = run_ladder(w, cfg.seed, workdir / "ladder", &spans);
    res.attempted += lad.attempted;
    res.failed += lad.failed;
    for (auto& e : lad.errors) res.errors.push_back(std::move(e));
    for (auto& m : lad.metrics) res.metrics.push_back(std::move(m));
    // Thread-ns per key on the serving path: the one embedded thread, or
    // the server workers' measured CPU at saturation.
    double busy_threads = 1.0;
    for (const auto& m : res.metrics) {
      if (m.name == "net.server.worker_cpu_frac") {
        busy_threads = m.value * w.workers;
      }
    }
    const double e2e_ns = busy_threads * 1e9 / kps;
    res.add("ladder.unattributed_ns_per_key", e2e_ns - lad.attributed_ns_per_key,
            "ns");
    if (w.kind == Kind::kEmbedded) {
      // Layers that are not on the embedded path.
      const std::pair<const char*, const char*> absent[] = {
          {"core.durable.recovery_s", "s"},
          {"io.journal.wal_bytes_per_mutation", "B"},
          {"net.server.unloaded_rtt_us", "us"},
          {"net.server.queue_wait_p50_us", "us"},
          {"net.server.worker_cpu_frac", "ratio"},
          {"net.server.ctx_switches_per_frame", "count"},
          {"net.server.requests_total", "count"},
          {"net.shard.ring_forward_ratio", "ratio"},
          {"net.shard.ring_full_total", "count"},
          {"net.shard.key_imbalance", "ratio"}};
      for (const auto& [name, unit] : absent) res.add(name, 0, unit);
    }
    res.add("loadgen.failed_ratio",
            static_cast<double>(res.failed) /
                static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)),
            "ratio");
  }
  return res;
}

}  // namespace perfbench
