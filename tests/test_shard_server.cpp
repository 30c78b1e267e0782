// Shared-nothing (sharded) server tests: decode-time routing parity
// against a locally-composed shard set, flat-vs-sharded verdict parity
// for every batch shape, idle-no-wakeups for the epoll loops, sequenced
// mutations through the scatter path, drain-under-load (no in-flight
// sub-batch dropped by stop()), durable per-shard recovery with the
// merged manifest, replication: a flat follower tailing a sharded
// primary's merged journal stream, and the reply path: no lost ring
// doorbell when peers park between frames, pipelined replies in order
// across a half-close.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "metrics/registry.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mpcbf;
using namespace mpcbf::net;

core::MpcbfConfig shard_config() {
  core::MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.expected_n = 1024;
  cfg.policy = core::OverflowPolicy::kStash;
  return cfg;
}

core::DurableMpcbf<64>::Options fast_durable() {
  core::DurableMpcbf<64>::Options o;
  o.fsync = false;
  return o;
}

std::vector<std::string> make_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string(seed) + "-" +
                   std::to_string(i));
  }
  return keys;
}

/// Fresh keys, `per_shard` owned by each of `shards` shards, interleaved
/// so every run of `shards` consecutive keys touches every shard once.
std::vector<std::string> keys_spanning_shards(std::uint32_t shards,
                                              std::size_t per_shard,
                                              std::uint64_t seed) {
  std::vector<std::vector<std::string>> by_shard(shards);
  for (std::size_t i = 0;; ++i) {
    std::string k = "span-" + std::to_string(seed) + "-" + std::to_string(i);
    auto& bucket = by_shard[shard_of(k, shards)];
    if (bucket.size() < per_shard) bucket.push_back(std::move(k));
    if (std::all_of(by_shard.begin(), by_shard.end(), [&](const auto& b) {
          return b.size() == per_shard;
        })) {
      break;
    }
  }
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < per_shard; ++i) {
    for (auto& bucket : by_shard) keys.push_back(std::move(bucket[i]));
  }
  return keys;
}

/// Ring traffic summed over every shard's labeled series. The registry
/// is process-global, so tests compare deltas.
struct RingTraffic {
  std::uint64_t forwards = 0;
  std::uint64_t full = 0;
  std::uint64_t wakes = 0;

  static RingTraffic read(std::uint32_t shards) {
    auto& reg = metrics::Registry::global();
    RingTraffic t;
    for (std::uint32_t i = 0; i < shards; ++i) {
      const std::string id = std::to_string(i);
      t.forwards +=
          reg.counter("mpcbf_server_shard_ring_forwards_total", "",
                      {{"shard", id}})
              .value();
      t.full += reg.counter("mpcbf_server_shard_ring_full_total", "",
                            {{"shard", id}})
                    .value();
      t.wakes += reg.counter("mpcbf_server_shard_wakes_total", "",
                             {{"shard", id}})
                     .value();
    }
    return t;
  }
};

/// Each forwarded sub-batch crosses two rings (work out, completion
/// back) and costs at most one doorbell per crossing; a message parked
/// on a full ring adds one unconditional wake at park time.
void expect_wakes_bounded_by_messages(const RingTraffic& before,
                                      const RingTraffic& after) {
  const std::uint64_t forwards = after.forwards - before.forwards;
  const std::uint64_t full = after.full - before.full;
  const std::uint64_t wakes = after.wakes - before.wakes;
  EXPECT_GT(forwards, 0u);
  EXPECT_LE(wakes, 2 * forwards + full)
      << "forwards " << forwards << " ring_full " << full;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / "mpcbf_shard_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A sharded in-memory server plus handles to its shard filters, so
/// tests can model the exact expected behaviour locally.
struct ShardedMemoryServer {
  std::vector<std::shared_ptr<core::Mpcbf<64>>> filters;
  std::unique_ptr<Server> server;

  explicit ShardedMemoryServer(std::size_t shards) {
    ShardSet set;
    for (std::size_t i = 0; i < shards; ++i) {
      filters.push_back(std::make_shared<core::Mpcbf<64>>(shard_config()));
      set.shards.push_back(make_shard_backend(filters.back(), i));
    }
    Server::Options opts;
    server = std::make_unique<Server>(std::move(set), opts);
    server->start();
  }
  ~ShardedMemoryServer() { server->stop(); }

  [[nodiscard]] Client client() const {
    Client::Options copts;
    copts.port = server->port();
    return Client(copts);
  }
};

/// A sharded durable server: per-shard directories under one root, one
/// global sequence counter stamping every shard's WAL (the mpcbf_tool
/// --cores wiring, reproduced for tests).
struct ShardedDurableServer {
  fs::path dir;
  std::vector<std::shared_ptr<core::DurableMpcbf<64>>> filters;
  std::shared_ptr<std::atomic<std::uint64_t>> seq;
  std::unique_ptr<Server> server;

  ShardedDurableServer(const fs::path& root, std::size_t shards)
      : dir(root), seq(std::make_shared<std::atomic<std::uint64_t>>(0)) {
    core::DurableMpcbf<64>::Options dopts = fast_durable();
    dopts.seq_source = [ctr = seq] {
      return ctr->fetch_add(1, std::memory_order_relaxed) + 1;
    };
    ShardSet set;
    for (std::size_t i = 0; i < shards; ++i) {
      filters.push_back(core::DurableMpcbf<64>::open_shared(
          dir / ("shard-" + std::to_string(i)), shard_config(), dopts));
      set.shards.push_back(make_shard_backend(filters[i], i));
    }
    std::uint64_t last = 0;
    for (const auto& f : filters) last = std::max(last, f->next_seq() - 1);
    seq->store(last, std::memory_order_relaxed);
    set.seq_counter = seq;
    set.manifest = [root, n = shards](
                       std::span<const std::uint64_t> marks) {
      std::ofstream mf(root / "shards.manifest", std::ios::trunc);
      mf << "shards " << n << "\n";
      for (std::size_t i = 0; i < marks.size(); ++i) {
        mf << "shard-" << i << " watermark " << marks[i] << "\n";
      }
    };
    Server::Options opts;
    server = std::make_unique<Server>(std::move(set), opts);
    server->start();
  }
  ~ShardedDurableServer() {
    if (server) server->stop();
  }

  [[nodiscard]] Client client() const {
    Client::Options copts;
    copts.port = server->port();
    return Client(copts);
  }
};

// --- routing parity -----------------------------------------------------

TEST(ShardServer, VerdictParityWithLocalShardComposition) {
  // The server must behave exactly like the shard_of-composition of its
  // shard filters: route each key locally with the same hash and drive
  // identically-configured local filters, then compare verdicts 1:1.
  constexpr std::uint32_t kShards = 4;
  ShardedMemoryServer srv(kShards);
  Client c = srv.client();
  std::vector<core::Mpcbf<64>> local;
  for (std::uint32_t i = 0; i < kShards; ++i) local.emplace_back(shard_config());

  const auto inserted = make_keys(800, 1);
  const auto remote_ins = c.insert(inserted);
  std::vector<std::uint8_t> local_ins;
  for (const auto& k : inserted) {
    local_ins.push_back(local[shard_of(k, kShards)].insert(k) ? 1 : 0);
  }
  ASSERT_EQ(remote_ins.size(), local_ins.size());
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_EQ(remote_ins[i], local_ins[i]) << "insert " << inserted[i];
  }

  auto probes = make_keys(800, 2);  // disjoint: exercises negatives too
  probes.insert(probes.end(), inserted.begin(), inserted.end());
  const auto remote_q = c.query(probes);
  ASSERT_EQ(remote_q.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto& k = probes[i];
    EXPECT_EQ(remote_q[i], local[shard_of(k, kShards)].contains(k) ? 1 : 0)
        << "query " << k;
  }

  const auto remote_er = c.erase(inserted);
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    const auto& k = inserted[i];
    EXPECT_EQ(remote_er[i], local[shard_of(k, kShards)].erase(k) ? 1 : 0)
        << "erase " << k;
  }
}

TEST(ShardServer, FlatVsShardedParityAcrossBatchSizes) {
  // Inserted keys must come back positive from both ownership models for
  // every batch shape, including size-1 (inline fast path) and 1000
  // (scatter across every shard). MPCBFs have no false negatives, so
  // this is an exact requirement, not a probabilistic one.
  ShardedMemoryServer sharded(4);
  auto flat_filter = std::make_shared<core::Mpcbf<64>>(shard_config());
  Server::Options fopts;
  Server flat(make_backend(flat_filter), fopts);
  flat.start();
  Client::Options copts;
  copts.port = flat.port();
  Client cf(copts);
  Client cs = sharded.client();

  std::uint64_t seed = 100;
  for (const std::size_t batch : {1u, 8u, 64u, 1000u}) {
    const auto keys = make_keys(batch, seed++);
    const auto vf = cf.insert(keys);
    const auto vs = cs.insert(keys);
    ASSERT_EQ(vf.size(), batch);
    ASSERT_EQ(vs.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(vf[i], 1) << "flat insert, batch " << batch;
      EXPECT_EQ(vs[i], 1) << "sharded insert, batch " << batch;
    }
    const auto qf = cf.query(keys);
    const auto qs = cs.query(keys);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(qf[i], qs[i]) << "query parity, batch " << batch;
      EXPECT_EQ(qs[i], 1) << "sharded query, batch " << batch;
    }
  }
  flat.stop();
}

TEST(ShardServer, StatsAndHealthAggregateAcrossShards) {
  ShardedMemoryServer srv(4);
  Client c = srv.client();
  const auto keys = make_keys(600, 7);
  (void)c.insert(keys);

  const StatsReply s = c.stats();
  EXPECT_EQ(s.elements, keys.size());  // summed over shards
  EXPECT_EQ(s.memory_bits, 4 * srv.filters[0]->memory_bits());  // summed
  EXPECT_EQ(s.k, srv.filters[0]->k());  // layout params from shard 0

  const HealthReply h = c.health();
  EXPECT_EQ(h.ready, 1);
  EXPECT_EQ(h.elements, keys.size());
}

// --- event loops --------------------------------------------------------

TEST(ShardServer, IdleServerMakesNoProgressLoopIterations) {
  // Satellite: an idle server must sit in a blocking wait — no 50ms
  // tick. loop_iterations() counts every EventLoop::wait return across
  // the acceptor and all workers; with no connections and no timers the
  // count must stay flat over an observation window.
  ShardedMemoryServer srv(4);
  { Client c = srv.client(); (void)c.stats(); }  // settle accept+close
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t before = srv.server->loop_iterations();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t after = srv.server->loop_iterations();
  EXPECT_EQ(after, before);
}

TEST(ShardServer, FlatServerIdleAlsoQuiescent) {
  auto filter = std::make_shared<core::Mpcbf<64>>(shard_config());
  Server::Options opts;
  Server server(make_backend(filter), opts);
  server.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t before = server.loop_iterations();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server.loop_iterations(), before);
  server.stop();
}

// --- reply path ---------------------------------------------------------

TEST(ShardServer, ParkedPeersNeverMissARingDoorbell) {
  // Producers ring a peer's eventfd only while it is parked in
  // epoll_wait. Single-frame round trips that touch all three shards,
  // separated by seeded 0-200 us idle gaps, make every worker park
  // between frames, so ring messages keep racing peers on their way to
  // sleep. A lost wake-up would strand the frame until an unrelated
  // event; the 2 s I/O deadline turns that into a failure, not a hang.
  constexpr std::uint32_t kShards = 3;
  constexpr std::size_t kRoundTrips = 2000;
  ShardedMemoryServer srv(kShards);
  std::vector<Client> clients;  // accept is round-robin: one per worker
  for (std::uint32_t i = 0; i < kShards; ++i) {
    Client::Options copts;
    copts.port = srv.server->port();
    copts.io_timeout = std::chrono::milliseconds(2000);
    clients.emplace_back(copts);
    (void)clients.back().stats();  // connect now, in worker order
  }
  const RingTraffic before = RingTraffic::read(kShards);
  const auto keys = keys_spanning_shards(kShards, kRoundTrips / 2, 41);
  std::mt19937_64 rng(20261018);
  std::uniform_int_distribution<int> gap_us(0, 200);
  auto slowest = std::chrono::steady_clock::duration::zero();
  for (std::size_t i = 0; i < kRoundTrips; ++i) {
    // Even trips insert a fresh 3-key batch, odd ones query it back
    // through a different connection (so a different origin worker).
    const std::span<const std::string> batch(keys.data() + (i / 2) * kShards,
                                             kShards);
    Client& c = clients[i % clients.size()];
    const auto t0 = std::chrono::steady_clock::now();
    const auto v = i % 2 == 0 ? c.insert(batch) : c.query(batch);
    slowest = std::max(slowest, std::chrono::steady_clock::now() - t0);
    ASSERT_EQ(v.size(), batch.size()) << "round trip " << i;
    for (const auto b : v) ASSERT_EQ(b, 1) << "round trip " << i;
    std::this_thread::sleep_for(std::chrono::microseconds(gap_us(rng)));
  }
  EXPECT_LT(slowest, std::chrono::seconds(2));
  const RingTraffic after = RingTraffic::read(kShards);
  expect_wakes_bounded_by_messages(before, after);
  // Workers park between frames, so the doorbell path is exercised.
  EXPECT_GT(after.wakes, before.wakes);
}

TEST(ShardServer, PipelinedFramesAnswerInOrderAcrossHalfClose) {
  // 32 frames written back-to-back, then shutdown(SHUT_WR): the server
  // reads EOF while most replies are still crossing the rings. Every
  // reply must still arrive, in request order, and only then EOF —
  // the half-closed connection closes once its pipeline has flushed.
  // Scattered and single-key batches alternate so completions finish
  // out of order; each query re-reads the batch inserted just before
  // it and must see it (per-shard FIFO keeps the insert first).
  constexpr std::uint32_t kShards = 3;
  constexpr std::uint64_t kFrames = 32;
  ShardedMemoryServer srv(kShards);
  const RingTraffic before = RingTraffic::read(kShards);
  Socket s = connect_tcp("127.0.0.1", srv.server->port(),
                         std::chrono::milliseconds(2000));
  const auto keys = keys_spanning_shards(kShards, 8 * kFrames, 51);
  std::string wire;
  std::vector<std::size_t> expect_keys;
  std::size_t next = 0;
  for (std::uint64_t id = 0; id < kFrames; id += 2) {
    const std::size_t n = (id / 2) % 2 == 0 ? 8 * kShards : 1;
    std::string payload;
    append_key_batch<std::string>(
        payload, std::span<const std::string>(keys.data() + next, n));
    next += n;
    append_frame(wire, Opcode::kInsert, 0, id, payload);
    append_frame(wire, Opcode::kQuery, 0, id + 1, payload);
    expect_keys.push_back(n);
    expect_keys.push_back(n);
  }
  write_all(s.fd(), wire.data(), wire.size());
  ASSERT_EQ(::shutdown(s.fd(), SHUT_WR), 0);

  std::string rx;
  std::uint64_t expect_id = 0;
  std::vector<std::uint8_t> verdicts;
  for (;;) {
    const DecodeResult r = decode_frame(rx);
    if (r.status == DecodeStatus::kFrame) {
      ASSERT_LT(expect_id, kFrames) << "reply past the last request";
      EXPECT_EQ(r.frame.header.request_id, expect_id);
      EXPECT_EQ(r.frame.header.flags, kFlagResponse);
      ASSERT_EQ(parse_verdicts(r.frame.payload, verdicts), nullptr);
      ASSERT_EQ(verdicts.size(), expect_keys[expect_id]);
      for (const auto b : verdicts) EXPECT_EQ(b, 1) << "frame " << expect_id;
      ++expect_id;
      rx.erase(0, r.consumed);
      continue;
    }
    ASSERT_EQ(r.status, DecodeStatus::kNeedMore);
    char chunk[4096];
    const auto n = read_some(s.fd(), chunk, sizeof chunk);
    ASSERT_GE(n, 0) << "no reply or EOF within the I/O deadline";
    if (n == 0) break;
    rx.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(expect_id, kFrames);
  EXPECT_TRUE(rx.empty());
  expect_wakes_bounded_by_messages(before, RingTraffic::read(kShards));
}

// --- sequenced mutations ------------------------------------------------

TEST(ShardServer, SequencedRetryDedupsAcrossShards) {
  // A FailoverClient retry of a scattered mutation must replay the
  // cached reply, not re-apply counters on any shard.
  ShardedMemoryServer srv(4);
  FailoverClient::Options fopts;
  fopts.endpoints = {{"127.0.0.1", srv.server->port()}};
  FailoverClient fc(fopts);
  const auto keys = make_keys(200, 11);
  auto v = fc.insert(keys);
  for (const auto b : v) EXPECT_EQ(b, 1);
  // Erase once; counters at exactly zero afterwards proves no double
  // insert survived the sequenced path.
  Client c = srv.client();
  const auto erased = c.erase(keys);
  for (const auto b : erased) EXPECT_EQ(b, 1);
  const StatsReply s = c.stats();
  EXPECT_EQ(s.elements, 0u);
}

// --- drain --------------------------------------------------------------

TEST(ShardServer, DrainUnderLoadDropsNoInflightSubBatch) {
  // Clients hammer scattered batches while stop() lands mid-stream.
  // Every reply a client receives must be complete and all-positive
  // (inserts of fresh keys never fail below capacity) — a dropped
  // sub-batch would surface as a short, zeroed or missing verdict
  // vector. Connection resets after the drain began are legitimate.
  auto srv = std::make_unique<ShardedMemoryServer>(4);
  const std::uint16_t port = srv->server->port();
  std::atomic<bool> go{true};
  std::atomic<std::uint64_t> complete_replies{0};
  std::atomic<std::uint64_t> malformed_replies{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      try {
        Client::Options copts;
        copts.port = port;
        Client c(copts);
        std::uint64_t round = 0;
        while (go.load(std::memory_order_relaxed)) {
          const auto keys =
              make_keys(64, 1000 + t * 1000000 + round++);
          const auto v = c.insert(keys);
          bool ok = v.size() == keys.size();
          for (const auto b : v) ok = ok && b == 1;
          (ok ? complete_replies : malformed_replies)
              .fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const NetError&) {
        // Server draining/closed mid-request: acceptable.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  srv->server->stop();  // mid-stream: workers must gather in-flight subs
  go.store(false, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  EXPECT_GT(complete_replies.load(), 0u);
  EXPECT_EQ(malformed_replies.load(), 0u);
  srv.reset();
}

// --- durability ---------------------------------------------------------

TEST(ShardServer, DurableShardsRecoverAfterRestart) {
  const fs::path dir = fresh_dir("sharded_recovery");
  const auto keys = make_keys(500, 21);
  {
    ShardedDurableServer srv(dir, 4);
    Client c = srv.client();
    const auto v = c.insert(keys);
    for (const auto b : v) ASSERT_EQ(b, 1);
    srv.server->stop();  // per-shard snapshots + manifest
    std::string manifest;
    {
      std::ifstream mf(dir / "shards.manifest");
      std::ostringstream os;
      os << mf.rdbuf();
      manifest = os.str();
    }
    EXPECT_NE(manifest.find("shards 4"), std::string::npos);
    EXPECT_NE(manifest.find("watermark"), std::string::npos);
  }
  // Reopen: every key must be present, and the global sequence must
  // resume at the highest stamp any shard persisted.
  ShardedDurableServer again(dir, 4);
  EXPECT_EQ(again.seq->load(), keys.size());
  Client c = again.client();
  const auto v = c.query(keys);
  ASSERT_EQ(v.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(v[i], 1) << "lost after restart: " << keys[i];
  }
}

// --- replication --------------------------------------------------------

TEST(ShardServer, FlatFollowerTailsShardedPrimary) {
  // The sharded primary's REPLICATE merges the per-shard journal tails
  // (disjoint subsequences of one global stream) back into a
  // consecutive page; an ordinary flat follower must converge on the
  // union of every shard's inserts.
  const fs::path pdir = fresh_dir("sharded_primary");
  const fs::path fdir = fresh_dir("flat_follower");
  ShardedDurableServer primary(pdir, 4);
  Client c = primary.client();
  const auto keys = make_keys(400, 31);
  const auto v = c.insert(keys);
  for (const auto b : v) ASSERT_EQ(b, 1);

  auto follower = core::DurableMpcbf<64>::open_shared(fdir, shard_config(),
                                                      fast_durable());
  auto fmu = std::make_shared<std::shared_mutex>();
  Replicator::Options ropts;
  ropts.primaries = {{"127.0.0.1", primary.server->port()}};
  ropts.max_records = 64;  // force paging across several polls
  Replicator repl(follower, fmu, ropts);
  for (int i = 0; i < 10000 && !repl.caught_up(); ++i) {
    try {
      (void)repl.poll_once();
    } catch (const NetError&) {
      // Transient scan-order gap in the merged tail: re-poll.
    }
  }
  ASSERT_TRUE(repl.caught_up());
  EXPECT_EQ(repl.acked_seq(), keys.size());
  {
    std::shared_lock lock(*fmu);
    for (const auto& k : keys) {
      EXPECT_TRUE(follower->filter().contains(k)) << "missing " << k;
    }
  }
}

TEST(ShardServer, SnapFetchUnsupportedOnShardedPrimary) {
  // Snapshot bootstrap needs one consistent image; a sharded primary
  // refuses rather than serving a torn one. Followers must start before
  // the primary's journal is compacted.
  ShardedMemoryServer srv(2);
  Client c = srv.client();
  SnapFetchRequest req;
  req.offset = 0;
  req.max_bytes = 4096;
  std::string bytes;
  try {
    (void)c.snap_fetch(req, bytes);
    FAIL() << "snap_fetch should be unsupported on a sharded primary";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
  }
}

}  // namespace
