// The layer ladder: one workload's key stream replayed through each layer's
// public entry point in turn, so each layer's cost and its delta over the
// layer below can be read side by side.
//
//   hash           TargetDeriver::derive_all
//   word engine    evaluate_lazy over the derived targets
//   core.mpcbf     Mpcbf contains / insert / erase (scalar for batch 1,
//                  the batch calls otherwise)
//   core.durable   DurableMpcbf insert / erase (WAL flush per mutation)
//   net.backend    make_backend(DurableMpcbf) hooks
//   net.protocol   append_frame + append_key_batch, decode_frame +
//                  parse_key_batch
//
// Only the rungs on the workload's path run: core.durable and net.backend
// on flat-durable-mixed, net.protocol on the server workloads. The others
// report 0.
//
// Queries replay the workload's query distribution over a fixed live
// window; mutations replay its paired INSERT/ERASE frames, so the window
// stays the same size. Every rung's verdicts are compared on the same keys.
// Each rung is timed over blocks of keys and reports its median block.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/word_engine.hpp"
#include "filters.hpp"
#include "hash/hash_stream.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace engine = mpcbf::core::engine;
namespace net = mpcbf::net;
using mpcbf::metrics::now_ns;

namespace {

constexpr std::uint32_t kBlockKeys = 256;
constexpr std::uint32_t kQueryBlocks = 512;
constexpr std::uint32_t kMutationBlocks = 64;

enum SpanName : std::uint32_t {
  kSpanHash = 4,
  kSpanEngine = 5,
  kSpanMpcbf = 6,
  kSpanDurable = 7,
  kSpanBackend = 8,
  kSpanProtocol = 9,
};

/// Per-rung block timings in ns per unit (key or frame).
struct Rung {
  std::vector<double> samples;
  void add(std::uint64_t t0, std::uint64_t t1, std::uint64_t units) {
    samples.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(std::max<std::uint64_t>(units, 1)));
  }
  [[nodiscard]] double value() const {
    return median(samples);
  }
};

/// Frames of one block, regenerated from the stream per block.
struct Block {
  std::vector<FrameKeys> frames;

  void fill(OpStream& stream, std::uint32_t count) {
    frames.resize(count);
    for (auto& f : frames) stream.next(f);
  }
  [[nodiscard]] static std::span<const std::string_view> views(
      const FrameKeys& f) {
    return {f.views.data(), f.count};
  }
};

}  // namespace

LadderResult run_ladder(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::filesystem::path& dir, SpanLog* spans) {
  LadderResult out;
  auto fail = [&](std::uint64_t n, const std::string& why) {
    out.failed += n;
    if (out.errors.size() < 8) out.errors.push_back("ladder: " + why);
  };
  auto span = [&](std::uint32_t name, std::uint64_t block, std::uint64_t t0,
                  std::uint64_t t1) {
    if (spans != nullptr) spans->add(Span{name, block, 0, t0, t1});
  };

  // One filter instance as a key meets it on the workload's path, holding
  // its share of the live set.
  StreamShape base = spec.shape;
  base.seed = seed;
  base.live_per_conn = spec.live_per_filter();
  StreamShape qshape = base;
  qshape.queries_per_cycle = 1u << 30;  // queries only
  StreamShape mshape = base;
  mshape.queries_per_cycle = 0;  // INSERT, ERASE, INSERT, ...
  const std::uint32_t batch = base.batch;
  const std::uint32_t frames_per_block = kBlockKeys / batch;

  const bool durable_path = spec.kind == Kind::kFlatDurable;
  const bool wire_path = spec.kind != Kind::kEmbedded;
  Filter plain(filter_config(spec));
  preload_filter(plain, base, 1);
  std::shared_ptr<Durable> durable;
  net::FilterBackend backend;
  if (durable_path) {
    build_durable_dir(dir, spec, base, 1);
    durable = Durable::open_shared(dir, filter_config(spec),
                                   serving_options());
    backend = net::make_backend(durable);
  }

  const engine::TargetDeriver deriver(plain.num_words(), plain.k(),
                                      plain.g(), plain.b1());
  std::vector<engine::Targets> targets(kBlockKeys);
  std::vector<std::uint8_t> v_engine(kBlockKeys);
  std::vector<std::uint8_t> v_plain(kBlockKeys);
  std::vector<std::uint8_t> v_backend(kBlockKeys);
  Rung hash, eval, contains, be_contains, encode, decode;
  std::string payload;
  std::string wire;
  std::vector<std::string_view> parsed;

  // --- query rungs -------------------------------------------------------
  plain.reset_stats();
  OpStream qstream(qshape, 0);
  Block block;
  std::uint64_t stash_mismatches = 0;
  for (std::uint32_t b = 0; b < kQueryBlocks; ++b) {
    block.fill(qstream, frames_per_block);
    std::uint64_t t0 = now_ns();
    std::uint32_t idx = 0;
    for (const auto& f : block.frames) {
      for (std::uint32_t i = 0; i < f.count; ++i) {
        mpcbf::hash::HashBitStream hs(f.key(i), plain.seed());
        deriver.derive_all(hs, targets[idx++]);
      }
    }
    std::uint64_t t1 = now_ns();
    hash.add(t0, t1, kBlockKeys);
    span(kSpanHash, b, t0, t1);

    t0 = now_ns();
    for (std::uint32_t i = 0; i < kBlockKeys; ++i) {
      const engine::BatchEval ev = engine::evaluate_lazy(
          targets[i], plain.num_words(), plain.k(), plain.g(), plain.b1(),
          true, [&](std::size_t w, unsigned pos) {
            return plain.word(w).test(pos);
          });
      v_engine[i] = ev.positive ? 1 : 0;
    }
    t1 = now_ns();
    eval.add(t0, t1, kBlockKeys);
    span(kSpanEngine, b, t0, t1);

    t0 = now_ns();
    idx = 0;
    for (const auto& f : block.frames) {
      if (batch == 1) {
        v_plain[idx] = plain.contains(f.key(0)) ? 1 : 0;
      } else {
        plain.contains_batch(Block::views(f),
                             std::span<std::uint8_t>(&v_plain[idx], f.count));
      }
      idx += f.count;
    }
    t1 = now_ns();
    contains.add(t0, t1, kBlockKeys);
    span(kSpanMpcbf, b, t0, t1);

    if (durable_path) {
      t0 = now_ns();
      idx = 0;
      for (const auto& f : block.frames) {
        backend.contains_batch(
            Block::views(f), std::span<std::uint8_t>(&v_backend[idx], f.count));
        idx += f.count;
      }
      t1 = now_ns();
      be_contains.add(t0, t1, kBlockKeys);
      span(kSpanBackend, b, t0, t1);
    }

    if (wire_path) {
      t0 = now_ns();
      wire.clear();
      for (const auto& f : block.frames) {
        payload.clear();
        net::append_key_batch<std::string_view>(payload, Block::views(f));
        net::append_frame(wire, net::Opcode::kQuery, 0, b, payload);
      }
      t1 = now_ns();
      encode.add(t0, t1, frames_per_block);
      t0 = now_ns();
      std::size_t off = 0;
      std::uint32_t decoded = 0;
      for (std::uint32_t fi = 0; fi < frames_per_block; ++fi) {
        const net::DecodeResult d =
            net::decode_frame(std::string_view(wire).substr(off));
        if (d.status != net::DecodeStatus::kFrame ||
            net::parse_key_batch(d.frame.payload, parsed) != nullptr) {
          break;
        }
        decoded += static_cast<std::uint32_t>(parsed.size());
        off += d.consumed;
      }
      t1 = now_ns();
      decode.add(t0, t1, frames_per_block);
      span(kSpanProtocol, b, t0, t1);
      if (decoded != kBlockKeys) {
        fail(kBlockKeys, "protocol round trip lost keys");
      }
    }
    out.attempted += kBlockKeys;

    idx = 0;
    for (const auto& f : block.frames) {
      for (std::uint32_t i = 0; i < f.count; ++i, ++idx) {
        if (f.probe[i] == 0 && v_plain[idx] == 0) {
          fail(1, "false negative on a live key");
        }
        if (durable_path && v_plain[idx] != v_backend[idx]) {
          fail(1, "verdict differs between core.mpcbf and net.backend");
        }
        if (v_engine[idx] != v_plain[idx]) {
          // The word engine does not consult the overflow stash.
          if (v_engine[idx] == 0 && plain.stash_size() > 0) {
            ++stash_mismatches;
          } else {
            fail(1, "verdict differs between word engine and core.mpcbf");
          }
        }
      }
    }
  }

  // --- mutation rungs ----------------------------------------------------
  // Even blocks reach the durable filter through its own calls, odd blocks
  // through the backend hooks; the plain filter gets every block, so both
  // end in the same state.
  Rung ins, ers, d_ins, d_ers, be_ins;
  auto& reg = mpcbf::metrics::Registry::global();
  auto& commit = reg.histogram("mpcbf_durable_commit_batch_records");
  const std::uint64_t commits0 = commit.count();
  const std::uint64_t records0 = commit.sum();
  const auto wal_size = [&]() -> std::uintmax_t {
    return durable_path
               ? std::filesystem::file_size(Durable::journal_path(dir))
               : 0;
  };
  const auto wal0 = wal_size();
  const std::uint64_t seq0 = durable_path ? durable->next_seq() : 0;
  OpStream mstream(mshape, 0);
  std::vector<std::uint8_t> ok(kBlockKeys);
  auto all_ok = [&](std::uint32_t n, const char* what) {
    out.attempted += n;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (ok[i] == 0) fail(1, what);
    }
  };
  for (std::uint32_t b = 0; b < kMutationBlocks; ++b) {
    block.fill(mstream, 2 * frames_per_block);
    std::uint64_t t_ins = 0;
    std::uint64_t t_ers = 0;
    const std::uint64_t tb0 = now_ns();
    for (const auto& f : block.frames) {
      const std::uint64_t t0 = now_ns();
      if (f.op == Op::kInsert) {
        if (batch == 1) {
          ok[0] = plain.insert(f.key(0)) ? 1 : 0;
        } else {
          plain.insert_batch(Block::views(f),
                             std::span<std::uint8_t>(ok.data(), f.count));
        }
        t_ins += now_ns() - t0;
      } else {
        for (std::uint32_t i = 0; i < f.count; ++i) {
          ok[i] = plain.erase(f.key(i)) ? 1 : 0;
        }
        t_ers += now_ns() - t0;
      }
      all_ok(f.count, "core.mpcbf mutation failed");
    }
    span(kSpanMpcbf, kQueryBlocks + b, tb0, now_ns());
    ins.samples.push_back(static_cast<double>(t_ins) / kBlockKeys);
    ers.samples.push_back(static_cast<double>(t_ers) / kBlockKeys);
    if (!durable_path) continue;

    const bool via_backend = (b % 2) == 1;
    t_ins = 0;
    t_ers = 0;
    const std::uint64_t tc0 = now_ns();
    for (const auto& f : block.frames) {
      const auto keys = Block::views(f);
      const std::span<std::uint8_t> flags(ok.data(), f.count);
      const std::uint64_t t0 = now_ns();
      if (f.op == Op::kInsert) {
        if (via_backend) {
          backend.insert_batch(keys, flags);
        } else if (batch == 1) {
          ok[0] = durable->insert(f.key(0)) ? 1 : 0;
        } else {
          durable->insert_batch(keys, flags);
        }
        t_ins += now_ns() - t0;
      } else {
        if (via_backend) {
          backend.erase_batch(keys, flags);
        } else {
          for (std::uint32_t i = 0; i < f.count; ++i) {
            ok[i] = durable->erase(f.key(i)) ? 1 : 0;
          }
        }
        t_ers += now_ns() - t0;
      }
      all_ok(f.count, via_backend ? "net.backend mutation failed"
                                  : "core.durable mutation failed");
    }
    span(via_backend ? kSpanBackend : kSpanDurable, kQueryBlocks + b, tc0,
         now_ns());
    if (via_backend) {
      be_ins.samples.push_back(static_cast<double>(t_ins) / kBlockKeys);
    } else {
      d_ins.samples.push_back(static_cast<double>(t_ins) / kBlockKeys);
      d_ers.samples.push_back(static_cast<double>(t_ers) / kBlockKeys);
    }
  }
  const std::uint64_t records = durable_path ? durable->next_seq() - seq0 : 0;
  const auto wal1 = wal_size();
  const std::uint64_t commits = commit.count() - commits0;

  // After the mutations both filters must still agree key for key.
  for (std::uint32_t b = 0; durable_path && b < 16; ++b) {
    block.fill(qstream, frames_per_block);
    for (const auto& f : block.frames) {
      backend.contains_batch(Block::views(f),
                             std::span<std::uint8_t>(v_backend.data(), f.count));
      for (std::uint32_t i = 0; i < f.count; ++i) {
        ++out.attempted;
        if ((plain.contains(f.key(i)) ? 1 : 0) != v_backend[i]) {
          fail(1, "core.mpcbf and core.durable diverged after mutations");
        }
      }
    }
  }

  const auto& st = plain.stats();
  std::uint64_t ops = 0, words = 0, bits = 0;
  for (unsigned c = 0; c < mpcbf::metrics::kNumOpClasses; ++c) {
    const auto cls = static_cast<mpcbf::metrics::OpClass>(c);
    ops += st.ops(cls);
    words += st.words(cls);
    bits += st.bits(cls);
  }
  const double dops = static_cast<double>(std::max<std::uint64_t>(ops, 1));

  auto add = [&](const char* name, double v, const char* unit) {
    out.metrics.push_back({name, v, unit});
  };
  add("hash.derive_ns_per_key", hash.value(), "ns");
  add("core.word_engine.eval_ns_per_key", eval.value(), "ns");
  add("core.mpcbf.contains_ns_per_key", contains.value(), "ns");
  add("core.mpcbf.insert_ns_per_key", ins.value(), "ns");
  add("core.mpcbf.erase_ns_per_key", ers.value(), "ns");
  add("core.mpcbf.words_per_op", static_cast<double>(words) / dops, "count");
  add("core.mpcbf.hash_bits_per_op", static_cast<double>(bits) / dops, "bit");
  add("core.mpcbf.overflow_events",
      static_cast<double>(plain.overflow_events()), "count");
  add("core.mpcbf.stash_entries", static_cast<double>(plain.stash_size()),
      "count");
  add("core.durable.insert_ns_per_key", d_ins.value(), "ns");
  add("core.durable.erase_ns_per_key", d_ers.value(), "ns");
  add("io.journal.records_per_flush",
      commits == 0 ? 0.0
                   : static_cast<double>(commit.sum() - records0) /
                         static_cast<double>(commits),
      "count");
  add("io.journal.bytes_per_record",
      static_cast<double>(wal1 - wal0) /
          static_cast<double>(std::max<std::uint64_t>(records, 1)),
      "B");
  add("net.backend.contains_ns_per_key",
      durable_path ? be_contains.value() - contains.value() : 0.0, "ns");
  add("net.backend.insert_ns_per_key",
      durable_path ? be_ins.value() - d_ins.value() : 0.0, "ns");
  add("net.protocol.encode_ns_per_frame", encode.value(), "ns");
  add("net.protocol.decode_ns_per_frame", decode.value(), "ns");
  if (stash_mismatches > 0) {
    out.errors.push_back("ladder: " + std::to_string(stash_mismatches) +
                         " stash-held keys answered by the stash only");
  }

  // Thread-ns per key the ladder accounts for on this workload's path,
  // weighted by its op mix.
  const double q = spec.query_share();
  const double m = spec.mutation_share();
  const double protocol = (encode.value() + decode.value()) / batch;
  switch (spec.kind) {
    case Kind::kEmbedded:
      out.attributed_ns_per_key =
          q * contains.value() + m * (ins.value() + ers.value());
      break;
    case Kind::kFlatDurable:
      // The backend erase hook is a scalar loop over the durable erase.
      out.attributed_ns_per_key = q * be_contains.value() +
                                  m * (be_ins.value() + d_ers.value()) +
                                  protocol;
      break;
    case Kind::kSharded:
      out.attributed_ns_per_key =
          q * contains.value() + m * (ins.value() + ers.value()) + protocol;
      break;
  }
  return out;
}

}  // namespace perfbench
