// Filter construction shared by the end-to-end runs and the ladder: the
// layout every workload uses, the serving WAL options, and preloading of
// the live window.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string_view>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "keystream.hpp"
#include "workloads.hpp"

namespace perfbench {

using Filter = mpcbf::core::Mpcbf<64>;
using Durable = mpcbf::core::DurableMpcbf<64>;

inline constexpr std::size_t kPreloadChunk = 4096;

/// MPCBF-1 (k=3, g=1) at the workload's memory, sized for its live set.
[[nodiscard]] inline mpcbf::core::MpcbfConfig filter_config(
    const WorkloadSpec& w) {
  mpcbf::core::MpcbfConfig c;
  c.memory_bits = w.memory_bits;
  c.k = 3;
  c.g = 1;
  c.expected_n = w.live_per_filter();
  // Overflowing words divert to the stash instead of rejecting, so no
  // insert of the stationary live set ever fails.
  c.policy = mpcbf::core::OverflowPolicy::kStash;
  return c;
}

/// WAL options of the serving instance: a flush per mutation, as
/// `mpcbf_tool serve` does. fsync is off: the WAL lives inside the
/// benchmark's own directory, on whatever disk holds it, and fsync there
/// would time that disk rather than the program.
[[nodiscard]] inline Durable::Options serving_options() {
  Durable::Options o;
  o.flush_every = 1;
  o.fsync = false;
  return o;
}

/// Feeds connection `conn`'s preload keys to `sink` in chunks of views.
template <typename Sink>
void for_each_preload_chunk(const StreamShape& shape, std::uint32_t conn,
                            Sink&& sink) {
  const OpStream stream(shape, conn);
  FrameKeys chunk;
  for (std::uint64_t j = 0; j < shape.live_per_conn; j += kPreloadChunk) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kPreloadChunk, shape.live_per_conn - j));
    chunk.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      stream.preload_key(j + i, chunk.bytes.data() + i * kKeyBytes);
    }
    sink(std::span<const std::string_view>(chunk.views.data(), n));
  }
}

/// Creates a durable directory holding the live windows of `conns`
/// streams: one bulk-load instance (a single group commit) publishes a
/// snapshot, so a serving instance opened on `dir` starts from it.
inline void build_durable_dir(const std::filesystem::path& dir,
                              const WorkloadSpec& w, const StreamShape& shape,
                              std::uint32_t conns) {
  std::filesystem::remove_all(dir);
  Durable::Options bulk;
  bulk.flush_every = std::size_t{1} << 40;
  bulk.fsync = false;
  Durable loader(dir, filter_config(w), bulk);
  std::vector<std::uint8_t> ok(kPreloadChunk);
  for (std::uint32_t c = 0; c < conns; ++c) {
    for_each_preload_chunk(shape, c, [&](std::span<const std::string_view> k) {
      loader.insert_batch(k, std::span<std::uint8_t>(ok.data(), k.size()));
    });
  }
  loader.snapshot();
}

/// Inserts the live windows of `conns` streams into `f`.
inline void preload_filter(Filter& f, const StreamShape& shape,
                           std::uint32_t conns) {
  std::vector<std::uint8_t> ok(kPreloadChunk);
  for (std::uint32_t c = 0; c < conns; ++c) {
    for_each_preload_chunk(shape, c, [&](std::span<const std::string_view> k) {
      f.insert_batch(k, std::span<std::uint8_t>(ok.data(), k.size()));
    });
  }
}

}  // namespace perfbench
