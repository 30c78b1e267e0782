// The benchmark's workloads and the result record every run prints.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "keystream.hpp"
#include "loadgen.hpp"

namespace perfbench {

enum class Kind { kEmbedded, kFlatDurable, kSharded };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kEmbedded;
  std::size_t memory_bits = 0;  ///< per filter instance
  std::uint32_t filters = 1;    ///< filter instances (shards)
  std::uint32_t conns = 1;      ///< key streams (connections)
  std::uint32_t workers = 0;    ///< server worker threads (0 = in-process)
  std::uint32_t window = 1;     ///< closed-loop frames in flight per conn
  StreamShape shape;            ///< seed is filled in per run

  /// Live keys held by each filter instance (64 bits per live key).
  [[nodiscard]] std::uint64_t live_per_filter() const {
    return memory_bits / 64;
  }
  /// Share of keys per op class implied by the frame cycle.
  [[nodiscard]] double query_share() const {
    return static_cast<double>(shape.queries_per_cycle) /
           (shape.queries_per_cycle + 2.0);
  }
  [[nodiscard]] double mutation_share() const {
    return 1.0 / (shape.queries_per_cycle + 2.0);
  }
};

/// The named workloads; throws on an unknown name.
[[nodiscard]] WorkloadSpec workload_by_name(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir;       ///< scratch (WAL dirs), removed after
  std::filesystem::path trace_out;     ///< spans file for traced runs
  double offered_keys_per_s = 0;       ///< open-loop rate (server workloads)
  std::uint32_t setups = 5;            ///< least set-ups timed; median reported
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< key operations attempted
  std::uint64_t failed = 0;     ///< failed key operations (any reason)
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<std::string> info;    ///< human-readable lines
  std::vector<std::string> errors;  ///< first failure descriptions

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void absorb(const PhaseResult& p) {
    attempted += p.keys;
    failed += p.failed_keys;
    for (const auto& e : p.errors) {
      if (errors.size() < 16) errors.push_back(e);
    }
  }
  void fail(std::uint64_t n, std::string why) {
    failed += n;
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
};

/// Runs one workload end to end (and, when traced, its layer ladder).
[[nodiscard]] RunResult run_workload(const RunConfig& cfg);

/// Per-layer numbers from replaying a workload's key stream down the
/// layer ladder (ladder.cpp).
struct LadderResult {
  std::vector<Metric> metrics;
  /// Thread-ns per key the ladder attributes to the workload's path.
  double attributed_ns_per_key = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

[[nodiscard]] LadderResult run_ladder(const WorkloadSpec& spec,
                                      std::uint64_t seed,
                                      const std::filesystem::path& dir,
                                      SpanLog* spans);

}  // namespace perfbench
