// mpcbfd benchmark entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir DIR] [--trace-out FILE]
//             [--offered-keys-per-s name=rate ...]
//
// Prints host and sample-count lines, one line per metric with its unit,
// and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set. Exits 1 when any operation failed or any check did not
// hold, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

const char* const kEndToEnd[] = {"setup_s",         "keys_per_s",
                                 "query_p50_us",    "mutation_p50_us",
                                 "fpr",             "peak_rss_mb"};

const char* const kPerLayer[] = {
    "query_p99_us",
    "mutation_p99_us",
    "hash.derive_ns_per_key",
    "core.word_engine.eval_ns_per_key",
    "core.mpcbf.contains_ns_per_key",
    "core.mpcbf.insert_ns_per_key",
    "core.mpcbf.erase_ns_per_key",
    "core.mpcbf.words_per_op",
    "core.mpcbf.hash_bits_per_op",
    "core.mpcbf.overflow_events",
    "core.mpcbf.stash_entries",
    "core.durable.insert_ns_per_key",
    "core.durable.erase_ns_per_key",
    "core.durable.recovery_s",
    "io.journal.records_per_flush",
    "io.journal.bytes_per_record",
    "io.journal.wal_bytes_per_mutation",
    "net.backend.contains_ns_per_key",
    "net.backend.insert_ns_per_key",
    "net.protocol.encode_ns_per_frame",
    "net.protocol.decode_ns_per_frame",
    "net.server.unloaded_rtt_us",
    "net.server.queue_wait_p50_us",
    "net.server.worker_cpu_frac",
    "net.server.ctx_switches_per_frame",
    "net.server.requests_total",
    "net.shard.ring_forward_ratio",
    "net.shard.ring_full_total",
    "net.shard.key_imbalance",
    "loadgen.send_lag_p99_us",
    "loadgen.cpu_frac",
    "loadgen.failed_ratio",
    "ladder.unattributed_ns_per_key",
    "trace.overhead_frac",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE] "
               "[--offered-keys-per-s NAME=RATE ...]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.workdir = ".bench_build/perfbench-work";
  std::map<std::string, double> offered;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
    } else if (arg == "--workdir") {
      cfg.workdir = val;
    } else if (arg == "--trace-out") {
      cfg.trace_out = val;
    } else if (arg == "--offered-keys-per-s") {
      const auto eq = val.find('=');
      if (eq == std::string::npos) usage("--offered-keys-per-s wants NAME=RATE");
      offered[val.substr(0, eq)] = std::strtod(val.c_str() + eq + 1, nullptr);
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (cfg.seconds <= 0) usage("bad --seconds");
  try {
    const perfbench::WorkloadSpec spec =
        perfbench::workload_by_name(cfg.workload);
    if (spec.kind != perfbench::Kind::kEmbedded) {
      const auto it = offered.find(cfg.workload);
      if (it == offered.end() || it->second <= 0) {
        usage("server workloads need --offered-keys-per-s NAME=RATE");
      }
      cfg.offered_keys_per_s = it->second;
    }
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  // The metric set is fixed per mode; anything else is a benchmark bug.
  std::set<std::string> want;
  if (cfg.trace) {
    want.insert(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    want.insert(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::set<std::string> got;
  for (const auto& m : res.metrics) {
    got.insert(m.name);
    if (!std::isfinite(m.value)) res.fail(1, m.name + " is not finite");
  }
  if (got != want) {
    std::fprintf(stderr, "perfbench: metric set does not match the mode\n");
    return 1;
  }

  std::printf("workload %s seed %llu seconds %.3g trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  for (const auto& line : res.info) std::printf("%s\n", line.c_str());
  for (const auto& m : res.metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& e : res.errors) std::printf("error: %s\n", e.c_str());
  const bool correct = res.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  res.attempted, 1)),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  for (const auto& m : res.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(m.name).c_str(), v,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
