// Host record and per-thread accounting read from /proc.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  double loadavg_1m = 0;
  double loadavg_5m = 0;
};

[[nodiscard]] HostInfo read_host_info();

/// Peak resident set (VmHWM) of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// CPU time and context switches of one thread.
struct ThreadUsage {
  std::uint64_t cpu_ns = 0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
};

/// Usage of every live thread of this process, keyed by tid.
[[nodiscard]] std::map<int, ThreadUsage> read_thread_usage();

/// CPU time of the calling thread, in ns.
[[nodiscard]] std::uint64_t thread_cpu_ns();

}  // namespace perfbench
