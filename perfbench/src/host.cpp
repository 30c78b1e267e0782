#include "host.hpp"

#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

HostInfo read_host_info() {
  HostInfo h;
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 1;
  std::ifstream cpu("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(colon + 1);
        while (!h.cpu_model.empty() && h.cpu_model.front() == ' ') {
          h.cpu_model.erase(0, 1);
        }
      }
      break;
    }
  }
  std::ifstream load("/proc/loadavg");
  load >> h.loadavg_1m >> h.loadavg_5m;
  return h;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

// Per-thread CPU clock of thread `tid` of this process (the encoding
// glibc's pthread_getcpuclockid uses: CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD).
std::uint64_t thread_cpu_ns_of(int tid) {
  const clockid_t clock = static_cast<clockid_t>((~tid) << 3) | 6;
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t read_ctx_switches(const std::string& dir) {
  std::ifstream is(dir + "/status");
  std::string line;
  std::uint64_t total = 0;
  while (std::getline(is, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
        line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      total += std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10);
    }
  }
  return total;
}

}  // namespace

std::map<int, ThreadUsage> read_thread_usage() {
  std::map<int, ThreadUsage> out;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const int tid = std::atoi(e->d_name);
    const std::string dir = std::string("/proc/self/task/") + e->d_name;
    out[tid] = ThreadUsage{thread_cpu_ns_of(tid), read_ctx_switches(dir)};
  }
  ::closedir(d);
  return out;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
