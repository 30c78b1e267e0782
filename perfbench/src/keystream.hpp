// Seeded key and operation streams for the benchmark.
//
// Every key is a pure function of (seed, domain, connection, index), so
// streams are generated on the fly into reused buffers and nothing the
// size of the live set is ever materialised by the generator. Live keys
// and probe keys live in disjoint domains (the domain byte is part of the
// key), so a probe can never collide with a key that was inserted.
//
// Stationarity: each connection owns a fixed-size window [lo, hi) of its
// live indices. Its op pattern pairs every INSERT frame (indices hi..) with
// an ERASE frame (indices lo..), so fill, FPR and cache footprint do not
// drift while a run measures. A key's insert, queries and erase all travel
// on its owning connection, in order.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kKeyBytes = 16;

enum class Domain : std::uint8_t { kLive = 1, kProbe = 2 };

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Writes the 16-byte key for (seed, domain, conn, index) into `out`.
/// Bytes 8..15 carry domain, connection and index verbatim, which makes
/// keys of different domains or connections distinct by construction.
inline void make_key(std::uint64_t seed, Domain domain, std::uint32_t conn,
                     std::uint64_t index, char* out) noexcept {
  const std::uint64_t tag = (std::uint64_t{static_cast<std::uint8_t>(domain)}
                             << 56) |
                            (std::uint64_t{conn & 0xFFu} << 48) |
                            (index & 0xFFFFFFFFFFFFull);
  const std::uint64_t scramble = mix64(seed ^ mix64(tag));
  std::memcpy(out, &scramble, 8);
  std::memcpy(out + 8, &tag, 8);
}

/// Small deterministic PRNG (splitmix64 sequence).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept { return mix64(s_++ * 0xD1B54A32D192ED03ull); }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most likely), by rejection-inversion
/// (Hörmann & Derflinger 1996): O(1) per sample, no tables.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
    h_x1_ = h(1.5) - 1.0;
    h_n_ = h(static_cast<double>(n) + 0.5);
    threshold_ = 2.0 - h_inv(h(2.5) - std::pow(2.0, -s));
  }

  std::uint64_t sample(Rng& rng) const {
    for (;;) {
      const double u = h_n_ + rng.unit() * (h_x1_ - h_n_);
      const double x = h_inv(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
      if (k - x <= threshold_ || u >= h(k + 0.5) - std::pow(k, -s_)) {
        return static_cast<std::uint64_t>(k) - 1;
      }
    }
  }

 private:
  // H(x) = ((x)^(1-s) - 1) / (1 - s), the integral of x^-s, written with
  // helpers that stay accurate as s -> 1.
  [[nodiscard]] double h(double x) const {
    const double lx = std::log(x);
    return helper2((1.0 - s_) * lx) * lx;
  }
  [[nodiscard]] double h_inv(double x) const {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    return std::exp(helper1(t) * x);
  }
  static double helper1(double x) {
    return std::abs(x) > 1e-8 ? std::log1p(x) / x
                              : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double helper2(double x) {
    return std::abs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x));
  }

  std::uint64_t n_;
  double s_;
  double h_x1_ = 0;
  double h_n_ = 0;
  double threshold_ = 0;
};

enum class Op : std::uint8_t { kQuery = 1, kInsert = 2, kErase = 3 };

/// Fixed per-workload stream shape.
struct StreamShape {
  std::uint64_t seed = 1;
  std::uint64_t live_per_conn = 1024;  ///< window size per connection
  std::uint32_t batch = 1;             ///< keys per frame / call
  std::uint32_t queries_per_cycle = 8;  ///< QUERY frames per (I, E) pair
  double probe_frac = 0.25;  ///< share of queried keys that are probes
  double zipf_s = 0.0;       ///< 0 = uniform over the live window
};

/// One frame's worth of the stream: an op and `count` keys laid out
/// back to back in `bytes`, with a per-key probe flag.
struct FrameKeys {
  Op op = Op::kQuery;
  std::uint32_t count = 0;
  std::vector<char> bytes;
  std::vector<std::string_view> views;
  std::vector<std::uint8_t> probe;  ///< 1 = never-inserted probe key

  void resize(std::uint32_t n) {
    count = n;
    if (bytes.size() < n * kKeyBytes) {
      bytes.resize(n * kKeyBytes);
      views.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        views[i] = std::string_view(bytes.data() + i * kKeyBytes, kKeyBytes);
      }
    }
    probe.assign(n, 0);
  }
  [[nodiscard]] std::string_view key(std::uint32_t i) const {
    return views[i];
  }
};

/// The op/key stream of one connection. Deterministic in
/// (shape, conn): the same inputs give byte-identical frames.
class OpStream {
 public:
  OpStream(const StreamShape& shape, std::uint32_t conn,
           std::uint32_t cycle_offset = 0)
      : shape_(shape),
        conn_(conn),
        rng_(mix64(shape.seed ^ (0xC0FFEEull + conn))),
        zipf_(shape.zipf_s > 0
                  ? std::make_unique<ZipfSampler>(shape.live_per_conn,
                                                  shape.zipf_s)
                  : nullptr),
        hi_(shape.live_per_conn),
        phase_(cycle_offset % cycle_len()) {}

  [[nodiscard]] std::uint32_t cycle_len() const noexcept {
    return shape_.queries_per_cycle + 2;
  }

  /// The keys preloaded before the run: live indices [0, live_per_conn).
  void preload_key(std::uint64_t j, char* out) const noexcept {
    make_key(shape_.seed, Domain::kLive, conn_, j, out);
  }

  /// Produces the next frame. The window moves only on INSERT (hi) and
  /// ERASE (lo) frames; queries read the window as it stands.
  void next(FrameKeys& f) {
    const std::uint32_t b = shape_.batch;
    f.resize(b);
    const std::uint32_t slot = phase_;
    phase_ = (phase_ + 1) % cycle_len();
    if (slot == shape_.queries_per_cycle) {
      f.op = Op::kInsert;
      for (std::uint32_t i = 0; i < b; ++i) {
        make_key(shape_.seed, Domain::kLive, conn_, hi_++,
                 f.bytes.data() + i * kKeyBytes);
      }
      return;
    }
    if (slot == shape_.queries_per_cycle + 1) {
      f.op = Op::kErase;
      for (std::uint32_t i = 0; i < b; ++i) {
        make_key(shape_.seed, Domain::kLive, conn_, lo_++,
                 f.bytes.data() + i * kKeyBytes);
      }
      return;
    }
    f.op = Op::kQuery;
    const std::uint64_t window = hi_ - lo_;
    for (std::uint32_t i = 0; i < b; ++i) {
      char* out = f.bytes.data() + i * kKeyBytes;
      if (rng_.unit() < shape_.probe_frac) {
        f.probe[i] = 1;
        make_key(shape_.seed, Domain::kProbe, conn_, probe_next_++, out);
        continue;
      }
      std::uint64_t j;
      if (zipf_) {
        // Zipf over recency rank: rank 0 is the newest live key.
        const std::uint64_t r = zipf_->sample(rng_) % window;
        j = hi_ - 1 - r;
      } else {
        j = lo_ + rng_.below(window);
      }
      make_key(shape_.seed, Domain::kLive, conn_, j, out);
    }
  }

  /// Fresh never-inserted probes (a separate index range from the
  /// in-stream probes), for the end-of-run FPR sweep.
  void sweep_probes(std::uint64_t first, FrameKeys& f,
                    std::uint32_t n) const {
    f.resize(n);
    f.op = Op::kQuery;
    for (std::uint32_t i = 0; i < n; ++i) {
      f.probe[i] = 1;
      make_key(shape_.seed, Domain::kProbe, conn_,
               (std::uint64_t{1} << 46) + first + i,
               f.bytes.data() + i * kKeyBytes);
    }
  }

  [[nodiscard]] std::uint64_t lo() const noexcept { return lo_; }
  [[nodiscard]] std::uint64_t hi() const noexcept { return hi_; }

 private:
  StreamShape shape_;
  std::uint32_t conn_;
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::uint64_t lo_ = 0;
  std::uint64_t hi_;
  std::uint64_t probe_next_ = 0;
  std::uint32_t phase_;
};

}  // namespace perfbench
