// Helpers shared by the perfbench workloads: seeded input streams, sample
// statistics, the open-loop arrival schedule, process counters, in-memory
// spans and the metric table printed at the end of a run.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using ascend::half;

inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- Seeded inputs ------------------------------------------------------------

/// splitmix64 finaliser: decorrelates (seed, stream, index) triples.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The generator of input number `index` of stream `stream` under `seed`.
/// Inputs are regenerated from this triple whenever they are needed (to
/// submit and again to verify), so the benchmark never holds copies.
inline ascend::Rng input_rng(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t index) {
  return ascend::Rng(mix(mix(mix(seed) ^ stream) ^ index));
}

/// 0/1 fp16 values: every prefix sum is an exact integer, so cumsum
/// outputs compare bit for bit against the host reference.
inline std::vector<half> bits_f16(ascend::Rng& rng, std::size_t n) {
  std::vector<half> x(n);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 64 == 0) word = rng.next_u64();
    x[i] = half((word >> (i % 64)) & 1 ? 1.0f : 0.0f);
  }
  return x;
}

/// A `vocab`-token distribution whose probabilities are integer multiples
/// of 2^-24 with at most 10 significant bits: every value is exact in fp16
/// and every cumulative sum (total < 1) is exact in fp32, so the device's
/// top-p pipeline and ref::top_p_sample see identical cumulative sums.
inline std::vector<half> exact_probs_f16(ascend::Rng& rng, std::size_t vocab) {
  std::vector<half> p(vocab);
  const double unit = std::ldexp(1.0, -24);
  const std::uint64_t max_count = (1u << 24) / vocab * 2 - 2;  // mean < 2^24/vocab
  for (auto& v : p) {
    std::uint64_t c = 1 + rng.next_below(std::min<std::uint64_t>(max_count, 1023));
    v = half(static_cast<float>(static_cast<double>(c) * unit));
  }
  return p;
}

// --- Sample statistics -------------------------------------------------------------

/// Quantile q in [0, 1] of `v` by linear interpolation between closest
/// ranks (the default of numpy.percentile). 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// --- Open-loop arrivals ------------------------------------------------------------

/// Send offsets (seconds from phase start) of a Poisson process at `rate`
/// per second covering [0, duration_s). A pure function of its arguments.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double duration_s) {
  ascend::Rng rng(mix(seed ^ 0x5ced));
  std::vector<double> t;
  double now = 0;
  for (;;) {
    now += -std::log(1.0 - rng.next_double()) / rate;
    if (now >= duration_s) return t;
    t.push_back(now);
  }
}

// --- Process counters ---------------------------------------------------------------

/// User + system CPU seconds of the whole process.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Spans ---------------------------------------------------------------------------

/// In-memory span recorder of the traced run. Spans are recorded by the
/// benchmark around its calls into the program's layers (name = layer.op)
/// and written out as a Chrome trace when the run ends. Recording is off
/// in untraced runs, where span() costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point begin, end;
    std::uint64_t id = 0;  ///< request / call identifier
  };

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  void enable(Clock::time_point epoch) {
    on_ = true;
    epoch_ = epoch;
  }

  void span(std::string name, Clock::time_point b, Clock::time_point e,
            std::uint64_t id = 0) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), b, e, id});
  }

  /// Durations (seconds) of every span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> d;
    for (const auto& s : spans_) {
      if (s.name == name) d.push_back(secs(s.end - s.begin));
    }
    return d;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Writes every span as a Chrome trace ("X" events, µs). Returns false
  /// when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  Clock::time_point epoch_{};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- Results ---------------------------------------------------------------------------

/// One reported metric: its value (a median where the run repeats the
/// measurement), its unit, and the spread of the samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t n = 1;  ///< samples the value was taken from
  double q1 = 0, q3 = 0;
};

/// Metric whose value is the median of `samples` (quartiles recorded).
inline Metric median_metric(const std::vector<double>& samples, std::string unit) {
  return {median(samples), std::move(unit), samples.size(),
          percentile(samples, 0.25), percentile(samples, 0.75)};
}

/// Metric read from one measurement (or a percentile of a latency sample,
/// whose sample count is given).
inline Metric single_metric(double v, std::string unit, std::size_t n = 1) {
  return {v, std::move(unit), n, v, v};
}

/// Per-run outcome shared by every workload.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< rejected, failed or cancelled
  std::uint64_t mismatches = 0;  ///< outputs that failed verification
  std::vector<std::string> notes;
};

}  // namespace perfbench
