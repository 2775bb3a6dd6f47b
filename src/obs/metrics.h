// Shared metrics primitives: the latency reservoir + nearest-rank
// percentile logic of DecodeStats and ServingStats, plus a small registry
// that gives every engine one emission path into the BENCH_*.json records
// (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace chimera::obs {

/// Nearest-rank percentile of a sample set (p in [0, 100]): the smallest
/// value with at least p% of samples ≤ it — p99 of a 64-sample set is the
/// maximum, not the 62nd sample. Returns 0 when empty.
long percentile_nearest_rank(const std::vector<long>& samples, double p);

/// Bounded most-recent reservoir: keeps up to `max_samples` samples,
/// overwriting ring-style past the bound so long-running engines never grow
/// without limit. The retained set is the most recent max_samples adds.
class Histogram {
 public:
  static constexpr std::size_t kDefaultMaxSamples = std::size_t{1} << 16;

  explicit Histogram(std::size_t max_samples = kDefaultMaxSamples)
      : max_samples_(max_samples == 0 ? 1 : max_samples) {}

  void add(long sample);

  /// Samples ever added (retained or overwritten).
  long count() const { return count_; }
  /// Retained samples (≤ max_samples).
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  std::size_t max_samples() const { return max_samples_; }

  /// Nearest-rank percentile of the retained samples.
  long percentile(double p) const {
    return percentile_nearest_rank(samples_, p);
  }
  /// Mean of the retained samples (0 when empty).
  double mean() const;
  long min() const;
  long max() const;

  /// Retained samples in ring order (not insertion order once wrapped) —
  /// order-insensitive consumers only (percentiles, sums).
  const std::vector<long>& samples() const { return samples_; }

 private:
  std::size_t max_samples_;
  std::size_t cursor_ = 0;  ///< overwrite position once full
  long count_ = 0;
  std::vector<long> samples_;
};

/// Named counters, gauges and histograms with a deterministic flattened
/// view. Counters and gauges differ only in intent (monotonic totals vs
/// point-in-time readings); both flatten to one (name, value) pair, while a
/// histogram flattens to <name>_count / _mean / _p50 / _p99. Not
/// thread-safe: engines build one under their stats lock.
class MetricsRegistry {
 public:
  void set_counter(const std::string& name, double value) {
    counters_[name] = value;
  }
  void add_counter(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  Histogram& histogram(const std::string& name,
                       std::size_t max_samples = Histogram::kDefaultMaxSamples);
  /// Records an existing histogram (engine reservoirs) under `name`.
  void set_histogram(const std::string& name, const Histogram& h);

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }

  /// Every metric as (name, value) pairs, sorted by name — the shape
  /// bench::JsonReporter::add takes as `extra`, so one registry feeds every
  /// BENCH_*.json record identically.
  std::vector<std::pair<std::string, double>> flatten() const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace chimera::obs
