// Shared plumbing of the perfbench binary: clocks, host readings, sample
// statistics, the metric report every workload fills, and the per-layer
// probes (layers.cc) the traced run adds.
//
// Time bases: every wall-clock stamp in the benchmark — due times, engine
// latency stamps (DecodeOptions/ServeOptions::clock) and obs spans — is
// obs::now_us(), so due-time latencies and trace spans share one clock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sync_placement.h"
#include "nn/stage.h"
#include "obs/trace_json.h"
#include "optim/optimizer.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one checked output (a loss, a generated token
  /// or a logit) before the correctness check, which must then reject it.
  bool corrupt = false;
};

// ---- clocks and host readings -------------------------------------------

/// Wall clock in microseconds (obs::now_us: steady, since process start).
double wall_us();
/// Process CPU time (user + sys, all threads) in microseconds.
double cpu_us();
/// Process resident-set high-water mark in MiB.
double peak_rss_mb();

/// Share of all CPU time the hypervisor stole between start() and share(),
/// from the aggregate line of /proc/stat. Diagnostic only.
class StealMeter {
 public:
  void start();
  double share() const;

 private:
  std::vector<unsigned long long> begin_;
};

// ---- sample statistics ---------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) — the convention obs::Histogram
/// uses. Returns 0 for an empty set.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(v, 50.0); }

/// Median microseconds per call of `fn`, each call timed alone, over at
/// least `reps` calls and `min_ms` of calls.
template <typename F>
double median_call_us(F&& fn, int reps, double min_ms = 50.0) {
  std::vector<double> t;
  const double start = wall_us();
  while (static_cast<int>(t.size()) < reps ||
         wall_us() - start < min_ms * 1000.0) {
    const double t0 = wall_us();
    fn();
    t.push_back(wall_us() - t0);
  }
  return median(std::move(t));
}

// ---- the report ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or base, printed in the text block
};

/// What one run measured. `end_to_end` and `layers` hold every metric the
/// workload produced; main() prints them all as text and puts the ones
/// BENCHMARK.json names into the final JSON line.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<Metric> host;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> mismatches;

  void e2e(std::string name, double v, std::string unit,
           std::string note = "") {
    end_to_end.push_back(
        {std::move(name), v, std::move(unit), std::move(note)});
  }
  void layer(std::string name, double v, std::string unit,
             std::string note = "") {
    layers.push_back({std::move(name), v, std::move(unit), std::move(note)});
  }
  /// A wall-clock end-to-end metric. It cannot hold a bound on a host with
  /// CPU steal (README.md, "Steadiness"), so the traced run records it
  /// among the per-layer metrics instead.
  void wall(bool traced, std::string name, double v, std::string unit,
            std::string note) {
    if (traced)
      layer(std::move(name), v, std::move(unit), note + ", untraced phase");
    else
      e2e(std::move(name), v, std::move(unit), std::move(note));
  }
  void diag(std::string name, double v, std::string unit,
            std::string note = "") {
    host.push_back({std::move(name), v, std::move(unit), std::move(note)});
  }
  /// Counts one attempted operation; a false `ok` is a failed operation and
  /// `what` says why.
  void op(bool ok, const std::string& what = "") {
    ++attempted;
    if (!ok) {
      ++failed;
      if (mismatches.size() < 16) mismatches.push_back(what);
    }
  }
};

std::string count_note(std::size_t n);

/// Set-up: `make` constructs an engine and runs its warm-up; it is run
/// `reps` times (each engine destroyed before the next is built) and the
/// last engine is returned. setup_s is the median process CPU time of one
/// set-up; its wall time is reported as a host diagnostic, since on a host
/// with CPU steal it moves with the steal, not with the code.
template <typename Make>
auto set_up(int reps, Make make, Report& r) -> decltype(make()) {
  decltype(make()) engine;
  std::vector<double> cpu_s, wall_s;
  for (int i = 0; i < reps; ++i) {
    engine.reset();
    const double w0 = wall_us(), c0 = cpu_us();
    engine = make();
    cpu_s.push_back((cpu_us() - c0) / 1e6);
    wall_s.push_back((wall_us() - w0) / 1e6);
  }
  const std::string n = "median of " + std::to_string(reps);
  r.e2e("setup_s", median(cpu_s), "s", "process CPU, " + n);
  r.diag("host.setup_wall_s", median(wall_s), "s", n);
  return engine;
}

// ---- workloads -----------------------------------------------------------

void run_train_chimera(const Args& a, Report& r);
void run_train_dp_eager(const Args& a, Report& r);
void run_decode_mixed(const Args& a, Report& r);
void run_serve_score(const Args& a, Report& r);

// ---- per-layer probes (layers.cc) ------------------------------------------

/// Model shape of the GPT-2-proportioned workloads (train_chimera,
/// decode_mixed, serve_score): bench_runtime_throughput's defaults.
chimera::nn::SmallModelConfig gpt2_shape();

/// Decode request mix (decode_mixed): a chat prompt is a short ragged
/// prompt; a doc prompt is the shared system prefix plus a short suffix.
constexpr int kChatPromptMin = 4, kChatPromptMax = 16;
constexpr int kChatNewMin = 24, kChatNewMax = 40;
constexpr int kDocPrefix = 32;
constexpr int kDocSuffixMin = 4, kDocSuffixMax = 12;
constexpr int kDocNewMin = 2, kDocNewMax = 6;

/// The deployment a workload runs, as the per-layer probes need it. The
/// scheme is always Chimera.
struct LayerShape {
  enum class Plan { kTraining, kInference, kDecode };
  Plan plan = Plan::kTraining;
  chimera::nn::SmallModelConfig model;
  int depth = 4;
  int num_micro = 4;     ///< N: micro-batches, serving slots or streams
  int data_parallel = 1;  ///< W
  chimera::SyncPolicy sync = chimera::SyncPolicy::kAtEnd;
  int micro_batch = 1;  ///< B: samples per training micro-batch
  int lanes = 4;        ///< decode/serve rows per stream or slot
  chimera::optim::OptimizerConfig optimizer{};
};

/// Times calls into each module's public functions at the workload's shape:
/// tensor GEMMs, stage forward/backward/infer/prefill/decode_step, p2p and
/// collectives, the optimizer step, an empty WorkerPool dispatch and the
/// schedule → plan build. Single-threaded on the caller (no intra-op
/// helpers), so the numbers are per-core costs.
void probe_modules(const LayerShape& shape, Report& r);

/// Reads a recorded trace through obs::analyze_trace: measured bubble share
/// per rank and, for training traces, the replay prediction plus collective
/// counts, bytes and sync wait per iteration.
void probe_trace(const chimera::obs::TraceDoc& doc, const LayerShape& shape,
                 Report& r);

/// Trace metadata for `shape` (what analyze_trace rebuilds the deployment
/// from).
chimera::obs::TraceMeta trace_meta(const LayerShape& shape);

}  // namespace perfbench
