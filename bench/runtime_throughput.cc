// Wall-clock throughput of the real threaded runtime — the perf-trajectory
// bench for the persistent parallel execution substrate.
//
// Unlike the fig/table benches (which replay the *analytic* models or the
// event simulator), this binary trains a real nn::SmallModelConfig through
// PipelineTrainer and clocks iterations per second: persistent worker pool,
// intra-op kernel sharding, the vectorized kernel tier and the zero-realloc
// hot path all show up here or not at all. Each configuration is measured
// three times — pooled at the scalar reference tier, then serial
// (intra_op = 0) and pooled at the default kAuto tier — and reports both
// the pool speedup and the kernel-tier speedup; serial and pooled share a
// tier and the kernels' fixed split points keep those two runs bitwise
// identical (DESIGN.md §2 items 17–18), so the pool speedup is pure
// execution, not arithmetic drift. Each leg's resolved helper count is
// printed; when the pooled leg resolves to the serial leg's count (every
// host with no more hardware threads than W·D ranks) the two legs are the
// same configuration, so no pool speedup is reported.
//
//   $ ./bench_runtime_throughput [--json BENCH_runtime_throughput.json]
//       [--small] [--iters N] [--hidden H] [--heads A] [--layers L]
//       [--seq S] [--vocab V] [--micro B]
//
// Defaults are a GPT-2-small-like scaled shape; --small is the CI smoke
// configuration.
#include "bench_common.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/execution_plan.h"
#include "core/sync_placement.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "runtime/trainer.h"
#include "tensor/compute_pool.h"

using namespace chimera;
using namespace chimera::bench;

namespace {

struct BenchConfig {
  int hidden = 192;
  int heads = 8;
  int layers = 8;
  int seq = 64;
  int vocab = 768;
  int micro = 1;  ///< B: samples per micro-batch
  int iters = 3;
  int warmup = 1;
};

nn::MicroBatch make_batch(const nn::SmallModelConfig& cfg, int samples) {
  nn::MicroBatch mb;
  mb.batch = samples;
  mb.seq = cfg.seq;
  Rng rng(7);
  for (int i = 0; i < samples * cfg.seq; ++i) {
    const int t = static_cast<int>(rng.next_below(cfg.vocab));
    mb.tokens.push_back(t);
    mb.targets.push_back((t + 1) % cfg.vocab);
  }
  return mb;
}

/// One measured leg: iterations/s, the final loss, and the intra-op helper
/// count the trainer resolved `intra_op` to on this host.
struct Leg {
  double iters_per_s = 0.0;
  double loss = 0.0;
  int helpers = 0;
};

/// Measures one trainer configuration at the given intra-op and
/// kernel-tier settings.
Leg measure(const nn::SmallModelConfig& model, Scheme scheme,
            const ScheduleConfig& sc, bool recompute, int intra_op,
            KernelPolicy kernel, const BenchConfig& bc) {
  rt::TrainerOptions opts;
  opts.recompute = recompute;
  opts.intra_op = intra_op;
  opts.kernel = kernel;
  rt::PipelineTrainer t(model, scheme, sc, opts);
  Leg leg;
  leg.helpers = ComputePool::instance().helpers();
  const nn::MicroBatch batch = make_batch(model, bc.micro * sc.num_micro);
  for (int i = 0; i < bc.warmup; ++i) t.train_iteration(batch);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < bc.iters; ++i) leg.loss = t.train_iteration(batch).loss;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  leg.iters_per_s = bc.iters / secs;
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv, "runtime_throughput");
  BenchConfig bc;
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (!std::strcmp(argv[i], "--trace")) trace_path = argv[i + 1];
  // --small is a preset applied first, so flag order never matters: any
  // explicit --iters/--hidden/... always wins over it.
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--small")) {
      bc.hidden = 64;
      bc.heads = 4;
      bc.layers = 8;
      bc.seq = 16;
      bc.vocab = 128;
      bc.iters = 2;
    }
  }
  for (int i = 1; i < argc; ++i) {
    auto next = [&](int& field) {
      if (i + 1 < argc) field = std::atoi(argv[++i]);
    };
    if (!std::strcmp(argv[i], "--iters")) next(bc.iters);
    else if (!std::strcmp(argv[i], "--hidden")) next(bc.hidden);
    else if (!std::strcmp(argv[i], "--heads")) next(bc.heads);
    else if (!std::strcmp(argv[i], "--layers")) next(bc.layers);
    else if (!std::strcmp(argv[i], "--seq")) next(bc.seq);
    else if (!std::strcmp(argv[i], "--vocab")) next(bc.vocab);
    else if (!std::strcmp(argv[i], "--micro")) next(bc.micro);
  }

  nn::SmallModelConfig model;
  model.hidden = bc.hidden;
  model.heads = bc.heads;
  model.layers = bc.layers;
  model.seq = bc.seq;
  model.vocab = bc.vocab;

  print_banner("Runtime wall-clock throughput (real training iterations)");
  std::printf("model: hidden=%d layers=%d seq=%d vocab=%d  micro B=%d  "
              "hardware threads=%u\n\n",
              bc.hidden, bc.layers, bc.seq, bc.vocab, bc.micro,
              std::thread::hardware_concurrency());

  std::printf("helpers: intra-op helper threads each leg resolved to "
              "(scalar/serial/pooled); pool x is '-' when serial and pooled "
              "resolve alike\n\n");
  TextTable table({"scheme", "config", "helpers", "scalar it/s",
                   "serial it/s", "pooled it/s", "pool x", "kernel x",
                   "seq/s", "loss"});
  bool determinism_broken = false;
  struct Case {
    Scheme scheme;
    int depth;
    int num_micro;
  };
  const Case cases[] = {
      {Scheme::kChimera, 4, 4},
      {Scheme::kDapple, 4, 8},
      {Scheme::kGPipe, 4, 4},
  };
  for (const Case& c : cases) {
    for (bool recompute : {false, true}) {
      const ScheduleConfig sc{c.depth, c.num_micro, 1, ScaleMethod::kDirect};
      // Three legs: pooled at the scalar reference tier, then serial and
      // pooled at the engine default (kAuto — the fast tier on AVX2 hosts;
      // with CHIMERA_KERNEL_TIER pinned all three share one tier and the
      // kernel speedup reads 1×). Serial vs pooled run the same tier, so
      // their losses must stay bitwise equal.
      const Leg scalar =
          measure(model, c.scheme, sc, recompute, /*intra_op=*/-1,
                  KernelPolicy::kScalarReference, bc);
      const Leg serial = measure(model, c.scheme, sc, recompute,
                                 /*intra_op=*/0, KernelPolicy::kAuto, bc);
      const Leg pooled = measure(model, c.scheme, sc, recompute,
                                 /*intra_op=*/-1, KernelPolicy::kAuto, bc);
      if (serial.loss != pooled.loss) {
        std::fprintf(stderr,
                     "FAIL: pooled loss %.17g != serial loss %.17g "
                     "(determinism contract broken)\n",
                     pooled.loss, serial.loss);
        determinism_broken = true;
      }
      const int samples = bc.micro * c.num_micro;
      // Schedule-level bubble fraction: the dependency-exact replay with
      // the planned partition's per-stage FLOPs as op costs — the paper's
      // compute-only accounting, deterministic on any host.
      PipelineSchedule ps = build_schedule(c.scheme, sc);
      if (ps.synchronous) ps = with_gradient_sync(ps, SyncPolicy::kAtEnd);
      const ExecutionPlan plan(ps);
      const Partition part =
          plan_partition(model.spec(), c.depth, PartitionPolicy::kEven, &ps);
      ReplayCosts costs;
      costs.recompute = recompute;
      costs.forward_by_stage.resize(c.depth);
      costs.backward_by_stage.resize(c.depth);
      for (int s = 0; s < c.depth; ++s) {
        costs.forward_by_stage[s] = part.stage_fwd_flops(s, bc.micro);
        costs.backward_by_stage[s] = 2.0 * costs.forward_by_stage[s];
      }
      const double bubble_fraction = replay(plan, costs).bubble_ratio();
      const std::string name =
          std::string(scheme_name(c.scheme)) + (recompute ? "+R" : "");
      const std::string config = "D=" + std::to_string(c.depth) +
                                 ", N=" + std::to_string(c.num_micro) +
                                 ", B=" + std::to_string(bc.micro);
      // Same helper count on both legs = same configuration: a ratio of
      // the two would be run-to-run noise, not a pool speedup.
      const bool pool_differs = pooled.helpers != serial.helpers;
      const double pool_speedup = pooled.iters_per_s / serial.iters_per_s;
      char helpers[32], pool_x[16], kernel_x[16];
      std::snprintf(helpers, sizeof helpers, "%d/%d/%d", scalar.helpers,
                    serial.helpers, pooled.helpers);
      std::snprintf(pool_x, sizeof pool_x, pool_differs ? "%.2fx" : "-",
                    pool_speedup);
      std::snprintf(kernel_x, sizeof kernel_x, "%.2fx",
                    pooled.iters_per_s / scalar.iters_per_s);
      table.add_row(name, config, helpers, scalar.iters_per_s,
                    serial.iters_per_s, pooled.iters_per_s, pool_x, kernel_x,
                    pooled.iters_per_s * samples, pooled.loss);
      std::vector<std::pair<std::string, double>> extra = {
          {"iters_per_s", pooled.iters_per_s},
          {"serial_iters_per_s", serial.iters_per_s},
          {"scalar_iters_per_s", scalar.iters_per_s},
          {"serial_helpers", static_cast<double>(serial.helpers)},
          {"pooled_helpers", static_cast<double>(pooled.helpers)}};
      if (pool_differs) extra.emplace_back("speedup_vs_serial", pool_speedup);
      extra.insert(extra.end(),
                   {{"kernel_speedup", pooled.iters_per_s / scalar.iters_per_s},
                    {"bubble_fraction", bubble_fraction},
                    {"loss", pooled.loss}});
      json.add(name, config, pooled.iters_per_s * samples,
               1.0 / pooled.iters_per_s, extra);
    }
  }
  table.print();

  // Traced leg (--trace <path>): one Chimera D=4 training run with the span
  // recorder on, exported as a Chrome/Perfetto trace whose otherData block
  // lets trace_report rebuild the schedule, plan and partition. Tracing is
  // scoped to this run so the timed legs above stay uninstrumented.
  if (!trace_path.empty()) {
    rt::TrainerOptions opts;
    const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
    rt::PipelineTrainer t(model, Scheme::kChimera, sc, opts);
    const nn::MicroBatch batch = make_batch(model, bc.micro * sc.num_micro);
    t.train_iteration(batch);  // warm-up outside the trace
    obs::reset();
    obs::set_enabled(true);
    for (int i = 0; i < bc.iters; ++i) t.train_iteration(batch);
    obs::set_enabled(false);
    obs::TraceDoc doc;
    doc.meta.workload = "training";
    doc.meta.scheme = scheme_name(Scheme::kChimera);
    doc.meta.depth = sc.depth;
    doc.meta.num_micro = sc.num_micro;
    doc.meta.pipes_f = sc.pipes_f;
    doc.meta.scale = scale_method_name(sc.scale);
    // The *effective* sync policy: the trainer resolves kNone to kAtEnd on
    // synchronous schedules; async schemes carry no sync ops at all.
    doc.meta.sync = t.schedule().synchronous
                        ? sync_policy_name(opts.sync == SyncPolicy::kNone
                                               ? SyncPolicy::kAtEnd
                                               : opts.sync)
                        : "none";
    doc.meta.recompute = opts.recompute;
    doc.meta.data_parallel = opts.data_parallel;
    doc.meta.micro_batch = bc.micro;
    doc.meta.partition = partition_policy_name(opts.partition);
    doc.meta.hidden = model.hidden;
    doc.meta.heads = model.heads;
    doc.meta.layers = model.layers;
    doc.meta.seq = model.seq;
    doc.meta.vocab = model.vocab;
    doc.meta.causal = model.causal;
    doc.events = obs::collect();
    obs::reset();
    if (!obs::write_trace(trace_path, doc)) return 1;
    const obs::TraceReport rep = obs::analyze_trace(doc);
    std::printf("\nTraced Chimera D=4 training run: %zu events over %d "
                "iteration(s) -> %s (measured bubble ratio %.4f, predicted "
                "%.4f)\n",
                doc.events.size(), rep.iterations, trace_path.c_str(),
                rep.measured_bubble_ratio, rep.predicted_bubble_ratio);
    json.add("Traced training run (Chimera)",
             "D=" + std::to_string(sc.depth) +
                 ", N=" + std::to_string(sc.num_micro) +
                 ", B=" + std::to_string(bc.micro),
             0.0, 0.0,
             {{"bubble_fraction", rep.measured_bubble_ratio},
              {"predicted_bubble_fraction", rep.predicted_bubble_ratio},
              {"trace_events", static_cast<double>(doc.events.size())},
              {"iterations", static_cast<double>(rep.iterations)}});
  }

  ComputePool::instance().set_helpers(0);
  // Nonzero on a pooled-vs-serial mismatch so the CI smoke job enforces
  // the bitwise-parity contract, not just wall-clock collection.
  return determinism_broken ? 1 : 0;
}
