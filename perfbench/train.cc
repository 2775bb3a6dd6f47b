// Training workloads: PipelineTrainer iterations in a closed loop, each
// iteration's wall and process-CPU time taken alone.
//
//   train_chimera   Chimera f=1, D=4, N=4, W=1, at-end sync, GPT-2 shape.
//                   Kernels, stage compute, p2p and bubbles dominate; the
//                   2-replica allreduce is a small share.
//   train_dp_eager  Chimera D=2, W=2, N=4, eager overlapped sync, a
//                   parameter-heavy shape with momentum SGD. Collectives,
//                   grad_sync and the optimizer dominate.
#include <cmath>
#include <memory>

#include "common.h"
#include "core/sync_placement.h"
#include "obs/trace.h"
#include "runtime/trainer.h"

namespace perfbench {
namespace {

using namespace chimera;

struct TrainSpec {
  nn::SmallModelConfig model;
  ScheduleConfig sched;
  rt::TrainerOptions opts;
  int micro_batch = 1;  ///< B
};

/// Tolerance of the pipeline-vs-sequential loss check: the equivalence gap
/// tests/runtime_test.cc states for synchronous schemes.
constexpr double kLossTolerance = 5e-5;
constexpr int kSetupReps = 3;
constexpr int kCheckIters = 3;  ///< warm-up + 2, compared with the reference
constexpr int kBatches = 8;

std::vector<nn::MicroBatch> make_batches(const TrainSpec& s,
                                         std::uint64_t seed) {
  const int samples =
      s.micro_batch * s.sched.num_micro * s.opts.data_parallel;
  Rng rng(seed);
  std::vector<nn::MicroBatch> out(kBatches);
  for (nn::MicroBatch& mb : out) {
    mb.batch = samples;
    mb.seq = s.model.seq;
    for (int i = 0; i < samples * s.model.seq; ++i) {
      const int t = static_cast<int>(rng.next_below(s.model.vocab));
      mb.tokens.push_back(t);
      mb.targets.push_back((t + 1) % s.model.vocab);  // learnable successor
    }
  }
  return out;
}

struct Phase {
  std::vector<double> wall_us, cpu_us;
};

/// Iterates until `seconds` have passed (at least `min_iters`), cycling the
/// batches after the checked ones.
Phase run_phase(rt::PipelineTrainer& t, const std::vector<nn::MicroBatch>& b,
                double seconds, int min_iters, long& next, Report& r) {
  Phase p;
  const double start = wall_us();
  while (static_cast<int>(p.wall_us.size()) < min_iters ||
         wall_us() - start < seconds * 1e6) {
    const nn::MicroBatch& mb =
        b[kCheckIters + next++ % (kBatches - kCheckIters)];
    const double w0 = wall_us(), c0 = cpu_us();
    const double loss = t.train_iteration(mb).loss;
    p.cpu_us.push_back(cpu_us() - c0);
    p.wall_us.push_back(wall_us() - w0);
    r.op(std::isfinite(loss), "non-finite training loss");
  }
  return p;
}

std::vector<double> per_token(const std::vector<double>& v, double tokens) {
  std::vector<double> out;
  for (double x : v) out.push_back(x / tokens);
  return out;
}

void run_training(const Args& a, const TrainSpec& s, Report& r) {
  const std::vector<nn::MicroBatch> batches = make_batches(s, a.seed);
  const double tokens = static_cast<double>(batches[0].batch) * s.model.seq;
  const int micros = s.sched.num_micro * s.opts.data_parallel;

  // Set-up: construction through the warm-up iteration.
  double warm_loss = 0.0;
  std::unique_ptr<rt::PipelineTrainer> t = set_up(
      kSetupReps,
      [&] {
        auto e = std::make_unique<rt::PipelineTrainer>(
            s.model, Scheme::kChimera, s.sched, s.opts);
        warm_loss = e->train_iteration(batches[0]).loss;
        return e;
      },
      r);

  // Correctness, untimed: the first iterations' losses against the
  // single-device SequentialTrainer on the same batches.
  {
    rt::SequentialTrainer ref(s.model, s.opts);
    for (int i = 0; i < kCheckIters; ++i) {
      double got = i == 0 ? warm_loss : t->train_iteration(batches[i]).loss;
      const double want = ref.train_iteration(batches[i], micros).loss;
      if (a.corrupt && i == 1) got += 1e-3;
      r.op(std::isfinite(got) && std::abs(got - want) <= kLossTolerance,
           "iteration " + std::to_string(i) + " loss " + std::to_string(got) +
               " vs sequential " + std::to_string(want));
    }
  }

  long next = 0;
  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  StealMeter steal;
  steal.start();
  const Phase p = run_phase(*t, batches, untraced_s, 3, next, r);
  r.diag("host.steal_share", steal.share(), "share", "timed phase");
  const double cpu_tok = median(per_token(p.cpu_us, tokens));
  std::vector<double> rate;
  for (double w : p.wall_us) rate.push_back(tokens / (w / 1e6));
  const std::string n = count_note(p.wall_us.size()) + " iterations";
  r.e2e("cpu_us_per_token", cpu_tok, "us", n + ", median");
  r.wall(a.trace, "tokens_per_s", median(rate), "tokens/s", n + ", median");
  if (!a.trace) return;

  obs::reset();
  obs::set_ring_capacity(1 << 18);
  obs::set_enabled(true);
  const Phase traced = run_phase(*t, batches, a.seconds / 2, 2, next, r);
  obs::set_enabled(false);
  LayerShape shape;
  shape.model = s.model;
  shape.depth = s.sched.depth;
  shape.num_micro = s.sched.num_micro;
  shape.data_parallel = s.opts.data_parallel;
  shape.sync = s.opts.sync;
  shape.micro_batch = s.micro_batch;
  shape.optimizer = s.opts.optimizer;
  obs::TraceDoc doc;
  doc.meta = trace_meta(shape);
  doc.events = obs::collect();
  obs::reset();
  r.layer("obs.trace_overhead_share",
          median(per_token(traced.cpu_us, tokens)) / cpu_tok - 1.0, "share",
          "traced vs untraced CPU per token");
  t.reset();
  probe_trace(doc, shape, r);
  probe_modules(shape, r);
}

rt::TrainerOptions pinned_options() {
  rt::TrainerOptions o;
  // Fixed thread count and kernel tier: W·D rank threads plus the blocked
  // caller, whatever the host's core count.
  o.intra_op = 0;
  o.kernel = KernelPolicy::kFast;
  return o;
}

}  // namespace

nn::SmallModelConfig gpt2_shape() {
  nn::SmallModelConfig m;
  m.hidden = 192;
  m.heads = 8;
  m.layers = 8;
  m.seq = 64;
  m.vocab = 768;
  return m;
}

void run_train_chimera(const Args& a, Report& r) {
  TrainSpec s;
  s.model = gpt2_shape();
  s.sched = ScheduleConfig{4, 4, 1, ScaleMethod::kDirect};
  s.opts = pinned_options();
  s.opts.sync = SyncPolicy::kAtEnd;
  run_training(a, s, r);
}

void run_train_dp_eager(const Args& a, Report& r) {
  TrainSpec s;
  s.model.hidden = 256;
  s.model.heads = 8;
  s.model.layers = 4;
  s.model.seq = 16;
  s.model.vocab = 256;
  s.sched = ScheduleConfig{2, 4, 1, ScaleMethod::kDirect};
  s.opts = pinned_options();
  s.opts.data_parallel = 2;
  s.opts.sync = SyncPolicy::kEager;
  s.opts.overlap = true;
  s.opts.optimizer.rule = optim::Rule::kMomentum;
  run_training(a, s, r);
}

}  // namespace perfbench
