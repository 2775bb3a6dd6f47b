// End-to-end language-model training with the full feature set: Chimera
// bidirectional pipeline + data parallelism (the paper's hybrid of §3.3),
// Adam with warmup/cosine learning-rate schedule, global gradient-norm
// clipping, overlapped eager gradient synchronization with the optimizer
// step sharded across each stage's replica group, and (optionally) int8
// gradient compression — everything a real pre-training job uses, exercised
// on a character-level corpus small enough for CPU threads.
//
//   $ ./examples/train_lm [--compress]
//
// The corpus is a deterministic synthetic "language" with local structure
// (an order-2 Markov chain over a 64-symbol alphabet), so the model has
// something learnable and the loss curve is meaningful: it must drop well
// below the i.i.d. entropy bound.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "runtime/trainer.h"

using namespace chimera;

namespace {

/// Order-2 Markov corpus: every symbol depends on the previous two. The
/// conditional entropy is far below log2(vocab), so a context model (the
/// Transformer) can beat any unigram predictor.
struct MarkovCorpus {
  int vocab;
  std::vector<int> data;

  MarkovCorpus(int vocab_, int length, std::uint64_t seed) : vocab(vocab_) {
    Rng rng(seed);
    // A random but fixed transition rule: next = f(prev2, prev1) + small noise.
    data.reserve(length);
    int a = 1, b = 2;
    for (int i = 0; i < length; ++i) {
      int next = static_cast<int>((a * 31 + b * 17) % vocab);
      if (rng.next_double() < 0.15)  // 15% noise keeps the task stochastic
        next = static_cast<int>(rng.next_below(vocab));
      data.push_back(next);
      a = b;
      b = next;
    }
  }

  /// One mini-batch of `samples` windows of `seq` tokens with next-token
  /// targets, drawn at deterministic positions.
  nn::MicroBatch batch(int samples, int seq, std::uint64_t step) const {
    nn::MicroBatch mb;
    mb.batch = samples;
    mb.seq = seq;
    Rng rng(0xba7c0000ull ^ step);
    for (int s = 0; s < samples; ++s) {
      const std::size_t pos =
          rng.next_below(data.size() - static_cast<std::size_t>(seq) - 1);
      for (int t = 0; t < seq; ++t) {
        mb.tokens.push_back(data[pos + t]);
        mb.targets.push_back(data[pos + t + 1]);
      }
    }
    return mb;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool compress = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--compress") == 0) compress = true;

  // Model: 8 transformer blocks over D=4 stages, W=2 data-parallel groups —
  // the paper's hybrid parallelism (Fig. 5) on 8 worker threads.
  nn::SmallModelConfig model;
  model.vocab = 64;
  model.hidden = 64;
  model.heads = 4;
  model.layers = 8;
  model.seq = 24;
  model.seed = 11;

  const ScheduleConfig sched{/*depth=*/4, /*num_micro=*/4, /*pipes_f=*/1,
                             ScaleMethod::kDirect};
  rt::TrainerOptions opts;
  opts.data_parallel = 2;
  opts.optimizer.rule = optim::Rule::kAdam;
  opts.optimizer.lr = 3e-3f;
  opts.optimizer.clip_norm = 1.0f;
  opts.lr_schedule = {optim::ScheduleKind::kWarmupCosine, /*warmup=*/8,
                      /*total=*/60, /*min_ratio=*/0.1};
  opts.sync = SyncPolicy::kEagerOpt;
  if (compress) {
    opts.compression = comm::GradCompression::kInt8;
    opts.optimizer.clip_norm = 0.0f;  // compression is lossy; keep it simple
  }

  std::printf("train_lm: Chimera D=%d, W=%d, Adam + warmup/cosine, clip=%.1f, %s\n",
              sched.depth, opts.data_parallel, opts.optimizer.clip_norm,
              compress ? "int8 gradient compression, replicated optimizer"
                       : "sharded optimizer");

  MarkovCorpus corpus(model.vocab, 200000, /*seed=*/5);
  rt::PipelineTrainer trainer(model, Scheme::kChimera, sched, opts);

  const int samples = 2 * sched.num_micro * opts.data_parallel;  // B=2
  const double uniform_bound = std::log(static_cast<double>(model.vocab));
  std::printf("uniform-guess loss bound: %.4f\n", uniform_bound);
  std::printf("%6s %10s\n", "iter", "loss");
  double last = 0.0;
  for (int it = 0; it < 60; ++it) {
    const auto r = trainer.train_iteration(corpus.batch(samples, model.seq, it));
    last = r.loss;
    if (it % 5 == 0 || it == 59) std::printf("%6d %10.4f\n", it, r.loss);
  }
  std::printf("\nfinal loss %.4f %s the uniform bound %.4f\n", last,
              last < uniform_bound ? "— beats" : "— did NOT beat", uniform_bound);
  return last < uniform_bound ? 0 : 1;
}
