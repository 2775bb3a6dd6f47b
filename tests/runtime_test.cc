// Runtime equivalence tests — the semantic heart of the reproduction.
//
// Every synchronous pipeline scheme (Chimera in all its variants, GPipe,
// DAPPLE, GEMS) must produce the same weights as plain sequential mini-batch
// SGD on the same micro-batch partition: the paper's "no loss of accuracy /
// convergence friendly" claim is an *exact* algorithmic equivalence, which
// we verify on real tensors through the threaded message-passing runtime.
// The asynchronous schemes are verified against their documented staleness
// semantics instead.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "runtime/decode.h"
#include "runtime/deployment.h"
#include "runtime/serving.h"
#include "runtime/trainer.h"

namespace chimera::rt {
namespace {

nn::SmallModelConfig test_model() {
  nn::SmallModelConfig cfg;
  cfg.vocab = 23;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 4;
  cfg.seq = 6;
  cfg.seed = 2024;
  return cfg;
}

nn::MicroBatch make_batch(const nn::SmallModelConfig& cfg, int samples,
                          std::uint64_t seed) {
  nn::MicroBatch mb;
  mb.batch = samples;
  mb.seq = cfg.seq;
  Rng rng(seed);
  for (int i = 0; i < samples * cfg.seq; ++i) {
    const int t = static_cast<int>(rng.next_below(cfg.vocab));
    mb.tokens.push_back(t);
    mb.targets.push_back((t + 1) % cfg.vocab);  // learnable successor task
  }
  return mb;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

/// Runs `iters` iterations of the pipeline and the sequential reference and
/// returns the max weight deviation over all stages (pipe 0 replicas).
double equivalence_gap(Scheme scheme, const ScheduleConfig& sc,
                       const TrainerOptions& opts, int B, int iters) {
  const nn::SmallModelConfig model = test_model();
  PipelineTrainer pipe(model, scheme, sc, opts);
  SequentialTrainer seq(model, opts);
  const int samples = B * sc.num_micro * opts.data_parallel;
  double gap = 0.0;
  for (int it = 0; it < iters; ++it) {
    const nn::MicroBatch batch = make_batch(model, samples, 100 + it);
    const IterationResult pr = pipe.train_iteration(batch);
    const IterationResult sr =
        seq.train_iteration(batch, sc.num_micro * opts.data_parallel);
    EXPECT_NEAR(pr.loss, sr.loss, 1e-4) << scheme_name(scheme) << " iter " << it;
  }
  for (int st = 0; st < sc.depth; ++st)
    gap = std::max(gap, max_abs_diff(pipe.stage_weights(0, 0, st),
                                     seq.stage_weights(st, sc.depth)));
  return gap;
}

// ---- synchronous schemes == sequential SGD ------------------------------

TEST(Equivalence, ChimeraMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, /*B=*/2, /*iters=*/3),
            5e-5);
}

TEST(Equivalence, ChimeraWithMomentumMatchesSequentialSgd) {
  TrainerOptions opts;
  opts.optimizer.rule = optim::Rule::kMomentum;
  opts.optimizer.momentum = 0.9f;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 3),
            5e-5);
}

TEST(Equivalence, ChimeraFourPipesMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 8, 2, ScaleMethod::kDirect},
                            opts, 2, 2),
            5e-5);
}

TEST(Equivalence, ChimeraDirectConcatenationMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 8, 1, ScaleMethod::kDirect},
                            opts, 2, 2),
            5e-5);
}

TEST(Equivalence, ChimeraForwardDoublingMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kChimera,
                            {4, 8, 1, ScaleMethod::kForwardDoubling}, opts, 2, 2),
            5e-5);
}

TEST(Equivalence, ChimeraBackwardHalvingMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kChimera,
                            {4, 8, 1, ScaleMethod::kBackwardHalving}, opts, 2, 2),
            5e-5);
}

TEST(Equivalence, ForwardDoublingWithRecomputationMatches) {
  TrainerOptions opts;
  opts.recompute = true;  // the paper pairs doubling with recomputation
  EXPECT_LT(equivalence_gap(Scheme::kChimera,
                            {4, 8, 1, ScaleMethod::kForwardDoubling}, opts, 2, 2),
            5e-5);
}

TEST(Equivalence, ScaleMethodsBitwiseIdenticalAtTwoUnits) {
  // §3.5: at N = 2D the three ways of concatenating basic scheduling units
  // — direct, forward doubling, backward halving — reorder *whole-row*
  // work only: every kernel accumulates gradients row-sequentially, so the
  // final weights must agree bit for bit, not just within tolerance.
  const nn::SmallModelConfig model = test_model();
  std::vector<std::vector<std::vector<float>>> weights;  // [method][stage]
  for (ScaleMethod scale : {ScaleMethod::kDirect, ScaleMethod::kForwardDoubling,
                            ScaleMethod::kBackwardHalving}) {
    TrainerOptions opts;
    opts.optimizer.rule = optim::Rule::kMomentum;
    opts.optimizer.momentum = 0.9f;
    PipelineTrainer t(model, Scheme::kChimera, {4, 8, 1, scale}, opts);
    for (int it = 0; it < 2; ++it)
      t.train_iteration(make_batch(model, 16, 1200 + it));  // B = 2
    std::vector<std::vector<float>> per_stage;
    for (int st = 0; st < 4; ++st)
      per_stage.push_back(t.stage_weights(0, 0, st));
    weights.push_back(std::move(per_stage));
  }
  for (int st = 0; st < 4; ++st) {
    EXPECT_EQ(weights[0][st], weights[1][st])
        << "forward doubling differs from direct at stage " << st;
    EXPECT_EQ(weights[0][st], weights[2][st])
        << "backward halving differs from direct at stage " << st;
  }
}

TEST(Equivalence, GpipeMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kGPipe, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 3),
            5e-5);
}

TEST(Equivalence, DappleMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kDapple, {4, 8, 1, ScaleMethod::kDirect},
                            opts, 2, 3),
            5e-5);
}

TEST(Equivalence, GemsMatchesSequentialSgd) {
  TrainerOptions opts;
  EXPECT_LT(equivalence_gap(Scheme::kGems, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 3),
            5e-5);
}

TEST(Equivalence, HybridDataParallelChimeraMatchesSequentialSgd) {
  TrainerOptions opts;
  opts.data_parallel = 2;  // W=2, D=4: 8 ranks, Fig. 5 configuration
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 2),
            5e-5);
}

TEST(Equivalence, ChimeraWithAdamMatchesSequential) {
  TrainerOptions opts;
  opts.optimizer.rule = optim::Rule::kAdam;
  opts.optimizer.lr = 0.01f;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 3),
            5e-5);
}

TEST(Equivalence, ChimeraWithLambMatchesSequential) {
  TrainerOptions opts;
  opts.optimizer.rule = optim::Rule::kLamb;
  opts.optimizer.lr = 0.005f;
  opts.optimizer.weight_decay = 0.01f;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 2),
            5e-5);
}

TEST(Equivalence, GlobalNormClippingMatchesSequential) {
  // The clip threshold is set low enough to engage on every iteration; the
  // pipeline computes the global norm via a world-wide allreduce of
  // per-replica partial norms, the reference computes it directly.
  TrainerOptions opts;
  opts.optimizer.clip_norm = 0.05f;
  opts.optimizer.lr = 0.2f;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 3),
            5e-5);
}

TEST(Equivalence, LrScheduleAppliesIdentically) {
  TrainerOptions opts;
  opts.lr_schedule = {optim::ScheduleKind::kWarmupLinear, 2, 6, 0.1};
  opts.optimizer.lr = 0.3f;  // large base rate: schedule errors would show
  EXPECT_LT(equivalence_gap(Scheme::kDapple, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 4),
            5e-5);
}

TEST(Equivalence, BlockingAndOverlappedSyncBitwiseIdentical) {
  const nn::SmallModelConfig model = test_model();
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
  std::vector<std::vector<float>> results;
  for (bool overlap : {false, true}) {
    TrainerOptions opts;
    opts.overlap = overlap;
    opts.sync = SyncPolicy::kEagerOpt;
    PipelineTrainer t(model, Scheme::kChimera, sc, opts);
    for (int it = 0; it < 2; ++it)
      t.train_iteration(make_batch(model, 8, 950 + it));
    results.push_back(t.stage_weights(0, 0, 2));
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(Equivalence, ZeroShardingBitwiseMatchesRingAllreduce) {
  // ZeRO-1 (reduce-scatter → shard update → allgather) decomposes exactly
  // the arithmetic of the ring allreduce followed by a replicated update, so
  // the trained weights must match bit for bit.
  const nn::SmallModelConfig model = test_model();
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
  std::vector<std::vector<float>> results;
  for (bool zero : {false, true}) {
    TrainerOptions opts;
    opts.zero_shard = zero;
    opts.optimizer.rule = optim::Rule::kAdam;
    opts.optimizer.lr = 0.01f;
    opts.allreduce = comm::AllreduceAlgo::kRing;
    PipelineTrainer t(model, Scheme::kChimera, sc, opts);
    for (int it = 0; it < 3; ++it)
      t.train_iteration(make_batch(model, 8, 960 + it));
    results.push_back(t.stage_weights(0, 0, 1));
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(Equivalence, ZeroShardingMatchesSequential) {
  TrainerOptions opts;
  opts.zero_shard = true;
  opts.optimizer.rule = optim::Rule::kMomentum;
  opts.optimizer.momentum = 0.9f;
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 3),
            5e-5);
}

TEST(Equivalence, ZeroShardingWithHybridDataParallelMatchesSequential) {
  TrainerOptions opts;
  opts.zero_shard = true;
  opts.data_parallel = 2;  // shard group spans 2·num_pipes ranks
  EXPECT_LT(equivalence_gap(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                            opts, 2, 2),
            5e-5);
}

TEST(ReplicaConsistency, CompressedGradientsKeepReplicasIdentical) {
  // Compression is lossy but must stay *consistent*: every rank decodes the
  // same byte stream, so all replicas of a stage keep identical weights.
  for (comm::GradCompression c :
       {comm::GradCompression::kInt8, comm::GradCompression::kTopK}) {
    const nn::SmallModelConfig model = test_model();
    TrainerOptions opts;
    opts.compression = c;
    opts.topk_fraction = 0.05;
    opts.data_parallel = 2;
    PipelineTrainer t(model, Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                      opts);
    for (int it = 0; it < 2; ++it)
      t.train_iteration(make_batch(model, 16, 970 + it));
    for (int st = 0; st < 4; ++st) {
      const auto ref = t.stage_weights(0, 0, st);
      for (int g = 0; g < 2; ++g)
        for (int p = 0; p < 2; ++p)
          EXPECT_EQ(t.stage_weights(g, p, st), ref)
              << compression_name(c) << " group " << g << " pipe " << p
              << " stage " << st;
    }
  }
}

TEST(Training, LossDecreasesUnderGradientCompression) {
  const nn::SmallModelConfig model = test_model();
  for (comm::GradCompression c :
       {comm::GradCompression::kInt8, comm::GradCompression::kInt4,
        comm::GradCompression::kTopK}) {
    TrainerOptions opts;
    opts.compression = c;
    opts.topk_fraction = 0.1;
    opts.optimizer.lr = 0.15f;
    PipelineTrainer t(model, Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect},
                      opts);
    const nn::MicroBatch batch = make_batch(model, 8, 985);
    const double first = t.train_iteration(batch).loss;
    double last = first;
    for (int it = 0; it < 6; ++it) last = t.train_iteration(batch).loss;
    EXPECT_LT(last, first - 0.03) << compression_name(c);
  }
}

TEST(Equivalence, EagerSyncPlacementDoesNotChangeResults) {
  // eager-sync / eager-sync-opt reorder the collective launches only; the
  // trained weights must be identical to at-end placement.
  const nn::SmallModelConfig model = test_model();
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
  std::vector<std::vector<float>> results;
  for (SyncPolicy p : {SyncPolicy::kAtEnd, SyncPolicy::kEager, SyncPolicy::kEagerOpt}) {
    TrainerOptions opts;
    opts.sync = p;
    PipelineTrainer t(model, Scheme::kChimera, sc, opts);
    for (int it = 0; it < 2; ++it)
      t.train_iteration(make_batch(model, 8, 300 + it));
    results.push_back(t.stage_weights(0, 0, 1));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Equivalence, AllreduceAlgorithmDoesNotChangeResults) {
  const nn::SmallModelConfig model = test_model();
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
  std::vector<std::vector<float>> results;
  for (comm::AllreduceAlgo algo :
       {comm::AllreduceAlgo::kNaive, comm::AllreduceAlgo::kRabenseifner}) {
    TrainerOptions opts;
    opts.allreduce = algo;
    PipelineTrainer t(model, Scheme::kChimera, sc, opts);
    for (int it = 0; it < 2; ++it)
      t.train_iteration(make_batch(model, 8, 400 + it));
    results.push_back(t.stage_weights(0, 0, 2));
  }
  // Group size is 2, so both algorithms sum the same two operands: exact.
  EXPECT_EQ(results[0], results[1]);
}

// ---- replica consistency -------------------------------------------------

TEST(ReplicaConsistency, AllStageReplicasIdenticalAfterTraining) {
  const nn::SmallModelConfig model = test_model();
  TrainerOptions opts;
  opts.data_parallel = 2;
  PipelineTrainer t(model, Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect}, opts);
  for (int it = 0; it < 2; ++it)
    t.train_iteration(make_batch(model, 16, 500 + it));
  for (int st = 0; st < 4; ++st) {
    const auto ref = t.stage_weights(0, 0, st);
    for (int g = 0; g < 2; ++g)
      for (int p = 0; p < 2; ++p)
        EXPECT_EQ(t.stage_weights(g, p, st), ref)
            << "group " << g << " pipe " << p << " stage " << st;
  }
}

// ---- training makes progress --------------------------------------------

TEST(Training, LossDecreasesForEverySynchronousScheme) {
  const nn::SmallModelConfig model = test_model();
  for (Scheme scheme :
       {Scheme::kChimera, Scheme::kGPipe, Scheme::kDapple, Scheme::kGems}) {
    TrainerOptions opts;
    opts.optimizer.lr = 0.15f;
    PipelineTrainer t(model, scheme, {4, 4, 1, ScaleMethod::kDirect}, opts);
    const nn::MicroBatch batch = make_batch(model, 8, 42);  // fixed batch
    const double first = t.train_iteration(batch).loss;
    double last = first;
    for (int it = 0; it < 6; ++it) last = t.train_iteration(batch).loss;
    EXPECT_LT(last, first - 0.05) << scheme_name(scheme);
  }
}

// ---- asynchronous schemes ------------------------------------------------

TEST(PipeDream, WeightVersionCountStaysWithinPaperBound) {
  const nn::SmallModelConfig model = test_model();
  TrainerOptions opts;
  PipelineTrainer t(model, Scheme::kPipeDream, {4, 8, 1, ScaleMethod::kDirect}, opts);
  t.train_iteration(make_batch(model, 16, 600));
  // All stashes drained at the iteration boundary; live version only.
  for (int st = 0; st < 4; ++st) EXPECT_EQ(t.weight_versions(0, 0, st), 1);
}

TEST(PipeDream, LossDecreasesDespiteStaleness) {
  const nn::SmallModelConfig model = test_model();
  TrainerOptions opts;
  opts.optimizer.lr = 0.1f;
  PipelineTrainer t(model, Scheme::kPipeDream, {4, 4, 1, ScaleMethod::kDirect}, opts);
  const nn::MicroBatch batch = make_batch(model, 8, 700);
  const double first = t.train_iteration(batch).loss;
  double last = first;
  for (int it = 0; it < 6; ++it) last = t.train_iteration(batch).loss;
  EXPECT_LT(last, first - 0.05);
}

TEST(PipeDream, DivergesFromSynchronousSgdWithinOneIteration) {
  // PipeDream's per-micro-batch updates are *not* mini-batch SGD: later
  // micro-batches see newer weights. The deviation is the staleness the
  // paper's "convergence friendly" column is about.
  const nn::SmallModelConfig model = test_model();
  TrainerOptions opts;
  PipelineTrainer pd(model, Scheme::kPipeDream, {4, 4, 1, ScaleMethod::kDirect}, opts);
  SequentialTrainer seq(model, opts);
  const nn::MicroBatch batch = make_batch(model, 8, 800);
  pd.train_iteration(batch);
  seq.train_iteration(batch, 4);
  EXPECT_GT(max_abs_diff(pd.stage_weights(0, 0, 0), seq.stage_weights(0, 4)),
            1e-6);
}

TEST(PipeDream2BW, FirstIterationMatchesSynchronousSecondIsStale) {
  const nn::SmallModelConfig model = test_model();
  TrainerOptions opts;
  PipelineTrainer bw(model, Scheme::kPipeDream2BW, {4, 8, 1, ScaleMethod::kDirect}, opts);
  SequentialTrainer seq(model, opts);
  const nn::MicroBatch b0 = make_batch(model, 16, 900);
  const nn::MicroBatch b1 = make_batch(model, 16, 901);

  // Iteration 0: gradient at w0 applied to w0 — same as synchronous.
  const IterationResult r0 = bw.train_iteration(b0);
  const IterationResult s0 = seq.train_iteration(b0, 8);
  EXPECT_NEAR(r0.loss, s0.loss, 1e-4);

  // Iteration 1 computes on the stale w0, not on w1: its loss equals the
  // sequential loss of batch 1 evaluated at w0 (i.e. a fresh model), not at
  // w1.
  SequentialTrainer at_w0(model, opts);
  const IterationResult stale_ref = at_w0.train_iteration(b1, 8);
  const IterationResult r1 = bw.train_iteration(b1);
  EXPECT_NEAR(r1.loss, stale_ref.loss, 1e-4);
  EXPECT_GT(std::abs(r1.loss - seq.train_iteration(b1, 8).loss), 1e-6);
}

// ---- hosting layer and option validation ---------------------------------

/// What the lookup test hosts: the factory's arguments, recorded.
struct ProbeUnit {
  int rank;
  int pipe;
  int stage;
  StageRange layers;
};

TEST(Deployment, UnitLookupResolvesEveryHostedStageAndRejectsTheRest) {
  struct Case {
    const char* name;
    Scheme scheme;
    ScheduleConfig sc;
  };
  const Case cases[] = {
      {"Chimera f=1", Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect}},
      {"Chimera f=2", Scheme::kChimera, {4, 4, 2, ScaleMethod::kDirect}},
      // Odd depth: GEMS hosts the middle stage twice on one worker.
      {"GEMS D=3", Scheme::kGems, {3, 2, 1, ScaleMethod::kDirect}},
      {"GPipe", Scheme::kGPipe, {4, 4, 1, ScaleMethod::kDirect}},
  };
  const int W = 2;
  EngineOptions opts;
  opts.intra_op = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const PipelineSchedule sched = build_schedule(c.scheme, c.sc);
    const int D = sched.depth;
    const Partition part = plan_even(test_model().spec(), D);
    Deployment<ProbeUnit> dep(
        sched, part, W, opts,
        [](int rank, int pipe, int stage, StageRange layers) {
          return ProbeUnit{rank, pipe, stage, layers};
        });
    ASSERT_EQ(dep.ranks(), W * D);
    for (int g = 0; g < W; ++g) {
      for (int w = 0; w < D; ++w) {
        const int rank = g * D + w;
        const auto hosted = sched.hosted_stages(w);
        EXPECT_EQ(dep.units(rank).size(), hosted.size());
        const std::set<std::pair<int, int>> mine(hosted.begin(),
                                                 hosted.end());
        for (int pipe = 0; pipe < sched.num_pipes; ++pipe) {
          for (int stage = 0; stage < D; ++stage) {
            if (!mine.count({pipe, stage})) {
              EXPECT_THROW(dep.unit(rank, pipe, stage), CheckError)
                  << "rank " << rank << " pipe " << pipe << " stage "
                  << stage;
              continue;
            }
            const ProbeUnit& u = dep.unit(rank, pipe, stage);
            EXPECT_EQ(u.rank, rank);
            EXPECT_EQ(u.pipe, pipe);
            EXPECT_EQ(u.stage, stage);
            EXPECT_EQ(u.layers, part.range(stage));
          }
        }
        EXPECT_THROW(dep.unit(rank, sched.num_pipes, 0), CheckError);
        EXPECT_THROW(dep.unit(rank, 0, D), CheckError);
      }
    }
  }
}

/// Expects `construct` to throw a CheckError whose message names `field`.
template <class Fn>
void expect_rejected(Fn construct, const std::string& field) {
  EXPECT_THROW(
      {
        try {
          construct();
        } catch (const CheckError& e) {
          EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
              << e.what();
          throw;
        }
      },
      CheckError);
}

TEST(Options, RejectsNonPositiveDataParallelAndIntraOpBelowAuto) {
  const nn::SmallModelConfig model = test_model();
  const ScheduleConfig sc{2, 2, 1, ScaleMethod::kDirect};
  for (int dp : {0, -1}) {
    TrainerOptions opts;
    opts.data_parallel = dp;
    expect_rejected(
        [&] { PipelineTrainer t(model, Scheme::kChimera, sc, opts); },
        "data_parallel");
  }
  // −1 means auto; anything below it used to be silently treated as auto.
  TrainerOptions topts;
  topts.intra_op = -7;
  expect_rejected(
      [&] { PipelineTrainer t(model, Scheme::kChimera, sc, topts); },
      "intra_op");
  ServeOptions sopts;
  sopts.intra_op = -7;
  expect_rejected([&] { ServingEngine e(model, Scheme::kChimera, sc, sopts); },
                  "intra_op");
  DecodeOptions dopts;
  dopts.kv_page_size = 2;
  dopts.intra_op = -7;
  expect_rejected([&] { DecodeEngine e(model, Scheme::kChimera, sc, dopts); },
                  "intra_op");
}

}  // namespace
}  // namespace chimera::rt
