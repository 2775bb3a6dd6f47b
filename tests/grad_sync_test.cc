// GradSyncEngine strategy equivalence — the gradient-sync matrix.
//
// The engine's strategies (blocking, eager-overlap, ZeRO-1) reorganize the
// *same* arithmetic: each stage's gradients, reduced in place over one flat
// view across the replica group, applied by an identical update rule. The
// final weights must therefore be bitwise identical across strategies
// (given the same summation order, i.e. the same allreduce algorithm), for
// hybrid data+pipeline parallelism (W = 2) where the replica groups span
// both data-parallel groups and — for Chimera — both pipeline directions,
// and for GEMS at odd depth, where one worker hosts two replicas of a stage
// that combine locally before the collective.
//
// Across allreduce *algorithms* the summation order differs, so bitwise
// equality only holds where addition order cannot differ: DAPPLE at W = 2
// has two-operand groups (commutative, exact); Chimera at W = 2 has
// four-operand groups, so algorithms agree only up to float re-association
// — and every one of them must still match the sequential reference.
#include <gtest/gtest.h>

#include <cmath>

#include "runtime/trainer.h"

namespace chimera::rt {
namespace {

constexpr int kDepth = 4;  // D = 4, N = 4, W = 2 (the satellite matrix)
constexpr int kMicros = 4;
constexpr int kGroups = 2;
constexpr int kMicroBatch = 2;

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
    mb.targets.push_back((t + 1) % cfg.vocab);
  }
  return mb;
}

enum class SyncMode { kBlocking, kOverlap, kZero };

TrainerOptions options_for(SyncMode mode, comm::AllreduceAlgo algo) {
  TrainerOptions opts;
  opts.data_parallel = kGroups;
  opts.allreduce = algo;
  opts.overlap = mode == SyncMode::kOverlap;
  opts.zero_shard = mode == SyncMode::kZero;
  return opts;
}

/// Trains 2 iterations and returns the concatenated weights of every stage
/// (group 0, pipe 0).
std::vector<float> train_weights(Scheme scheme, SyncMode mode,
                                 comm::AllreduceAlgo algo, int depth = kDepth) {
  const nn::SmallModelConfig model = test_model();
  PipelineTrainer t(model, scheme, {depth, kMicros, 1, ScaleMethod::kDirect},
                    options_for(mode, algo));
  const int samples = kMicroBatch * kMicros * kGroups;
  for (int it = 0; it < 2; ++it)
    t.train_iteration(make_batch(model, samples, 7100 + it));
  std::vector<float> out;
  for (int st = 0; st < depth; ++st) {
    const auto w = t.stage_weights(0, 0, st);
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

const comm::AllreduceAlgo kAlgos[] = {
    comm::AllreduceAlgo::kNaive, comm::AllreduceAlgo::kRing,
    comm::AllreduceAlgo::kRecursiveDoubling,
    comm::AllreduceAlgo::kRabenseifner};

class GradSyncSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(GradSyncSchemes, BlockingAndOverlapBitwiseIdenticalForEveryAlgo) {
  for (comm::AllreduceAlgo algo : kAlgos) {
    const auto blocking = train_weights(GetParam(), SyncMode::kBlocking, algo);
    const auto overlap = train_weights(GetParam(), SyncMode::kOverlap, algo);
    EXPECT_EQ(blocking, overlap) << comm::allreduce_algo_name(algo);
  }
}

TEST_P(GradSyncSchemes, ZeroShardingBitwiseMatchesRingPath) {
  // The ZeRO-1 strategy decomposes the ring allreduce into reduce-scatter →
  // shard update → allgather; the trained weights must match the blocking
  // ring path bit for bit.
  const auto ring = train_weights(GetParam(), SyncMode::kBlocking,
                                  comm::AllreduceAlgo::kRing);
  const auto zero = train_weights(GetParam(), SyncMode::kZero,
                                  comm::AllreduceAlgo::kRing);
  EXPECT_EQ(ring, zero);
}

TEST_P(GradSyncSchemes, EveryAlgoMatchesSequentialReference) {
  const nn::SmallModelConfig model = test_model();
  for (comm::AllreduceAlgo algo : kAlgos) {
    PipelineTrainer pipe(model, GetParam(),
                         {kDepth, kMicros, 1, ScaleMethod::kDirect},
                         options_for(SyncMode::kBlocking, algo));
    SequentialTrainer seq(model, options_for(SyncMode::kBlocking, algo));
    const int samples = kMicroBatch * kMicros * kGroups;
    for (int it = 0; it < 2; ++it) {
      const nn::MicroBatch batch = make_batch(model, samples, 7200 + it);
      const IterationResult pr = pipe.train_iteration(batch);
      const IterationResult sr =
          seq.train_iteration(batch, kMicros * kGroups);
      EXPECT_NEAR(pr.loss, sr.loss, 1e-4) << comm::allreduce_algo_name(algo);
    }
    for (int st = 0; st < kDepth; ++st)
      EXPECT_LT(max_abs_diff(pipe.stage_weights(0, 0, st),
                             seq.stage_weights(st, kDepth)),
                5e-5)
          << comm::allreduce_algo_name(algo) << " stage " << st;
  }
}

TEST_P(GradSyncSchemes, ReplicasBitwiseIdenticalAcrossGroupsForEveryAlgo) {
  const nn::SmallModelConfig model = test_model();
  for (comm::AllreduceAlgo algo : kAlgos) {
    PipelineTrainer t(model, GetParam(),
                      {kDepth, kMicros, 1, ScaleMethod::kDirect},
                      options_for(SyncMode::kBlocking, algo));
    const int samples = kMicroBatch * kMicros * kGroups;
    for (int it = 0; it < 2; ++it)
      t.train_iteration(make_batch(model, samples, 7300 + it));
    const int pipes = t.schedule().num_pipes;
    for (int st = 0; st < kDepth; ++st) {
      const auto ref = t.stage_weights(0, 0, st);
      for (int g = 0; g < kGroups; ++g)
        for (int p = 0; p < pipes; ++p)
          EXPECT_EQ(t.stage_weights(g, p, st), ref)
              << comm::allreduce_algo_name(algo) << " group " << g << " pipe "
              << p << " stage " << st;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChimeraAndDapple, GradSyncSchemes,
                         ::testing::Values(Scheme::kChimera, Scheme::kDapple),
                         [](const auto& info) {
                           return std::string(scheme_name(info.param));
                         });

TEST(GradSyncAlgos, DappleTwoOperandGroupsBitwiseAgreeAcrossAlgorithms) {
  // DAPPLE at W = 2 synchronizes over two-operand groups: every algorithm
  // performs the same single commutative addition, so even *across*
  // algorithms the results are bitwise identical.
  const auto ref = train_weights(Scheme::kDapple, SyncMode::kBlocking,
                                 comm::AllreduceAlgo::kNaive);
  for (comm::AllreduceAlgo algo : kAlgos)
    EXPECT_EQ(train_weights(Scheme::kDapple, SyncMode::kBlocking, algo), ref)
        << comm::allreduce_algo_name(algo);
}

TEST(GradSyncAlgos, ChimeraFourOperandGroupsAgreeUpToReassociation) {
  // Chimera at W = 2 has four replicas per stage (2 pipes × 2 groups);
  // algorithms reduce in different association orders, so results agree
  // only within float round-off — but must stay tightly clustered.
  const auto ref = train_weights(Scheme::kChimera, SyncMode::kBlocking,
                                 comm::AllreduceAlgo::kNaive);
  for (comm::AllreduceAlgo algo : kAlgos)
    EXPECT_LT(max_abs_diff(train_weights(Scheme::kChimera, SyncMode::kBlocking,
                                         algo),
                           ref),
              5e-5)
        << comm::allreduce_algo_name(algo);
}

TEST(GradSyncGems, OddDepthLocalReplicasBlockingOverlapZeroBitwise) {
  // GEMS at D = 3 hosts stage 1 twice on worker 1 (once per pipe): the two
  // local replicas' gradients add into the first's before the collective
  // and the result is copied back out after it, in every strategy.
  constexpr int kOdd = 3;
  const nn::SmallModelConfig model = test_model();
  PipelineTrainer t(model, Scheme::kGems, {kOdd, kMicros, 1, ScaleMethod::kDirect},
                    options_for(SyncMode::kBlocking, comm::AllreduceAlgo::kRing));
  ASSERT_EQ(t.schedule().worker_of(0, 1), t.schedule().worker_of(1, 1));
  for (comm::AllreduceAlgo algo : kAlgos) {
    const auto blocking =
        train_weights(Scheme::kGems, SyncMode::kBlocking, algo, kOdd);
    EXPECT_EQ(train_weights(Scheme::kGems, SyncMode::kOverlap, algo, kOdd),
              blocking)
        << comm::allreduce_algo_name(algo);
  }
  EXPECT_EQ(train_weights(Scheme::kGems, SyncMode::kZero,
                          comm::AllreduceAlgo::kRing, kOdd),
            train_weights(Scheme::kGems, SyncMode::kBlocking,
                          comm::AllreduceAlgo::kRing, kOdd));
  for (SyncMode mode : {SyncMode::kBlocking, SyncMode::kOverlap, SyncMode::kZero}) {
    PipelineTrainer run(model, Scheme::kGems,
                        {kOdd, kMicros, 1, ScaleMethod::kDirect},
                        options_for(mode, comm::AllreduceAlgo::kRing));
    const int samples = kMicroBatch * kMicros * kGroups;
    for (int it = 0; it < 2; ++it)
      run.train_iteration(make_batch(model, samples, 7400 + it));
    for (int st = 0; st < kOdd; ++st)
      for (int g = 0; g < kGroups; ++g)
        EXPECT_EQ(run.stage_weights(g, 1, st), run.stage_weights(0, 0, st))
            << "mode " << static_cast<int>(mode) << " group " << g
            << " stage " << st;
  }
}

}  // namespace
}  // namespace chimera::rt
