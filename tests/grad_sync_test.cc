// GradSyncEngine equivalence — the gradient-sync matrix.
//
// The engine's paths reorganize the *same* arithmetic: each stage's
// gradients, reduced in place over one flat view across the replica group,
// applied by an identical elementwise update rule. Blocking and overlapped
// exchanges must therefore give bitwise identical weights for every
// allreduce algorithm, for hybrid data+pipeline parallelism (W = 2) where
// the replica groups span both data-parallel groups and — for Chimera —
// both pipeline directions, and for GEMS at odd depth, where one worker
// hosts two replicas of a stage that combine locally before the collective.
//
// The ring path shards the update across the group (reduce-scatter →
// segment update → allgather); the other algorithms allreduce and step
// every replica. ShardedStep pins that the two are bitwise the same
// arithmetic, at the comm + optim level for every elementwise rule and
// group size. Across allreduce *algorithms* the summation order differs, so
// end-to-end bitwise equality only holds where addition order cannot
// differ: DAPPLE at W = 2 has two-operand groups (commutative, exact), so
// ring (sharded) ≡ naive (replicated) there for every rule; Chimera at
// W = 2 has four-operand groups, so algorithms agree only up to float
// re-association — and every one of them must still match the sequential
// reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "comm/world.h"
#include "optim/optimizer.h"
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

enum class SyncMode { kBlocking, kOverlap };

TrainerOptions options_for(SyncMode mode, comm::AllreduceAlgo algo,
                           optim::Rule rule = optim::Rule::kSgd) {
  TrainerOptions opts;
  opts.data_parallel = kGroups;
  opts.allreduce = algo;
  opts.overlap = mode == SyncMode::kOverlap;
  opts.optimizer.rule = rule;
  if (rule != optim::Rule::kSgd) opts.optimizer.lr = 0.01f;
  return opts;
}

/// Trains 2 iterations and returns the concatenated weights of every stage
/// (group 0, pipe 0).
std::vector<float> train_weights(Scheme scheme, SyncMode mode,
                                 comm::AllreduceAlgo algo, int depth = kDepth,
                                 optim::Rule rule = optim::Rule::kSgd) {
  const nn::SmallModelConfig model = test_model();
  PipelineTrainer t(model, scheme, {depth, kMicros, 1, ScaleMethod::kDirect},
                    options_for(mode, algo, rule));
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

TEST_P(GradSyncSchemes, OnlyTheRingPathShardsOptimizerState) {
  // Ring replicas never step their own Optimizer: the state lives in the
  // ranks' segments. Every other algorithm steps each replica, which then
  // holds one momentum value per parameter value.
  const nn::SmallModelConfig model = test_model();
  for (comm::AllreduceAlgo algo : kAlgos) {
    PipelineTrainer t(model, GetParam(),
                      {kDepth, kMicros, 1, ScaleMethod::kDirect},
                      options_for(SyncMode::kOverlap, algo,
                                  optim::Rule::kMomentum));
    t.train_iteration(make_batch(model, kMicroBatch * kMicros * kGroups, 7150));
    const bool sharded = algo == comm::AllreduceAlgo::kRing;
    for (int g = 0; g < kGroups; ++g)
      for (int p = 0; p < t.schedule().num_pipes; ++p)
        for (int st = 0; st < kDepth; ++st)
          EXPECT_EQ(t.optimizer_state_numel(g, p, st),
                    sharded ? 0u : t.stage_weights(g, p, st).size())
              << comm::allreduce_algo_name(algo) << " group " << g
              << " pipe " << p << " stage " << st;
  }
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
  // algorithms the results are bitwise identical — and since ring shards
  // the update while naive replicates it, this is the end-to-end sharded ≡
  // replicated check, for every elementwise rule.
  for (optim::Rule rule : {optim::Rule::kSgd, optim::Rule::kMomentum,
                           optim::Rule::kAdam, optim::Rule::kAdamW}) {
    const auto ref = train_weights(Scheme::kDapple, SyncMode::kBlocking,
                                   comm::AllreduceAlgo::kNaive, kDepth, rule);
    for (comm::AllreduceAlgo algo : kAlgos)
      EXPECT_EQ(train_weights(Scheme::kDapple, SyncMode::kBlocking, algo,
                              kDepth, rule),
                ref)
          << optim::rule_name(rule) << " " << comm::allreduce_algo_name(algo);
  }
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

TEST(GradSyncGems, OddDepthLocalReplicasBlockingOverlapBitwise) {
  // GEMS at D = 3 hosts stage 1 twice on worker 1 (once per pipe): the two
  // local replicas' gradients add into the first's before the collective
  // and the result (or, on the sharded ring path, the updated weights) is
  // copied back out after it.
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
  for (SyncMode mode : {SyncMode::kBlocking, SyncMode::kOverlap}) {
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

/// Parameters of assorted shapes — a zero-size one included — whose flat
/// views cut every segment of small groups mid-piece.
std::vector<nn::Param> make_params() {
  std::vector<nn::Param> ps;
  for (auto [r, c] : std::vector<std::pair<int, int>>{
           {3, 5}, {1, 1}, {0, 4}, {7, 2}, {1, 9}, {4, 4}})
    ps.emplace_back("p", r, c);
  return ps;
}

comm::FlatView view_of(std::vector<nn::Param>& ps, bool values) {
  comm::FlatView v;
  for (nn::Param& p : ps) {
    Tensor& t = values ? p.value : p.grad;
    v.append(t.data(), t.numel());
  }
  return v;
}

TEST(ShardedStep, BitwiseMatchesRingAllreduceThenReplicatedStep) {
  // One group of g ranks, identical starting weights, per-rank gradients.
  // Replicated: ring allreduce of the gradient view, then Optimizer::step
  // on every rank. Sharded, as GradSyncEngine runs it: reduce-scatter
  // (blocking or nonblocking) handing the rank its segment of the sums,
  // apply_flat over each piece of that segment of the value view with
  // state for the segment only, the new values copied into the segment
  // message, and an allgather forwarding it. Three steps (so momentum and
  // the Adam moments carry over; the last one clipped by a grad scale)
  // must leave every rank's weights bitwise equal under both.
  constexpr int kSteps = 3;
  for (optim::Rule rule : {optim::Rule::kSgd, optim::Rule::kMomentum,
                           optim::Rule::kAdam, optim::Rule::kAdamW}) {
    optim::OptimizerConfig cfg;
    cfg.rule = rule;
    cfg.lr = 0.03f;
    cfg.weight_decay = 0.01f;
    const int slots = optim::state_slots(rule);
    for (int g = 1; g <= 6; ++g) {
      std::vector<int> group(static_cast<std::size_t>(g));
      for (int r = 0; r < g; ++r) group[static_cast<std::size_t>(r)] = r;
      std::vector<std::vector<nn::Param>> repl(g), shard(g);
      Rng rng(4100 + g);
      for (int r = 0; r < g; ++r) {
        repl[r] = make_params();
        shard[r] = make_params();
      }
      for (std::size_t i = 0; i < repl[0].size(); ++i)
        for (std::size_t e = 0; e < repl[0][i].value.numel(); ++e) {
          const float w = static_cast<float>(rng.normal());
          for (int r = 0; r < g; ++r) repl[r][i].value[e] = shard[r][i].value[e] = w;
        }
      comm::World world_r(g), world_s(g);
      std::vector<std::thread> threads;
      for (int r = 0; r < g; ++r) {
        threads.emplace_back([&, r] {
          comm::Communicator cr(world_r, r), cs(world_s, r);
          std::vector<nn::Param*> ptrs;
          for (nn::Param& p : repl[r]) ptrs.push_back(&p);
          optim::Optimizer opt(ptrs, cfg);
          const comm::FlatView grads = view_of(shard[r], false);
          const comm::FlatView values = view_of(shard[r], true);
          const std::size_t n = grads.size();
          const std::size_t lo = comm::segment_begin(n, g, r);
          const std::size_t hi = comm::segment_begin(n, g, r + 1);
          std::vector<std::vector<float>> state(
              static_cast<std::size_t>(slots), std::vector<float>(hi - lo));
          Rng grng(977 + 31 * r + g);
          for (int step = 1; step <= kSteps; ++step) {
            const float scale = step == kSteps ? 0.5f : 1.0f;
            for (std::size_t i = 0; i < repl[r].size(); ++i)
              for (std::size_t e = 0; e < repl[r][i].grad.numel(); ++e)
                repl[r][i].grad[e] = shard[r][i].grad[e] =
                    static_cast<float>(grng.normal());
            cr.allreduce_sum(view_of(repl[r], false), group, 1);
            opt.step(1.0, scale);
            Tensor own;
            if (step % 2 == 0)
              cs.ireduce_scatter_segment(grads, group, 1, &own).wait();
            else
              own = cs.reduce_scatter_segment(grads, group, 1);
            EXPECT_EQ(own.numel(), hi - lo);
            values.for_each_piece(lo, hi, [&](std::size_t k, std::size_t off,
                                              std::size_t at, std::size_t len) {
              float* w = values.piece_data(k) + off;
              optim::apply_flat(cfg, step, 1.0, scale, w, own.data() + at,
                                slots > 0 ? state[0].data() + at : nullptr,
                                slots > 1 ? state[1].data() + at : nullptr,
                                len);
              std::memcpy(own.data() + at, w, len * sizeof(float));
            });
            cs.allgather(values, group, 1, std::move(own));
          }
        });
      }
      for (auto& t : threads) t.join();
      for (int r = 0; r < g; ++r)
        for (std::size_t i = 0; i < repl[r].size(); ++i) {
          const std::size_t n = repl[r][i].value.numel();
          EXPECT_TRUE(n == 0 || std::memcmp(repl[r][i].value.data(),
                                            shard[r][i].value.data(),
                                            n * sizeof(float)) == 0)
              << optim::rule_name(rule) << " g=" << g << " rank " << r
              << " param " << i;
        }
    }
  }
}

}  // namespace
}  // namespace chimera::rt
