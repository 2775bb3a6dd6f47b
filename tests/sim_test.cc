// Simulator and performance-model tests: the costed plan executor with and
// without a contended network, memory-model patterns from the paper,
// eager-sync placement effects, and the model-vs-simulation error bound of
// Fig. 13.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "core/execution_plan.h"
#include "core/perf_model.h"
#include "core/schedule_analysis.h"
#include "sim/simulate.h"

namespace chimera {
namespace {

/// Per-stage forward ft and backward ft·bf on a contended network whose
/// links cost nothing: only collectives contend.
ReplayCosts uniform_costs(int depth, double ft, double bf) {
  ReplayCosts c;
  c.forward_by_stage.assign(depth, ft);
  c.backward_by_stage.assign(depth, ft * bf);
  c.network = ReplayCosts::Network{};
  return c;
}

/// FNV-1a over the bit patterns of the doubles fed to it.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(double x) {
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    for (int k = 0; k < 8; ++k) {
      h ^= (b >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(const ReplayResult& r) {
    for (const auto& worker : r.times)
      for (const OpTiming& t : worker) {
        add(t.start);
        add(t.end);
      }
    add(r.makespan);
    add(r.compute_makespan);
    for (double b : r.busy) add(b);
  }
};

std::vector<double> uneven_forward(int D) {
  std::vector<double> f(D);
  for (int st = 0; st < D; ++st) f[st] = 0.37 + 0.11 * ((3 * st) % D);
  return f;
}

std::vector<double> uneven_allreduce(int D) {
  std::vector<double> a(D);
  for (int st = 0; st < D; ++st) a[st] = 0.9 + 0.05 * st;
  return a;
}

TEST(PlanExecutor, SweepBitsMatchGolden) {
  // Every op's start and end, the makespans and the busy times, hashed over
  // Chimera f∈{1,2} × 3 scale methods, GPipe, DAPPLE, GEMS and 1F1B at
  // D∈{2,4,8}, N∈{D,2D} under every sync policy. The uncontended family
  // pins the analytic replay's bits; the contended families pin the
  // simulator's (serializing links, a node hierarchy, collectives queueing
  // on shared ports, §3.5 method costs, ties). The golden values were
  // produced by the two separate executors this one replaced. Jitter is
  // left out: Rng::normal goes through libm.
  struct Variant {
    Scheme scheme;
    int f;
    ScaleMethod scale;
  };
  std::vector<Variant> variants;
  for (int f : {1, 2})
    for (ScaleMethod m : {ScaleMethod::kDirect, ScaleMethod::kForwardDoubling,
                          ScaleMethod::kBackwardHalving})
      variants.push_back({Scheme::kChimera, f, m});
  for (Scheme s : {Scheme::kGPipe, Scheme::kDapple, Scheme::kGems,
                   Scheme::kOneF1B})
    variants.push_back({s, 1, ScaleMethod::kDirect});

  Fnv1a uncontended, contended, ties;
  int configs = 0;
  for (const Variant& v : variants)
    for (int D : {2, 4, 8})
      for (int N : {D, 2 * D})
        for (SyncPolicy sync : {SyncPolicy::kNone, SyncPolicy::kAtEnd,
                                SyncPolicy::kEager, SyncPolicy::kEagerOpt}) {
          if (v.scheme == Scheme::kChimera && D % (2 * v.f) != 0) continue;
          const PipelineSchedule s = with_gradient_sync(
              build_schedule(v.scheme, {D, N, v.f, v.scale}), sync);
          const ExecutionPlan plan(s);
          ++configs;

          ReplayCosts uneven;
          uneven.forward_by_stage = uneven_forward(D);
          for (double f : uneven.forward_by_stage)
            uneven.backward_by_stage.push_back(2.1 * f);
          uneven.p2p = 0.13;
          uneven.allreduce_by_stage = uneven_allreduce(D);
          uneven.begin_cpu_fraction = 0.1;
          uneven.recompute = true;
          uncontended.add(replay(plan, {.forward = 1.0, .backward = 2.0}));
          uncontended.add(replay(plan, uneven));

          for (int k = 0; k < 2; ++k) {
            const double bf = k == 0 ? 2.0 : 3.0;
            ReplayCosts c;
            c.forward_by_stage = uneven_forward(D);
            for (double f : c.forward_by_stage)
              c.backward_by_stage.push_back(f * bf);
            c.half_backward_scale = 1.13;
            c.double_forward_scale = 0.87;
            c.network = ReplayCosts::Network{.alpha = k == 0 ? 0.05 : 0.21,
                                             .beta = 1e-3,
                                             .boundary_bytes = 400.0,
                                             .node_size = k == 0 ? 2 : 0,
                                             .intra_alpha = 0.01,
                                             .intra_beta = 2.5e-4};
            c.allreduce_by_stage = uneven_allreduce(D);
            c.begin_cpu_fraction = 0.1;
            contended.add(replay(plan, c));
          }
          // Uniform costs with free links: equal start times abound, so
          // this family pins how the contended loop breaks ties.
          for (double begin_fraction : {0.0, 0.25}) {
            ReplayCosts c;
            c.allreduce = 1.0;
            c.begin_cpu_fraction = begin_fraction;
            c.network = ReplayCosts::Network{};
            ties.add(replay(plan, c));
          }
        }
  EXPECT_EQ(configs, 216);
  EXPECT_EQ(uncontended.h, 0xfa5a58812a41107full);
  EXPECT_EQ(contended.h, 0x80c2424d932015f6ull);
  EXPECT_EQ(ties.h, 0x655024e36a4bc879ull);
}

TEST(PlanExecutor, DeadlockThrowsWithAndWithoutNetwork) {
  // GPipe D=2 N=2 with worker 0's F1 and B0 swapped: worker 0's B0 waits
  // on worker 1's B0, which follows worker 1's F1, which waits on worker
  // 0's F1 — now behind B0.
  PipelineSchedule s =
      build_schedule(Scheme::kGPipe, {2, 2, 1, ScaleMethod::kDirect});
  ASSERT_EQ(s.worker_ops[0][1].kind, OpKind::kForward);
  ASSERT_EQ(s.worker_ops[0][2].kind, OpKind::kBackward);
  std::swap(s.worker_ops[0][1], s.worker_ops[0][2]);
  EXPECT_THROW(replay(s, ReplayCosts{}), CheckError);
  EXPECT_THROW(replay(s, uniform_costs(2, 1.0, 2.0)), CheckError);
  const std::vector<ScheduleIssue> issues = validate_schedule(s);
  ASSERT_FALSE(issues.empty());
  bool replay_reported = false;
  for (const ScheduleIssue& i : issues)
    replay_reported |= std::string(i.check) == "replay";
  EXPECT_TRUE(replay_reported);
}

TEST(EventEngine, MatchesAnalyticReplayWithoutCommunication) {
  // A network whose links cost nothing and no allreduce contends for
  // nothing: the time-ordered contended loop must reproduce the scan-order
  // replay bit for bit.
  for (Scheme scheme : {Scheme::kChimera, Scheme::kGPipe, Scheme::kDapple,
                        Scheme::kGems}) {
    for (int D : {4, 8}) {
      for (int N : {D, 2 * D}) {
        for (SyncPolicy sync : {SyncPolicy::kNone, SyncPolicy::kEagerOpt}) {
          ScheduleConfig sc{D, N, 1, ScaleMethod::kDirect};
          const PipelineSchedule s =
              with_gradient_sync(build_schedule(scheme, sc), sync);
          ReplayCosts model{.forward = 1.0, .backward = 2.0};
          const ReplayResult r = replay(s, model);
          model.network = ReplayCosts::Network{};
          const ReplayResult e = replay(s, model);
          SCOPED_TRACE(std::string(scheme_name(scheme)) + " D=" +
                       std::to_string(D) + " N=" + std::to_string(N));
          Fnv1a hr, he;
          hr.add(r);
          he.add(e);
          EXPECT_EQ(he.h, hr.h);
          EXPECT_EQ(e.compute_makespan, r.compute_makespan);
          EXPECT_EQ(e.bubble_ratio(), r.bubble_ratio());
        }
      }
    }
  }
}

TEST(EventEngine, CommunicationExtendsMakespan) {
  PipelineSchedule s = build_schedule(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect});
  ReplayCosts base = uniform_costs(4, 1.0, 2.0);
  const double t0 = replay(s, base).makespan;
  ReplayCosts comm = base;
  comm.network->alpha = 0.1;
  comm.network->beta = 1e-3;
  comm.network->boundary_bytes = 100.0;
  const double t1 = replay(s, comm).makespan;
  EXPECT_GT(t1, t0);
}

TEST(EventEngine, JitterIsDeterministicGivenSeed) {
  PipelineSchedule s = build_schedule(Scheme::kDapple, {4, 8, 1, ScaleMethod::kDirect});
  ReplayCosts c = uniform_costs(4, 1.0, 2.0);
  c.jitter = 0.1;
  c.seed = 99;
  const double t1 = replay(s, c).makespan;
  const double t2 = replay(s, c).makespan;
  EXPECT_DOUBLE_EQ(t1, t2);
  c.seed = 100;
  EXPECT_NE(replay(s, c).makespan, t1);
}

TEST(EventEngine, EagerSyncHidesAllreduceInBubbles) {
  // With at-end placement the allreduce time is fully exposed; eager
  // placement hides part of it in the bubbles (paper Fig. 4).
  PipelineSchedule base = build_schedule(Scheme::kChimera, {8, 8, 1, ScaleMethod::kDirect});
  ReplayCosts c = uniform_costs(8, 1.0, 2.0);
  c.allreduce_by_stage.assign(8, 2.0);
  const double at_end =
      replay(with_gradient_sync(base, SyncPolicy::kAtEnd), c).makespan;
  const double eager =
      replay(with_gradient_sync(base, SyncPolicy::kEagerOpt), c).makespan;
  EXPECT_LT(eager, at_end);
}

TEST(EventEngine, EagerOptBeatsPlainEagerUnderLaunchOverhead) {
  // Plain eager launches collectives for middle stages too, paying the
  // nonblocking progression overhead on the critical path (§3.2); the
  // opt variant only launches into real bubbles.
  PipelineSchedule base = build_schedule(Scheme::kChimera, {8, 8, 1, ScaleMethod::kDirect});
  ReplayCosts c = uniform_costs(8, 1.0, 2.0);
  c.allreduce_by_stage.assign(8, 1.5);
  c.begin_cpu_fraction = 0.25;
  const double eager =
      replay(with_gradient_sync(base, SyncPolicy::kEager), c).makespan;
  const double opt =
      replay(with_gradient_sync(base, SyncPolicy::kEagerOpt), c).makespan;
  EXPECT_LE(opt, eager);
}

// ---- simulate(): scheme-level behaviour ---------------------------------

TEST(Simulate, ChimeraBeatsGpipeAndDappleAtSmallN) {
  const ModelSpec model = ModelSpec::bert48();
  const MachineSpec machine = MachineSpec::piz_daint();
  ExecConfig cfg;
  cfg.W = 8;
  cfg.D = 4;
  cfg.B = 8;
  cfg.minibatch = 256;  // N = 4 per worker: bubbles matter
  cfg.scheme = Scheme::kChimera;
  const double chimera = sim::simulate(cfg, model, machine).throughput;
  cfg.scheme = Scheme::kDapple;
  const double dapple = sim::simulate(cfg, model, machine).throughput;
  cfg.scheme = Scheme::kGPipe;
  const double gpipe = sim::simulate(cfg, model, machine).throughput;
  cfg.scheme = Scheme::kGems;
  const double gems = sim::simulate(cfg, model, machine).throughput;
  EXPECT_GT(chimera, dapple);
  EXPECT_GT(chimera, gpipe);
  EXPECT_GT(chimera, 1.5 * gems);
}

TEST(Simulate, BubbleRatioDropsWithMoreMicroBatches) {
  const ModelSpec model = ModelSpec::bert48();
  const MachineSpec machine = MachineSpec::piz_daint();
  ExecConfig cfg;
  cfg.scheme = Scheme::kDapple;
  cfg.W = 1;
  cfg.D = 8;
  cfg.B = 1;
  cfg.minibatch = 8;
  const double small = sim::simulate(cfg, model, machine).bubble_ratio;
  cfg.minibatch = 64;
  const double large = sim::simulate(cfg, model, machine).bubble_ratio;
  EXPECT_GT(small, large);
}

TEST(Simulate, InfeasibleConfigReportsOom) {
  const ModelSpec model = ModelSpec::gpt2_64();
  const MachineSpec machine = MachineSpec::piz_daint();
  ExecConfig cfg;
  cfg.scheme = Scheme::kGPipe;
  cfg.W = 1;
  cfg.D = 8;
  cfg.B = 8;          // far beyond P100 memory even with recomputation
  cfg.minibatch = 512;
  cfg.recompute = Recompute::kOff;
  const sim::SimResult r = sim::simulate(cfg, model, machine);
  EXPECT_FALSE(r.feasible);
}

// ---- memory model: the paper's OOM/recompute pattern --------------------

TEST(MemoryModel, Figure15PatternGpt2At512Nodes) {
  // At 512 nodes, B̂=512: Chimera D=32 fits without recomputation while
  // DAPPLE D=16, PipeDream-2BW D=16, GPipe D=8 and PipeDream D=8 need it
  // (paper Fig. 15 legend); GEMS D=8 fits.
  const ModelSpec model = ModelSpec::gpt2_64();
  const MachineSpec machine = MachineSpec::piz_daint();
  const int P = 512;
  auto needs_recompute = [&](Scheme s, int D, int B, long minibatch) {
    ExecConfig cfg;
    cfg.scheme = s;
    cfg.D = D;
    cfg.W = P / D;
    cfg.B = B;
    cfg.minibatch = minibatch;
    return resolve_recompute(cfg, model, machine);
  };
  EXPECT_FALSE(needs_recompute(Scheme::kChimera, 32, 1, 512));
  EXPECT_TRUE(needs_recompute(Scheme::kDapple, 16, 1, 512));
  EXPECT_TRUE(needs_recompute(Scheme::kPipeDream2BW, 16, 1, 512));
  EXPECT_TRUE(needs_recompute(Scheme::kGPipe, 8, 1, 512));
  EXPECT_TRUE(needs_recompute(Scheme::kPipeDream, 8, 1, 64));
  EXPECT_FALSE(needs_recompute(Scheme::kGems, 8, 2, 512));
}

TEST(MemoryModel, ChimeraIsMoreBalancedThanDapple) {
  // Fig. 9: Chimera's max/min per-worker spread is tighter than DAPPLE's.
  const ModelSpec model = ModelSpec::bert48();
  const MachineSpec machine = MachineSpec::piz_daint();
  ExecConfig cfg;
  cfg.W = 2;
  cfg.D = 16;
  cfg.B = 8;
  cfg.minibatch = 512;
  cfg.scheme = Scheme::kChimera;
  const MemoryReport chimera = memory_model(cfg, model, machine, false);
  cfg.scheme = Scheme::kDapple;
  const MemoryReport dapple = memory_model(cfg, model, machine, false);
  const double spread_c = chimera.peak_bytes() - chimera.min_bytes();
  const double spread_d = dapple.peak_bytes() - dapple.min_bytes();
  EXPECT_LT(spread_c, spread_d);
  // And Chimera's peak stays at or below DAPPLE's despite two model copies.
  EXPECT_LE(chimera.peak_bytes(), 1.05 * dapple.peak_bytes());
}

TEST(MemoryModel, RecomputationShrinksActivations) {
  const ModelSpec model = ModelSpec::gpt2_64();
  const MachineSpec machine = MachineSpec::piz_daint();
  ExecConfig cfg;
  cfg.scheme = Scheme::kDapple;
  cfg.W = 32;
  cfg.D = 16;
  cfg.B = 1;
  cfg.minibatch = 512;
  const double plain =
      memory_model(cfg, model, machine, false).peak_bytes();
  const double recomputed =
      memory_model(cfg, model, machine, true).peak_bytes();
  EXPECT_LT(recomputed, 0.6 * plain);
}

// ---- performance model (Eq. 1) vs simulation (Fig. 13) ------------------

TEST(PerfModel, WithinTenPercentOfSimulation) {
  const ModelSpec model = ModelSpec::bert48();
  const MachineSpec machine = MachineSpec::piz_daint();
  PerfModel pm(model, machine);
  for (auto [W, D, B] : {std::tuple{8, 4, 8}, {4, 8, 8}, {2, 16, 8}}) {
    ExecConfig cfg;
    cfg.scheme = Scheme::kChimera;
    cfg.W = W;
    cfg.D = D;
    cfg.B = B;
    cfg.minibatch = 256;
    const double predicted = pm.throughput(cfg);
    const double measured = sim::simulate(cfg, model, machine).throughput;
    EXPECT_NEAR(predicted, measured, 0.10 * measured)
        << "W=" << W << " D=" << D;
  }
}

TEST(PerfModel, BreakdownIsConsistent) {
  const ModelSpec model = ModelSpec::bert48();
  const MachineSpec machine = MachineSpec::piz_daint();
  PerfModel pm(model, machine);
  ExecConfig cfg;
  cfg.scheme = Scheme::kChimera;
  cfg.W = 4;
  cfg.D = 8;
  cfg.B = 8;
  cfg.minibatch = 512;
  const PerfBreakdown b = pm.breakdown(cfg);
  EXPECT_GT(b.Ft, 0.0);
  EXPECT_NEAR(b.Bt, (b.recompute ? 3.0 : 2.0) * b.Ft, 1e-12);
  EXPECT_GE(b.Cf, cfg.D);                    // at least one full traversal
  EXPECT_GT(b.Cb, b.Cf);                     // backwards dominate the path
  EXPECT_NEAR(b.total, b.compute_time + b.ar_unoverlapped, 1e-9);
  EXPECT_NEAR(b.throughput, cfg.minibatch / b.total, 1e-9);
}

TEST(PerfModel, PipeDreamThroughputIndependentOfMinibatch) {
  const ModelSpec model = ModelSpec::bert48();
  const MachineSpec machine = MachineSpec::piz_daint();
  PerfModel pm(model, machine);
  ExecConfig cfg;
  cfg.scheme = Scheme::kPipeDream;
  cfg.W = 4;
  cfg.D = 8;
  cfg.B = 4;
  cfg.minibatch = 16;  // B·W
  const double a = pm.throughput(cfg);
  EXPECT_GT(a, 0.0);
}

}  // namespace
}  // namespace chimera
