// Optimizer and LR-schedule tests: every update rule against a hand-computed
// reference recurrence, convergence on a least-squares problem, state
// bookkeeping (the numbers the ZeRO-1 memory analysis relies on), clipping
// semantics, and schedule shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "support/rng.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"

namespace chimera::optim {
namespace {

/// A single scalar parameter with a controllable gradient.
struct Scalar {
  nn::Param p{"w", 1, 1};
  Scalar(float w0, float g) {
    p.value[0] = w0;
    p.grad[0] = g;
  }
};

TEST(Sgd, MatchesClosedForm) {
  Scalar s(1.0f, 0.5f);
  OptimizerConfig cfg;
  cfg.rule = Rule::kSgd;
  cfg.lr = 0.1f;
  Optimizer opt({&s.p}, cfg);
  opt.step();
  EXPECT_FLOAT_EQ(s.p.value[0], 1.0f - 0.1f * 0.5f);
  opt.step();
  EXPECT_FLOAT_EQ(s.p.value[0], 1.0f - 2 * 0.1f * 0.5f);
  EXPECT_EQ(opt.steps(), 2);
  EXPECT_EQ(opt.state_numel(), 0u);
}

TEST(Sgd, LrMultiplierAndGradScaleCompose) {
  Scalar s(0.0f, 1.0f);
  OptimizerConfig cfg;
  cfg.rule = Rule::kSgd;
  cfg.lr = 1.0f;
  Optimizer opt({&s.p}, cfg);
  opt.step(/*lr_mult=*/0.5, /*grad_scale=*/0.25f);
  EXPECT_FLOAT_EQ(s.p.value[0], -0.125f);
  // Gradients themselves must stay untouched by scaling.
  EXPECT_FLOAT_EQ(s.p.grad[0], 1.0f);
}

TEST(Momentum, MatchesReferenceRecurrence) {
  Scalar s(2.0f, 1.0f);
  OptimizerConfig cfg;
  cfg.rule = Rule::kMomentum;
  cfg.lr = 0.1f;
  cfg.momentum = 0.9f;
  Optimizer opt({&s.p}, cfg);
  float w = 2.0f, m = 0.0f;
  for (int t = 0; t < 5; ++t) {
    m = 0.9f * m + 1.0f;
    w -= 0.1f * m;
    opt.step();
    ASSERT_FLOAT_EQ(s.p.value[0], w) << "step " << t;
  }
  EXPECT_EQ(opt.state_numel(), 1u);
}

TEST(Adam, FirstStepMovesByLrTimesSign) {
  // With bias correction, the very first Adam update is ±lr·g/(|g|+ε̃).
  for (float g : {0.001f, 1.0f, 250.0f}) {
    Scalar s(0.0f, g);
    OptimizerConfig cfg;
    cfg.rule = Rule::kAdam;
    cfg.lr = 0.01f;
    Optimizer opt({&s.p}, cfg);
    opt.step();
    EXPECT_NEAR(s.p.value[0], -0.01f, 1e-4) << "gradient " << g;
  }
}

TEST(Adam, MatchesReferenceRecurrence) {
  Scalar s(1.0f, 0.0f);
  OptimizerConfig cfg;
  cfg.rule = Rule::kAdam;
  cfg.lr = 0.05f;
  Optimizer opt({&s.p}, cfg);
  double w = 1.0, m = 0.0, v = 0.0;
  for (int t = 1; t <= 6; ++t) {
    const double g = 0.3 * t;  // varying gradients
    s.p.grad[0] = static_cast<float>(g);
    m = 0.9 * m + 0.1 * g;
    v = 0.999 * v + 0.001 * g * g;
    const double mh = m / (1.0 - std::pow(0.9, t));
    const double vh = v / (1.0 - std::pow(0.999, t));
    w -= 0.05 * mh / (std::sqrt(vh) + 1e-8);
    opt.step();
    ASSERT_NEAR(s.p.value[0], w, 1e-5) << "step " << t;
  }
  EXPECT_EQ(opt.state_numel(), 2u);
}

TEST(AdamW, DecouplesWeightDecayFromMoments) {
  // With zero gradient, AdamW still shrinks the weight by lr·wd·w while the
  // moments stay exactly zero; Adam-with-L2 instead channels decay through
  // the moments (different trajectory).
  Scalar sw(2.0f, 0.0f);
  OptimizerConfig cw;
  cw.rule = Rule::kAdamW;
  cw.lr = 0.1f;
  cw.weight_decay = 0.5f;
  Optimizer ow({&sw.p}, cw);
  ow.step();
  EXPECT_NEAR(sw.p.value[0], 2.0f - 0.1f * 0.5f * 2.0f, 1e-6);

  Scalar sa(2.0f, 0.0f);
  OptimizerConfig ca = cw;
  ca.rule = Rule::kAdam;
  Optimizer oa({&sa.p}, ca);
  oa.step();
  // L2-coupled: g_eff = wd·w = 1.0 → first step ≈ −lr·sign = −0.1.
  EXPECT_NEAR(sa.p.value[0], 2.0f - 0.1f, 1e-4);
}

TEST(Lamb, TrustRatioScalesUpdateToWeightNorm) {
  // A large weight with a unit gradient: LAMB's update magnitude is
  // lr·‖w‖·dir/‖dir‖ — proportional to the weight norm, unlike Adam.
  nn::Param p("w", 1, 4);
  for (int i = 0; i < 4; ++i) {
    p.value[i] = 10.0f;
    p.grad[i] = 1.0f;
  }
  OptimizerConfig cfg;
  cfg.rule = Rule::kLamb;
  cfg.lr = 0.1f;
  Optimizer opt({&p}, cfg);
  opt.step();
  // dir_i = 1 (Adam first step, all equal) → trust = ‖w‖/‖dir‖ = 20/2 = 10;
  // update = lr·10·1 = 1.
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], 9.0f, 1e-3) << i;
}

TEST(Lamb, ZeroWeightTensorStillMoves) {
  Scalar s(0.0f, 1.0f);
  OptimizerConfig cfg;
  cfg.rule = Rule::kLamb;
  cfg.lr = 0.1f;
  Optimizer opt({&s.p}, cfg);
  opt.step();
  EXPECT_LT(s.p.value[0], 0.0f);  // trust ratio falls back to 1
}

class RuleConvergence : public ::testing::TestWithParam<Rule> {};

TEST_P(RuleConvergence, SolvesLeastSquares) {
  // min ‖w − target‖²/2: every rule must converge on this convex problem.
  const int n = 8;
  nn::Param p("w", 1, n);
  std::vector<float> target(n);
  for (int i = 0; i < n; ++i) target[i] = 0.3f * (i - 4);
  OptimizerConfig cfg;
  cfg.rule = GetParam();
  cfg.lr = cfg.rule == Rule::kSgd || cfg.rule == Rule::kMomentum ? 0.2f : 0.05f;
  cfg.momentum = 0.8f;
  Optimizer opt({&p}, cfg);
  // LAMB normalizes the update direction per tensor, so its step size does
  // not vanish with the gradient — convergence to a point needs a decaying
  // learning rate (the regime it is used in). Drive it with cosine decay.
  LrSchedule decay{ScheduleKind::kWarmupCosine, 0, 400, 0.0};
  const bool lamb = GetParam() == Rule::kLamb;
  double loss = 0.0;
  for (int t = 0; t < 400; ++t) {
    loss = 0.0;
    for (int i = 0; i < n; ++i) {
      const float e = p.value[i] - target[i];
      p.grad[i] = e;
      loss += 0.5 * e * e;
    }
    opt.step(lamb ? decay.multiplier(t) : 1.0);
  }
  EXPECT_LT(loss, lamb ? 1e-3 : 1e-4) << rule_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllRules, RuleConvergence,
                         ::testing::Values(Rule::kSgd, Rule::kMomentum,
                                           Rule::kAdam, Rule::kAdamW,
                                           Rule::kLamb),
                         [](const auto& info) { return rule_name(info.param); });

TEST(Clipping, ScaleCapsGlobalNorm) {
  EXPECT_FLOAT_EQ(clip_scale(0.0f, 100.0), 1.0f);    // disabled
  EXPECT_FLOAT_EQ(clip_scale(10.0f, 25.0), 1.0f);    // norm 5 ≤ 10
  EXPECT_FLOAT_EQ(clip_scale(2.0f, 64.0), 2.0f / 8.0f);
}

TEST(Clipping, GradSqNormSumsAllParams) {
  nn::Param a("a", 1, 2), b("b", 2, 1);
  a.grad[0] = 3.0f;
  a.grad[1] = 4.0f;
  b.grad[0] = 1.0f;
  b.grad[1] = 2.0f;
  Optimizer opt({&a, &b}, OptimizerConfig{});
  EXPECT_DOUBLE_EQ(opt.grad_sq_norm(), 9.0 + 16.0 + 1.0 + 4.0);
}

TEST(Clipping, FlatSqNormAccumulatesInDoubleAtAnyHelperCount) {
  // 2^20 squares of magnitude ~1, the size of a stage segment: a float
  // running sum is off by ~1e-4 relative here, the double accumulation
  // stays within 1e-11 of a long-double reference — whole, or chained over
  // two halves through `acc` — and is bitwise the same at any helper count.
  constexpr std::size_t kN = std::size_t{1} << 20;
  std::vector<float> x(kN);
  Rng rng(2026);
  long double ref = 0.0L;
  for (float& v : x) {
    v = static_cast<float>(1.0 + 0.5 * rng.normal());
    ref += static_cast<long double>(v) * v;
  }
  std::vector<double> got;
  for (int helpers : {0, 3}) {
    ComputePool::instance().set_helpers(helpers);
    got.push_back(sq_norm(x.data(), kN));
  }
  ComputePool::instance().set_helpers(0);
  EXPECT_EQ(got[0], got[1]);
  EXPECT_LT(std::abs(static_cast<long double>(got[0]) - ref) / ref, 1e-11L);
  const double chained = sq_norm(x.data() + kN / 2, kN / 2,
                                 sq_norm(x.data(), kN / 2));
  EXPECT_LT(std::abs(static_cast<long double>(chained) - ref) / ref, 1e-11L);
  EXPECT_EQ(sq_norm(x.data(), 0, 1.5), 1.5);
}

TEST(OptimizerState, AllocatedOnFirstStep) {
  nn::Param a("a", 3, 4), b("b", 1, 5);
  OptimizerConfig cfg;
  cfg.rule = Rule::kAdamW;
  Optimizer opt({&a, &b}, cfg);
  EXPECT_EQ(opt.state_numel(), 0u);
  opt.step();
  EXPECT_EQ(opt.state_numel(), 2u * (12 + 5));
}

// ---- sharded / tiered step parity ---------------------------------------

/// Policies whose dispatch the environment lets us observe (a pinned
/// CHIMERA_KERNEL_TIER overrides the policy, so one entry suffices then).
std::vector<KernelPolicy> parity_policies() {
  const char* v = std::getenv("CHIMERA_KERNEL_TIER");
  if (v != nullptr && *v != '\0') return {kernel_policy()};
  return {KernelPolicy::kScalarReference, KernelPolicy::kFast};
}

TEST(OptimizerParity, WeightsBitwiseAcrossTiersAndHelperCounts) {
  // The optimizer step and grad_sq_norm are sharded onto the ComputePool
  // and tier-dispatched (optim/optimizer_simd.h): weights after N clipped
  // steps must be bitwise identical for every (rule, kernel tier, helper
  // count) — the property the grad-sync replica contracts build on. The
  // first parameter is large enough that plan_shards genuinely splits it.
  const KernelPolicy saved = kernel_policy();
  struct Run {
    std::vector<float> w;
    double norm = 0.0;
  };
  const auto run_case = [](Rule rule, float clip, KernelPolicy pol,
                           int helpers) {
    set_kernel_policy(pol);
    ComputePool::instance().set_helpers(helpers);
    Rng wrng(77);
    nn::Param a("a", 129, 129), b("b", 1, 7);
    a.value.randn(wrng, 1.0f);
    b.value.randn(wrng, 1.0f);
    OptimizerConfig cfg;
    cfg.rule = rule;
    cfg.lr = 0.01f;
    cfg.weight_decay = 0.01f;
    cfg.clip_norm = clip;
    Optimizer opt({&a, &b}, cfg);
    Run run;
    Rng grng(99);
    for (int t = 0; t < 3; ++t) {
      a.grad.randn(grng, 1.0f);
      b.grad.randn(grng, 1.0f);
      run.norm = opt.grad_sq_norm();
      opt.step(1.0, clip_scale(cfg.clip_norm, run.norm));
    }
    ComputePool::instance().set_helpers(0);
    run.w.assign(a.value.data(), a.value.data() + a.value.numel());
    run.w.insert(run.w.end(), b.value.data(),
                 b.value.data() + b.value.numel());
    return run;
  };
  for (Rule rule : {Rule::kSgd, Rule::kMomentum, Rule::kAdam, Rule::kAdamW,
                    Rule::kLamb}) {
    for (float clip : {0.0f, 0.5f}) {
      SCOPED_TRACE(std::string(rule_name(rule)) + " clip=" +
                   std::to_string(clip));
      bool have_base = false;
      Run base;
      for (KernelPolicy pol : parity_policies()) {
        for (int helpers : {0, 4}) {
          const Run run = run_case(rule, clip, pol, helpers);
          if (!have_base) {
            base = run;
            have_base = true;
            continue;
          }
          ASSERT_EQ(run.norm, base.norm) << "helpers " << helpers;
          ASSERT_EQ(run.w.size(), base.w.size());
          for (std::size_t i = 0; i < run.w.size(); ++i)
            ASSERT_EQ(run.w[i], base.w[i])
                << "element " << i << " helpers " << helpers;
        }
      }
    }
  }
  set_kernel_policy(saved);
}

TEST(StateSlots, MatchRuleFamilies) {
  EXPECT_EQ(state_slots(Rule::kSgd), 0);
  EXPECT_EQ(state_slots(Rule::kMomentum), 1);
  EXPECT_EQ(state_slots(Rule::kAdam), 2);
  EXPECT_EQ(state_slots(Rule::kAdamW), 2);
  EXPECT_EQ(state_slots(Rule::kLamb), 2);
}

// ---- learning-rate schedules ---------------------------------------------

TEST(LrSchedule, ConstantIsAlwaysOne) {
  LrSchedule s;
  for (long t : {0L, 5L, 100000L}) EXPECT_DOUBLE_EQ(s.multiplier(t), 1.0);
}

TEST(LrSchedule, WarmupRampsLinearlyToOne) {
  LrSchedule s{ScheduleKind::kWarmupLinear, 10, 100, 0.0};
  EXPECT_DOUBLE_EQ(s.multiplier(0), 0.1);
  EXPECT_DOUBLE_EQ(s.multiplier(4), 0.5);
  EXPECT_DOUBLE_EQ(s.multiplier(9), 1.0);
}

TEST(LrSchedule, LinearDecayReachesFloorAtHorizon) {
  LrSchedule s{ScheduleKind::kWarmupLinear, 10, 100, 0.1};
  EXPECT_DOUBLE_EQ(s.multiplier(10), 1.0);
  EXPECT_NEAR(s.multiplier(55), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(s.multiplier(100), 0.1);
  EXPECT_DOUBLE_EQ(s.multiplier(5000), 0.1);  // clamped past the horizon
}

TEST(LrSchedule, CosineDecayHitsMidpointAndFloor) {
  LrSchedule s{ScheduleKind::kWarmupCosine, 0, 100, 0.0};
  EXPECT_DOUBLE_EQ(s.multiplier(0), 1.0);
  EXPECT_NEAR(s.multiplier(50), 0.5, 1e-12);
  EXPECT_NEAR(s.multiplier(100), 0.0, 1e-12);
}

TEST(LrSchedule, InverseSqrtContinuousAtWarmupBoundary) {
  LrSchedule s{ScheduleKind::kInverseSqrt, 16, 0, 0.0};
  EXPECT_NEAR(s.multiplier(15), 1.0, 1e-12);           // end of warmup
  EXPECT_DOUBLE_EQ(s.multiplier(16), 1.0);             // first decay step
  EXPECT_NEAR(s.multiplier(64), std::sqrt(16.0 / 64.0), 1e-12);
}

TEST(LrSchedule, EveryKindContinuousAtWarmupBoundary) {
  // The warmup ramp ends at 1 and every decay branch starts at 1: no jump
  // at the handover step for any schedule kind (the inverse-sqrt branch
  // used to decay by sqrt(w/(w+1)) at step == warmup).
  const long w = 32;
  for (ScheduleKind k :
       {ScheduleKind::kConstant, ScheduleKind::kWarmupLinear,
        ScheduleKind::kWarmupCosine, ScheduleKind::kInverseSqrt}) {
    LrSchedule s{k, w, 400, 0.05};
    EXPECT_DOUBLE_EQ(s.multiplier(w - 1), 1.0) << schedule_kind_name(k);
    EXPECT_DOUBLE_EQ(s.multiplier(w), 1.0) << schedule_kind_name(k);
  }
}

class ScheduleShape
    : public ::testing::TestWithParam<ScheduleKind> {};

TEST_P(ScheduleShape, WarmupMonotoneUpThenMonotoneDown) {
  LrSchedule s{GetParam(), 20, 200, 0.05};
  for (long t = 1; t < 20; ++t)
    EXPECT_GE(s.multiplier(t), s.multiplier(t - 1)) << "warmup step " << t;
  for (long t = 21; t < 260; ++t) {
    EXPECT_LE(s.multiplier(t), s.multiplier(t - 1) + 1e-12) << "decay step " << t;
    EXPECT_GE(s.multiplier(t), 0.0);
    EXPECT_LE(s.multiplier(t), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScheduleShape,
                         ::testing::Values(ScheduleKind::kWarmupLinear,
                                           ScheduleKind::kWarmupCosine,
                                           ScheduleKind::kInverseSqrt),
                         [](const auto& info) {
                           std::string n = schedule_kind_name(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

}  // namespace
}  // namespace chimera::optim
