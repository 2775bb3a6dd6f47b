#include "optim/optimizer.h"

#include <array>
#include <cmath>

#include "optim/optimizer_simd.h"
#include "support/check.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"

namespace chimera::optim {
namespace {

/// plan_shards never returns more than this (kMaxShards in compute_pool.cc)
/// — sized partial arrays live on the stack.
constexpr int kMaxShards = 16;

/// The optimizer follows the process kernel tier, but its fast loops are
/// AVX2-only (no portable mirror — they are bitwise ≡ scalar, so the
/// scalar loops ARE the fallback).
bool use_fast_optimizer() {
  return active_kernel_tier() == KernelTier::kFast && simd::available();
}

}  // namespace

const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kSgd: return "sgd";
    case Rule::kMomentum: return "momentum";
    case Rule::kAdam: return "adam";
    case Rule::kAdamW: return "adamw";
    case Rule::kLamb: return "lamb";
  }
  return "?";
}

int state_slots(Rule r) {
  switch (r) {
    case Rule::kSgd: return 0;
    case Rule::kMomentum: return 1;
    case Rule::kAdam:
    case Rule::kAdamW:
    case Rule::kLamb: return 2;
  }
  return 0;
}

float clip_scale(float clip_norm, double global_sq_norm) {
  if (clip_norm <= 0.0f) return 1.0f;
  const double norm = std::sqrt(global_sq_norm);
  if (norm <= clip_norm) return 1.0f;
  return static_cast<float>(clip_norm / norm);
}

Optimizer::Optimizer(std::vector<nn::Param*> params, const OptimizerConfig& cfg)
    : params_(std::move(params)), cfg_(cfg) {
  CHIMERA_CHECK_MSG(cfg_.lr > 0.0f, "learning rate must be positive");
}

double sq_norm(const float* x, std::size_t n, double acc) {
  if (n == 0) return acc;
  // Each shard accumulates its element range serially in ascending order
  // into its own partial; the partials add into `acc` in shard order on the
  // caller. The association is a pure function of n.
  const int ni = static_cast<int>(n);
  const int shards = plan_shards(ni, 2);
  CHIMERA_CHECK(shards <= kMaxShards);
  std::array<double, kMaxShards> partials{};
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int b = shard_begin(ni, shards, s);
    const int e = shard_begin(ni, shards, s + 1);
    double acc = 0.0;
    for (int i = b; i < e; ++i) acc += static_cast<double>(x[i]) * x[i];
    partials[static_cast<std::size_t>(s)] = acc;
  });
  for (int s = 0; s < shards; ++s) acc += partials[static_cast<std::size_t>(s)];
  return acc;
}

double Optimizer::grad_sq_norm() const {
  double sum = 0.0;
  for (const nn::Param* p : params_)
    sum = sq_norm(p->grad.data(), p->grad.numel(), sum);
  return sum;
}

std::size_t Optimizer::state_numel() const {
  std::size_t n = 0;
  for (const auto& st : state_)
    for (const Tensor& t : st) n += t.numel();
  return n;
}

namespace {

/// apply_flat's serial body for one shard. All rules are elementwise, and
/// the fast-tier kernels below are bitwise replicas of the scalar loops
/// (optim/optimizer_simd.h) — so the result is identical for any split and
/// in either tier.
void apply_rule(const OptimizerConfig& cfg, long step_t, double lr_mult,
                float grad_scale, float* w, const float* g, float* s0,
                float* s1, std::size_t n) {
  const double lr = static_cast<double>(cfg.lr) * lr_mult;
  const bool fast = use_fast_optimizer();
  switch (cfg.rule) {
    case Rule::kSgd:
      if (fast) {
        simd::sgd_fast(static_cast<float>(lr), grad_scale, w, g, n);
        return;
      }
      for (std::size_t i = 0; i < n; ++i)
        w[i] -= static_cast<float>(lr) * (grad_scale * g[i]);
      return;
    case Rule::kMomentum:
      CHIMERA_CHECK(s0 != nullptr);
      if (fast) {
        simd::momentum_fast(cfg.momentum, static_cast<float>(lr), grad_scale,
                            w, s0, g, n);
        return;
      }
      for (std::size_t i = 0; i < n; ++i) {
        s0[i] = cfg.momentum * s0[i] + grad_scale * g[i];
        w[i] -= static_cast<float>(lr) * s0[i];
      }
      return;
    case Rule::kAdam:
    case Rule::kAdamW: {
      CHIMERA_CHECK(s0 != nullptr && s1 != nullptr);
      // Bias correction uses the 1-based update count.
      const double bc1 = 1.0 - std::pow(cfg.beta1, step_t);
      const double bc2 = 1.0 - std::pow(cfg.beta2, step_t);
      if (fast) {
        simd::adam_fast(cfg.rule == Rule::kAdamW, lr, bc1, bc2, cfg.beta1,
                        cfg.beta2, cfg.eps, cfg.weight_decay, grad_scale, w,
                        g, s0, s1, n);
        return;
      }
      for (std::size_t i = 0; i < n; ++i) {
        float gi = grad_scale * g[i];
        if (cfg.rule == Rule::kAdam) gi += cfg.weight_decay * w[i];
        s0[i] = cfg.beta1 * s0[i] + (1.0f - cfg.beta1) * gi;
        s1[i] = cfg.beta2 * s1[i] + (1.0f - cfg.beta2) * gi * gi;
        const double mhat = s0[i] / bc1;
        const double vhat = s1[i] / bc2;
        const double r = mhat / (std::sqrt(vhat) + cfg.eps);
        if (cfg.rule == Rule::kAdamW)
          w[i] -= static_cast<float>(lr * (r + cfg.weight_decay * w[i]));
        else
          w[i] -= static_cast<float>(lr * r);
      }
      return;
    }
    case Rule::kLamb:
      break;
  }
}

}  // namespace

void apply_flat(const OptimizerConfig& cfg, long step_t, double lr_mult,
                float grad_scale, float* w, const float* g, float* s0,
                float* s1, std::size_t n) {
  CHIMERA_CHECK_MSG(cfg.rule != Rule::kLamb,
                    "LAMB cannot run on flat ranges (per-tensor trust "
                    "ratio); use Optimizer::step");
  if (n == 0) return;
  // Shape-only shards; apply_rule re-derives the bias corrections per shard
  // from the same step count.
  const int ni = static_cast<int>(n);
  const int shards = plan_shards(ni, 8);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int b = shard_begin(ni, shards, s);
    const int e = shard_begin(ni, shards, s + 1);
    apply_rule(cfg, step_t, lr_mult, grad_scale, w + b, g + b,
               s0 != nullptr ? s0 + b : nullptr,
               s1 != nullptr ? s1 + b : nullptr,
               static_cast<std::size_t>(e - b));
  });
}

void Optimizer::apply(nn::Param& p, std::vector<Tensor>& st, double lr_mult,
                      float gscale) {
  const std::size_t n = p.value.numel();
  if (n == 0) return;
  const int ni = static_cast<int>(n);
  float* w = p.value.data();
  const float* g = p.grad.data();
  if (cfg_.rule != Rule::kLamb) {
    apply_flat(cfg_, steps_, lr_mult, gscale, w, g,
               st.size() > 0 ? st[0].data() : nullptr,
               st.size() > 1 ? st[1].data() : nullptr, n);
    return;
  }
  ComputePool& pool = ComputePool::instance();
  // LAMB: Adam direction with decoupled decay, rescaled per tensor by the
  // trust ratio φ(‖w‖)/‖r‖ (φ = identity). Pass A computes the moments and
  // the direction per shard (elementwise — bitwise ≡ serial in any tier),
  // then sweeps each shard's w/dir serially for the norm partials; the
  // partials combine in shard order, so the trust ratio — and the update —
  // is bitwise identical at any helper count and across tiers.
  const double lr = static_cast<double>(cfg_.lr) * lr_mult;
  float* m = st[0].data();
  float* v = st[1].data();
  const double bc1 = 1.0 - std::pow(cfg_.beta1, steps_);
  const double bc2 = 1.0 - std::pow(cfg_.beta2, steps_);
  if (lamb_dir_.size() < n) {
    detail::arena_release(std::move(lamb_dir_));
    lamb_dir_ = detail::arena_acquire(n);
    lamb_dir_.resize(n);
  }
  float* dir = lamb_dir_.data();
  const bool fast = use_fast_optimizer();
  const int shards = plan_shards(ni, 12);
  CHIMERA_CHECK(shards <= kMaxShards);
  std::array<double, kMaxShards> wsq{}, rsq{};
  pool.parallel_for(shards, [&](int s) {
    const int b = shard_begin(ni, shards, s);
    const int e = shard_begin(ni, shards, s + 1);
    if (fast) {
      simd::lamb_dir_fast(bc1, bc2, cfg_.beta1, cfg_.beta2, cfg_.eps,
                          cfg_.weight_decay, gscale, w + b, g + b, m + b,
                          v + b, dir + b, static_cast<std::size_t>(e - b));
    } else {
      for (int i = b; i < e; ++i) {
        const float gi = gscale * g[i];
        m[i] = cfg_.beta1 * m[i] + (1.0f - cfg_.beta1) * gi;
        v[i] = cfg_.beta2 * v[i] + (1.0f - cfg_.beta2) * gi * gi;
        const double mhat = m[i] / bc1;
        const double vhat = v[i] / bc2;
        const double rd =
            mhat / (std::sqrt(vhat) + cfg_.eps) + cfg_.weight_decay * w[i];
        dir[i] = static_cast<float>(rd);
      }
    }
    // Tier-independent norm sweep: serial over the stored float values.
    double ws = 0.0, rs = 0.0;
    for (int i = b; i < e; ++i) {
      ws += static_cast<double>(w[i]) * w[i];
      rs += static_cast<double>(dir[i]) * dir[i];
    }
    wsq[static_cast<std::size_t>(s)] = ws;
    rsq[static_cast<std::size_t>(s)] = rs;
  });
  double w_sq = 0.0, r_sq = 0.0;
  for (int s = 0; s < shards; ++s) {
    w_sq += wsq[static_cast<std::size_t>(s)];
    r_sq += rsq[static_cast<std::size_t>(s)];
  }
  // Trust ratio is 1 when either norm vanishes (fresh zero-initialized
  // tensors must still move).
  const double wn = std::sqrt(w_sq), rn = std::sqrt(r_sq);
  const double trust = (wn > 0.0 && rn > 0.0) ? wn / rn : 1.0;
  const double lr_trust = lr * trust;
  pool.parallel_for(shards, [&](int s) {
    const int b = shard_begin(ni, shards, s);
    const int e = shard_begin(ni, shards, s + 1);
    if (fast) {
      simd::lamb_update_fast(lr_trust, w + b, dir + b,
                             static_cast<std::size_t>(e - b));
    } else {
      for (int i = b; i < e; ++i)
        w[i] -= static_cast<float>(lr_trust * dir[i]);
    }
  });
}

void Optimizer::step(double lr_mult, float grad_scale) {
  if (state_.empty()) {
    const int slots = state_slots(cfg_.rule);
    state_.reserve(params_.size());
    for (nn::Param* p : params_) {
      std::vector<Tensor> st;
      for (int s = 0; s < slots; ++s)
        st.emplace_back(p->value.rows(), p->value.cols());
      state_.push_back(std::move(st));
    }
  }
  ++steps_;
  for (std::size_t i = 0; i < params_.size(); ++i)
    apply(*params_[i], state_[i], lr_mult, grad_scale);
}

}  // namespace chimera::optim
