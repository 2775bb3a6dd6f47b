// First-order update rules for pipeline training (the U(g, w, t) of the
// paper's §2 problem statement): SGD, momentum, Adam, AdamW and LAMB, plus
// global-gradient-norm clipping support.
//
// One Optimizer instance owns the state (momentum/moment tensors) for one
// stage replica's parameter set, allocated on its first step. Synchronous
// pipeline schemes apply identical gradients on every replica of a stage,
// so running the same rule per replica reproduces exactly the single-device
// update — the property the runtime's gradient-equivalence tests assert.
// The runtime's ring path instead runs the rule once per replica group,
// sharded (apply_flat over each rank's segment; runtime/grad_sync.h); the
// state footprint per rule feeds the same sharding analysis in
// core/memory_model.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "tensor/arena.h"

namespace chimera::optim {

/// Update rule selection.
enum class Rule {
  kSgd,       ///< w ← w − lr·g
  kMomentum,  ///< m ← μ·m + g;  w ← w − lr·m
  kAdam,      ///< Kingma & Ba, L2 regularization folded into the gradient
  kAdamW,     ///< Adam with decoupled weight decay
  kLamb,      ///< layer-wise adaptive Adam (You et al.), trust-ratio scaled
};

const char* rule_name(Rule r);

struct OptimizerConfig {
  Rule rule = Rule::kSgd;
  float lr = 0.05f;
  float momentum = 0.9f;  ///< µ for kMomentum
  float beta1 = 0.9f;     ///< first-moment decay (Adam/AdamW/LAMB)
  float beta2 = 0.999f;   ///< second-moment decay
  float eps = 1e-8f;
  float weight_decay = 0.0f;  ///< L2 (kAdam) or decoupled decay (kAdamW/kLamb)
  /// Global gradient-norm clip threshold; 0 disables. The *caller* computes
  /// the global norm (it spans all pipeline stages) and passes the resulting
  /// scale to step(); this field only records the configured threshold so
  /// clip_scale() can derive the factor.
  float clip_norm = 0.0f;
};

/// Number of persistent state values the rule keeps per parameter value
/// (0 for SGD, 1 for momentum, 2 for the Adam family).
int state_slots(Rule r);

/// The multiplier that rescales gradients so the global norm
/// sqrt(global_sq_norm) does not exceed `clip_norm` (1.0 when disabled).
float clip_scale(float clip_norm, double global_sq_norm);

/// acc + Σ x[i]² over x[0..n), accumulated in double in a shape-only
/// order: the range splits into pool shards by its length alone, each shard
/// sums serially in ascending order, and the partials add into `acc` in
/// shard order — so a running sum over several ranges has one association,
/// bitwise identical at any helper count and in every kernel tier
/// (deliberately no SIMD lanes: the value feeds the clip scale). The one
/// gradient norm of both update paths: Optimizer::grad_sq_norm runs it over
/// the parameters in order, the sharded step (runtime/grad_sync.h) over the
/// pieces of its segment.
double sq_norm(const float* x, std::size_t n, double acc = 0.0);

/// Applies `cfg.rule` elementwise to a flat range — the update kernel of
/// both paths: Optimizer::step runs it per parameter, the sharded step over
/// each piece of the segment of a stage's flattened parameters and state
/// that its rank owns. `step_t` is the 1-based update count (Adam bias
/// correction); `s0`/`s1` are the state slots (may be null when the rule
/// needs fewer). The range splits into pool shards by its length alone;
/// the rule is elementwise and the fast-tier loops replicate the scalar
/// arithmetic (optim/optimizer_simd.h), so the result is bitwise identical
/// for any split of the range, at any helper count and in either tier.
/// kLamb is rejected: its trust ratio is a per-tensor quantity and cannot be
/// evaluated on a flat range that crosses tensor boundaries.
void apply_flat(const OptimizerConfig& cfg, long step_t, double lr_mult,
                float grad_scale, float* w, const float* g, float* s0,
                float* s1, std::size_t n);

class Optimizer {
 public:
  Optimizer(std::vector<nn::Param*> params, const OptimizerConfig& cfg);

  /// Applies one update to every parameter. `lr_mult` scales cfg.lr (LR
  /// schedules); `grad_scale` multiplies each gradient before the rule
  /// (global-norm clipping). Gradients themselves are left untouched.
  /// Each parameter's element range is sharded onto the ComputePool with
  /// shape-only splits; the rules are elementwise (LAMB's trust ratio is
  /// combined from per-shard partials in shard order), so weights are
  /// bitwise identical at any helper count — and, because the fast-tier
  /// optimizer kernels replicate the scalar arithmetic exactly
  /// (optim/optimizer_simd.h), across kernel tiers too.
  void step(double lr_mult = 1.0, float grad_scale = 1.0f);

  /// Σ‖g‖² over this replica's parameters (one term of the global norm):
  /// sq_norm per parameter, summed in parameter order.
  double grad_sq_norm() const;

  /// Number of updates applied so far (drives Adam bias correction).
  long steps() const { return steps_; }

  /// Persistent optimizer-state values held: 0 until the first step(),
  /// then state_slots(rule) per parameter value.
  std::size_t state_numel() const;

  const OptimizerConfig& config() const { return cfg_; }

 private:
  void apply(nn::Param& p, std::vector<Tensor>& st, double lr_mult,
             float gscale);

  std::vector<nn::Param*> params_;
  OptimizerConfig cfg_;
  /// [param][slot], allocated zeroed by the first step(): an instance that
  /// never steps (a replica whose stage updates sharded) holds no state.
  std::vector<std::vector<Tensor>> state_;
  /// LAMB's per-step direction buffer, sized once to the largest parameter
  /// (grow-only, arena-backed): the step allocates nothing in steady state.
  detail::FloatBuffer lamb_dir_;
  long steps_ = 0;
};

}  // namespace chimera::optim
