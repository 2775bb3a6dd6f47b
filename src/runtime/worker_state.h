// Per-rank training state: the Replica unit the trainer's Deployment hosts
// for every (pipe, stage) of a rank, plus the per-stage scratch the
// gradient-sync strategies keep between iterations (ZeRO-1 optimizer
// shards, top-k error-feedback residuals).
//
// One WorkerState belongs to exactly one rank (= one OS thread during an
// iteration); the trainer owns the array of them across data-parallel
// groups. The executor and GradSyncEngine operate on the rank's replicas
// and this structure, the WeightStore keys its version bookkeeping by
// Replica address.
#pragma once

#include <map>
#include <vector>

#include "nn/stage.h"
#include "optim/optimizer.h"
#include "runtime/deployment.h"

namespace chimera::rt {

/// One hosted stage replica: the module and the optimizer state for it.
/// Weight *versions* (PipeDream stash, 2BW double buffer) live in the
/// WeightStore, not here — the replica always exposes the weights the next
/// compute op should use.
struct Replica {
  int pipe = 0;
  int stage = 0;
  nn::StageModule module;
  optim::Optimizer opt;

  Replica(const nn::SmallModelConfig& cfg, int pipe_, int stage_, int depth,
          StageRange layers, bool recompute,
          const optim::OptimizerConfig& ocfg)
      : pipe(pipe_), stage(stage_), module(cfg, stage_, depth, layers),
        opt(module.params(), ocfg) {
    module.set_recompute(recompute);
  }
};

/// The trainer's hosting layer: one Replica per hosted (pipe, stage).
using TrainDeployment = Deployment<Replica>;

struct WorkerState {
  /// ZeRO-1: this worker's shard of the optimizer state, per hosted stage.
  /// Layout: zero_state[stage][slot] is a flat array covering the worker's
  /// segment of the stage's flattened parameters.
  std::map<int, std::vector<std::vector<float>>> zero_state;
  /// Top-k sparsification error feedback, per hosted stage.
  std::map<int, std::vector<float>> topk_residual;
};

}  // namespace chimera::rt
