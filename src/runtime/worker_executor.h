// WorkerExecutor: the op-dispatch loop of one rank for one iteration.
//
// Walks the rank's ordered PlannedOp list and executes each op for real:
// compute ops run the stage module with activations/gradients exchanged
// through the message-passing substrate at the plan's precomputed endpoints
// and tags, collective ops are handed to the GradSyncEngine, and the
// WeightStore hooks fire at the plan's stash acquire/release events. The
// executor itself is scheme-agnostic — everything scheme-specific lives in
// the plan (op order, dependencies), the store (weight versioning) and the
// sync engine (gradient exchange policy).
#pragma once

#include <vector>

#include "runtime/options.h"
#include "runtime/weight_store.h"
#include "runtime/worker_state.h"

namespace chimera::rt {

class WorkerExecutor {
 public:
  WorkerExecutor(TrainDeployment& dep, const TrainerOptions& opts,
                 WeightStore& store, WorkerState& me, int group, int worker,
                 long iteration);

  /// Runs this worker's plan for one training iteration. `B` is the
  /// micro-batch size; `losses` is indexed (group·N + micro)·2 + half and
  /// receives the last-stage losses this worker computes.
  void run(const nn::MicroBatch& batch, int B, std::vector<double>& losses);

 private:
  TrainDeployment& dep_;
  const TrainerOptions& opts_;
  WeightStore& store_;
  WorkerState& me_;
  int group_;
  int worker_;
  long iteration_;
};

}  // namespace chimera::rt
