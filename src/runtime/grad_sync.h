// GradSyncEngine: gradient synchronization and the synchronous optimizer
// step, factored out of the op-dispatch loop.
//
// The engine reduces each stage's gradients in place: the collective runs
// over a piecewise flat view (comm::FlatView) of the first local replica's
// parameter gradients, so no staging bucket exists. Each exact exchange is
// launched nonblocking at AllReduceBegin and completed at AllReduceWait
// (paper §3.2's overlapped eager sync), or runs blocking at the Wait when
// overlap = false — bitwise the same result either way. Per stage, the
// engine picks one of three paths:
//
//   sharded      the ring exchange of a group of g > 1 ranks under an
//                elementwise update rule (everything but LAMB). The
//                collective is the ring's reduce-scatter half, which hands
//                this rank its segment of the sums as a message; at the
//                flush the rank applies the rule (optim::apply_flat) to that
//                segment of the parameter view, with optimizer state for
//                the segment only, and allgathers the parameter view, its
//                own segment forwarded from the same message. The ring
//                allreduce is that reduce-scatter plus an allgather and the
//                rule is elementwise, so the weights are bitwise those of
//                the replicated path: ZeRO-1 (Rajbhandari et al.) at 1/g of
//                the update work and state per rank, where g = num_pipes·W
//                (2f·W for Chimera).
//   replicated   every other exact exchange — LAMB (per-tensor trust
//                ratio), the naive, recursive-doubling and Rabenseifner
//                algorithms (their summation order is not the
//                reduce-scatter's), groups of one rank: a full allreduce,
//                then Optimizer::step on every replica.
//   compressed   lossy quantized/top-k exchange, blocking at Wait, then the
//                replicated step (replica-consistent: every rank decodes
//                the same byte stream).
//
// A worker hosting a stage twice (GEMS at odd depth) adds the other local
// replicas' gradients into the first's, in hosting order, before the
// collective, and copies the result (replicated) or the updated weights
// (sharded) back out after it.
//
// PipeDream's per-micro-batch replica sync (no AllReduce ops in the
// schedule) goes through sync_micro(); the asynchronous schemes step every
// replica themselves. One engine instance lives on one worker thread for
// one iteration.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "comm/world.h"
#include "core/execution_plan.h"
#include "runtime/options.h"
#include "runtime/worker_state.h"

namespace chimera::rt {

/// Per-parameter gradient primitives shared by the sync engine's local
/// replica combine and the trainer's 2BW cross-replica reduction. `to` and
/// `from` are the params() of two replicas of one stage.
/// add_grads: to.grad += from.grad, elementwise (bitwise ≡ the scalar loop
/// in every kernel tier, so caller order fixes each element's summation
/// order). copy_grads: to.grad = from.grad.
void add_grads(const std::vector<nn::Param*>& to,
               const std::vector<nn::Param*>& from);
void copy_grads(const std::vector<nn::Param*>& to,
                const std::vector<nn::Param*>& from);

class GradSyncEngine {
 public:
  GradSyncEngine(TrainDeployment& dep, const TrainerOptions& opts,
                 WorkerState& me, int rank, long iteration);
  ~GradSyncEngine();

  /// AllReduceBegin of `stage`: combine the local replicas' gradients into
  /// the first's; with overlap, launch the exact exchange nonblocking.
  void begin(int stage);

  /// AllReduceWait of `stage`: complete (or run) the exchange. A replicated
  /// stage's gradients are final here; a sharded one waits for the flush.
  void wait(int stage);

  /// PipeDream per-micro-batch sync: allreduce this replica's gradients
  /// across the W data-parallel replicas of its stage, blocking.
  void sync_micro(Replica& r);

  /// Flush of a synchronous iteration: distributed global-norm clipping
  /// (when configured), the replicated steps and the sharded segment
  /// updates (one kOptimStep span), then each sharded stage's parameter
  /// allgather in ascending stage order (one kGradSync span each). Must run
  /// after every schedule Wait op of this worker has executed.
  void finalize(double lr_mult);

 private:
  /// One stage's in-flight gradient exchange.
  struct StageSync {
    std::vector<Replica*> local;  ///< this rank's replicas of the stage
    std::vector<int> ranks;       ///< the stage's replica group, ascending
    comm::FlatView grads;         ///< local[0]'s gradients, reduced in place
    comm::Request request;        ///< overlap: the nonblocking collective
    /// Reduce-scatter only: the entry survives until the flush, which
    /// updates this rank's segment and allgathers the parameters.
    bool sharded = false;
    std::size_t lo = 0, hi = 0;   ///< sharded: this rank's segment
    /// Sharded: the segment's gradient sums from the reduce-scatter (the
    /// view itself is left as scratch), refilled by the update with the new
    /// values it forwards as its allgather message.
    Tensor own;
    comm::FlatView values;        ///< sharded: local[0]'s values
  };

  void combine_local(int stage, StageSync& sync);
  void exchange_compressed(int stage, StageSync& sync);
  /// This rank's term of the global squared gradient norm: one float per
  /// replica or sharded stage, each accumulated in double (optim::sq_norm).
  float local_sq_norm() const;
  /// Sharded stage: apply the rule to this rank's segment of the values.
  void update_segment(int stage, StageSync& sync, double lr_mult,
                      float grad_scale);

  const ExecutionPlan& plan_;
  const TrainerOptions& opts_;
  comm::Communicator& comm_;
  const std::vector<std::unique_ptr<Replica>>& replicas_;  ///< this rank's
  WorkerState& me_;
  int rank_;
  long iteration_;
  /// Ring exchange under an elementwise rule: groups of g > 1 shard.
  bool shardable_;
  std::map<int, StageSync> syncs_;
};

}  // namespace chimera::rt
