// GradSyncEngine: gradient synchronization and the synchronous optimizer
// step, factored out of the op-dispatch loop.
//
// The engine reduces each stage's gradients in place: the collective runs
// over a piecewise flat view (comm::FlatView) of the first local replica's
// parameter gradients, so no staging bucket exists. It dispatches
// AllReduceBegin/AllReduceWait and the flush to a strategy object chosen
// once at construction:
//
//   blocking        whole exchange runs at the Wait op (overlap = false)
//   eager-overlap   nonblocking launch at Begin, completion at Wait — the
//                   paper's §3.2 overlapped eager sync (bitwise identical
//                   to blocking)
//   ZeRO-1          reduce-scatter at Wait; at the flush, the sharded
//                   optimizer update runs over this rank's segment of the
//                   gradient and parameter views and the parameter view is
//                   allgathered (bitwise identical to the ring allreduce
//                   path)
//   compressed      lossy quantized/top-k exchange at Wait (replica-
//                   consistent: every rank decodes the same byte stream)
//
// A worker hosting a stage twice (GEMS at odd depth) adds the other local
// replicas' gradients into the first's, in hosting order, before the
// collective, and copies the result back out after it.
//
// PipeDream's per-micro-batch replica sync (no AllReduce ops in the
// schedule) goes through sync_micro(). One engine instance lives on one
// worker thread for one iteration.
#pragma once

#include <map>
#include <memory>
#include <utility>
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
  /// the first's, strategy may launch.
  void begin(int stage);

  /// AllReduceWait of `stage`: strategy completes (or stages) the exchange.
  void wait(int stage);

  /// PipeDream per-micro-batch sync: allreduce this replica's gradients
  /// across the W data-parallel replicas of its stage, blocking.
  void sync_micro(Replica& r);

  /// Flush of a synchronous iteration: distributed global-norm clipping
  /// (when configured) followed by the strategy's optimizer update. Must run
  /// after every schedule Wait op of this worker has executed.
  void finalize(double lr_mult);

 private:
  class Strategy;
  class BlockingStrategy;
  class OverlapStrategy;
  class ZeroShardStrategy;
  class CompressedStrategy;

  /// One stage's in-flight gradient exchange.
  struct StageSync {
    std::vector<Replica*> local;  ///< this rank's replicas of the stage
    comm::FlatView grads;         ///< local[0]'s gradients, reduced in place
    comm::Request request;        ///< overlap: the nonblocking collective
  };

  void combine_local(int stage, StageSync& sync);
  void scatter_local(StageSync& sync);
  /// Ranks participating in `stage`'s gradient exchange, across all
  /// data-parallel groups and pipes, ascending.
  std::vector<int> allreduce_ranks(int stage) const;
  /// ZeRO-1: bounds of the flat-parameter segment this rank owns.
  std::pair<std::size_t, std::size_t> zero_segment(int stage,
                                                   std::size_t n) const;

  const ExecutionPlan& plan_;
  const TrainerOptions& opts_;
  comm::Communicator& comm_;
  const std::vector<std::unique_ptr<Replica>>& replicas_;  ///< this rank's
  WorkerState& me_;
  int rank_;
  long iteration_;
  std::map<int, StageSync> syncs_;
  std::unique_ptr<Strategy> strategy_;
};

}  // namespace chimera::rt
