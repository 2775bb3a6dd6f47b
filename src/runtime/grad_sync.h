// GradSyncEngine: gradient synchronization and the synchronous optimizer
// step, factored out of the op-dispatch loop.
//
// The engine owns the per-stage gradient buckets of one rank (the flattened
// sum of the rank's local replica gradients for a stage, exchanged as one
// collective) and dispatches AllReduceBegin/AllReduceWait and the flush to a
// strategy object chosen once at construction:
//
//   blocking        whole exchange runs at the Wait op (overlap = false)
//   eager-overlap   nonblocking launch at Begin, completion at Wait — the
//                   paper's §3.2 overlapped eager sync (bitwise identical
//                   to blocking)
//   ZeRO-1          reduce-scatter at Wait, sharded optimizer update +
//                   allgather at the flush (bitwise identical to the ring
//                   allreduce path)
//   compressed      lossy quantized/top-k exchange at Wait (replica-
//                   consistent: every rank decodes the same byte stream)
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

/// Flat gradient-bucket primitives shared by the sync engine's buckets and
/// the trainer's 2BW cross-replica reduction. Accumulation is element-wise
/// in caller order, so the per-element summation order (and the bits) match
/// a serial in-place reduction.
std::size_t flat_grad_size(const std::vector<nn::Param*>& params);
void copy_grads_flat(const std::vector<nn::Param*>& params, float* buf);
void add_grads_flat(const std::vector<nn::Param*>& params, float* buf);
void load_grads_flat(const std::vector<nn::Param*>& params, const float* buf);

class GradSyncEngine {
 public:
  GradSyncEngine(TrainDeployment& dep, const TrainerOptions& opts,
                 WorkerState& me, int rank, long iteration);
  ~GradSyncEngine();

  /// AllReduceBegin of `stage`: fill the bucket, strategy may launch.
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
    std::vector<float> bucket;    ///< flattened local gradient sum
    comm::Request request;        ///< overlap: the nonblocking collective
  };

  void fill_bucket(int stage, StageSync& sync);
  void drain_bucket(StageSync& sync);
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
