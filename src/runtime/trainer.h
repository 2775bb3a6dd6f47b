// Threaded pipeline-parallel training runtime — the facade over the layered
// execution engine.
//
// Executes any PipelineSchedule for real: one persistent thread per worker
// (rank) parked between iterations, stage modules with hand-written
// backward, activations and gradients exchanged through the message-passing
// substrate, and per-stage gradient allreduce across bidirectional-pipeline
// replicas and data-parallel groups.
//
// The trainer itself only assembles and drives the layers:
//   core/execution_plan  — what runs, in which order, with which deps/tags
//   runtime/deployment   — the hosting layer shared with serving and decode:
//                          partition, communicators, one Replica per hosted
//                          stage and the persistent rank threads (created
//                          once)
//   runtime/worker_executor — the per-rank op-dispatch loop
//   runtime/grad_sync    — gradient exchange + synchronous optimizer step
//   runtime/weight_store — weight versioning (stashing, double buffering)
// Kernels inside the stage modules additionally shard onto the shared
// intra-op ComputePool (tensor/compute_pool.h), sized so pipeline workers
// plus helpers never oversubscribe the host (DESIGN.md §2 item 17).
//
// Semantics per scheme:
//  - synchronous (Chimera, GPipe, DAPPLE, GEMS, 1F1B): gradients accumulate
//    over the iteration, are reduced at the schedule's AllReduce ops, and
//    a single optimizer step runs at the flush (sharded across each stage's
//    replica group on the ring path). The result is exactly mini-batch
//    training — verified against SequentialTrainer by the tests.
//  - PipeDream: weight stashing — the forward of micro-batch m snapshots the
//    weights; its backward runs against that snapshot; the update (allreduced
//    across the W replicas) applies to the latest weights after every
//    micro-batch.
//  - PipeDream-2BW: double-buffered weights — iteration k computes with the
//    one-step-stale version w_{k−1} while updates apply to the newest.
#pragma once

#include <memory>
#include <vector>

#include "core/exec_config.h"
#include "runtime/options.h"
#include "runtime/weight_store.h"
#include "runtime/worker_state.h"

namespace chimera::rt {

/// The layer partition the runtime executes for `model` at `depth` under
/// `policy` — policy dispatch over the shared planners of core/partition.h.
/// kBalancedMemory reads the in-flight stash profile from `schedule` (an
/// even profile is assumed when none is given).
Partition runtime_partition(const nn::SmallModelConfig& model, int depth,
                            PartitionPolicy policy,
                            const PipelineSchedule* schedule = nullptr);

class PipelineTrainer {
 public:
  PipelineTrainer(const nn::SmallModelConfig& model, Scheme scheme,
                  const ScheduleConfig& sched_cfg, const TrainerOptions& opts);
  ~PipelineTrainer();

  /// Runs one training iteration. `batch.batch` must equal B·N·W for an
  /// integral micro-batch size B (halved micro-batches additionally need an
  /// even B).
  IterationResult train_iteration(const nn::MicroBatch& batch);

  const PipelineSchedule& schedule() const { return dep_->schedule(); }

  /// The shared plan all ranks execute (also what the analyzer's replay and
  /// the simulator run for this schedule).
  const ExecutionPlan& plan() const { return dep_->plan(); }

  /// The planned layer partition every hosted stage module was built from.
  const Partition& partition() const { return dep_->partition(); }

  /// Flattened weights of the replica of `stage` in data-parallel group
  /// `group` hosted via pipeline `pipe` (tests compare replicas/reference).
  std::vector<float> stage_weights(int group, int pipe, int stage) const;

  /// Number of stashed weight versions currently held for (group, pipe,
  /// stage) — PipeDream's weight-stashing footprint.
  int weight_versions(int group, int pipe, int stage) const;

  /// Optimizer-state values held by the replica's own Optimizer (group,
  /// pipe, stage): 0 where the stage's update is sharded — that state lives
  /// in the ranks' segments instead (runtime/grad_sync.h).
  std::size_t optimizer_state_numel(int group, int pipe, int stage) const;

 private:
  void run_worker(int group, int worker, const nn::MicroBatch& batch, int B,
                  std::vector<double>& losses);
  void reduce_2bw_worker(int rank);
  const Replica& find_replica(int group, int pipe, int stage) const;

  nn::SmallModelConfig model_;
  Scheme scheme_;
  TrainerOptions opts_;
  std::vector<WorkerState> workers_;  ///< [group·D + worker]
  std::unique_ptr<WeightStore> store_;
  long iteration_ = 0;
  /// Last member: its pool parks and joins the rank threads while the state
  /// above is still alive. Each rank's Communicator lives for the trainer's
  /// lifetime (collective tag sequences stay in lockstep because every
  /// group member enters the same collectives each iteration).
  std::unique_ptr<TrainDeployment> dep_;
};

/// Reference: the same model trained on one device with identical
/// micro-batching and update rule. Synchronous pipeline schemes must match
/// this trainer's weights after every iteration (up to float summation
/// order).
class SequentialTrainer {
 public:
  SequentialTrainer(const nn::SmallModelConfig& model, const TrainerOptions& opts);
  ~SequentialTrainer();

  /// `num_micros` = N·W slices, processed in order.
  IterationResult train_iteration(const nn::MicroBatch& batch, int num_micros);

  std::vector<float> weights() const;
  /// Weights restricted to the parameters of `stage` under a depth-D
  /// partition (for comparing against one pipeline stage replica).
  std::vector<float> stage_weights(int stage, int depth) const;

 private:
  nn::SmallModelConfig model_;
  TrainerOptions opts_;
  std::unique_ptr<nn::StageModule> module_;
  std::unique_ptr<optim::Optimizer> opt_;
  long iteration_ = 0;
};

}  // namespace chimera::rt
