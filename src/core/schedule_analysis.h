// Schedule analysis: dependency extraction, the costed plan executor's cost
// and result types, bubble accounting, activation high-water marks and the
// closed-form expressions of the paper's Table 2 / Table 3.
//
// OpIndex is the raw op-lookup/dependency layer. The shared ExecutionPlan
// (core/execution_plan.h) is built on top of it and is what the costed
// replay and the threaded runtime (src/runtime) both execute, so properties
// proven against the replay transfer to simulated and real execution.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule.h"

namespace chimera {

/// Fast lookup of ops by (pipe, stage, micro[, half]) plus dependency
/// enumeration. Build once per schedule.
class OpIndex {
 public:
  explicit OpIndex(const PipelineSchedule& s);

  OpRef forward(int pipe, int stage, int micro) const {
    return fwd_[flat(pipe, stage, micro)];
  }
  OpRef backward(int pipe, int stage, int micro, int half) const {
    return bwd_[flat(pipe, stage, micro) * 2 + half];
  }
  OpRef allreduce_begin(int worker, int stage) const {
    return ar_begin_[worker * sched_->depth + stage];
  }
  /// Workers participating in the gradient allreduce of `stage` (all pipes).
  const std::vector<int>& allreduce_group(int stage) const {
    return ar_group_[stage];
  }

  /// Appends the dependencies of the op at `ref` to `out`:
  ///  forward(p,m..,s):  forward(p,·,s−1) of every covered micro-batch
  ///  backward(p,m,s):   backward(p,m,s+1) (same half) or, at the last
  ///                     stage, the forward covering m there; plus the local
  ///                     forward stash at stage s
  ///  AllReduceWait(s):  AllReduceBegin(s) on every group member
  /// AllReduceBegin has no cross-worker dependencies (program order only).
  void dependencies(OpRef ref, std::vector<OpRef>& out) const;

  const PipelineSchedule& schedule() const { return *sched_; }

 private:
  std::size_t flat(int pipe, int stage, int micro) const {
    return (static_cast<std::size_t>(pipe) * sched_->depth + stage) *
               sched_->num_micro +
           micro;
  }
  const PipelineSchedule* sched_;
  std::vector<OpRef> fwd_;
  std::vector<OpRef> bwd_;
  std::vector<OpRef> ar_begin_;
  std::vector<std::vector<int>> ar_group_;
};

/// Per-op costs for the replay. Units are arbitrary (the analyzer uses
/// forward = 1; the performance model and the simulator use seconds).
struct ReplayCosts {
  double forward = 1.0;    ///< one micro-batch forward on one stage
  double backward = 2.0;   ///< one micro-batch backward (paper: ≈ 2×forward)
  /// Boundary-crossing transfer per micro-batch moved, with no queueing:
  /// the §3.4 latency. Ignored when `network` is set.
  double p2p = 0.0;
  double allreduce = 0.0;  ///< duration of one stage's gradient allreduce
  /// Per-stage forward/backward durations (planned Partition stages are not
  /// equal-cost); override the scalars when non-empty.
  std::vector<double> forward_by_stage;
  std::vector<double> backward_by_stage;
  /// Per-stage allreduce durations; overrides `allreduce` when non-empty.
  std::vector<double> allreduce_by_stage;
  /// CPU time an AllReduceBegin steals from the worker, as a fraction of the
  /// collective duration (nonblocking-progression overhead, §3.2).
  double begin_cpu_fraction = 0.0;
  bool recompute = false;  ///< activation recomputation: backward += forward
  /// §3.5 method costs: a halved backward runs B/2 at lower kernel
  /// saturation (time × this, ≥ 1); a doubled forward fuses two
  /// micro-batches into one better-saturated kernel (time × this, ≤ 1).
  double half_backward_scale = 1.0;
  double double_forward_scale = 1.0;
  /// Multiplicative compute jitter (stddev fraction); 0 = deterministic.
  double jitter = 0.0;
  std::uint64_t seed = 0x5eed;

  /// A contended machine. Each worker's out-link serializes its sends
  /// (α–β: a message of bytes = boundary_bytes·volume holds the link for
  /// β·bytes and lands α later), and each worker's collective port
  /// serializes the allreduces it joins.
  struct Network {
    double alpha = 0.0;
    double beta = 0.0;
    double boundary_bytes = 0.0;
    /// Hierarchical interconnect (MachineSpec::node_size): transfers between
    /// workers in the same node_size block use the intra-node parameters.
    int node_size = 0;
    double intra_alpha = 0.0;
    double intra_beta = 0.0;
  };
  /// Set: the simulator. Unset: p2p is the latency above and collectives
  /// never contend — the performance model, trace report and sync placement.
  std::optional<Network> network;

  double forward_cost(int stage) const {
    if (!forward_by_stage.empty()) return forward_by_stage.at(stage);
    return forward;
  }
  double backward_cost(int stage) const {
    if (!backward_by_stage.empty()) return backward_by_stage.at(stage);
    return backward;
  }
  double allreduce_cost(int stage) const {
    if (!allreduce_by_stage.empty()) return allreduce_by_stage.at(stage);
    return allreduce;
  }
};

struct OpTiming {
  double start = 0.0;
  double end = 0.0;
};

/// Result of a replay.
struct ReplayResult {
  std::vector<std::vector<OpTiming>> times;  ///< [worker][op index]
  double makespan = 0.0;                     ///< end of last op (incl. waits)
  double compute_makespan = 0.0;             ///< end of last compute op
  std::vector<double> busy;                  ///< per-worker compute time
  std::vector<double> bubble;                ///< compute_makespan − busy[w]

  /// Paper definition: bubble overhead / overall runtime, averaged over
  /// workers.
  double bubble_ratio() const;
};

/// Replays the schedule with the given costs. Throws CheckError if the
/// schedule deadlocks (cyclic wait between per-worker order and data
/// dependencies) — well-formed schedules never do. Lowers the schedule onto
/// an ExecutionPlan (core/execution_plan.h) and replays that; callers that
/// already hold a plan should use the replay(ExecutionPlan) overload
/// declared there.
ReplayResult replay(const PipelineSchedule& s, const ReplayCosts& costs);

/// Per-worker high-water mark of stashed forward activations, in
/// micro-batches. Determined by per-worker op order alone (stash is acquired
/// by the local forward and released by the local backward).
std::vector<int> max_inflight_micros(const PipelineSchedule& s);

/// Per-worker count of weight-stage replicas held (Chimera: 2f, GEMS: 2,
/// others: 1) — multiply by per-stage weight bytes for the memory model.
std::vector<int> hosted_replica_count(const PipelineSchedule& s);

/// Closed-form bubble ratios of Table 2 / Table 3 (practical fine-tuned
/// variants; N = micro-batches per worker per iteration).
double bubble_ratio_formula(Scheme scheme, int depth, int num_micro,
                            int pipes_f = 1);

/// Closed-form weights-memory multiple of Mθ held per worker: {min, max}.
std::pair<double, double> weights_memory_formula(Scheme scheme, int depth,
                                                 int num_micro, int pipes_f = 1);

/// Closed-form activations-memory multiple of Ma held per worker: {min, max}.
std::pair<double, double> activations_memory_formula(Scheme scheme, int depth,
                                                     int num_micro,
                                                     int pipes_f = 1);

}  // namespace chimera
