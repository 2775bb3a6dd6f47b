// First-class layer partition: the single description of how a model's
// transformer layers are split into pipeline stages.
//
// The paper evenly partitions the basic layers among the workers (§4.2.3),
// but the "even" split is genuinely imbalanced: stage 0 additionally carries
// the embeddings and stage D−1 the output head (2·B·s·h·V forward FLOPs —
// several transformer layers' worth at V ≈ 50k), and the slowest stage sets
// the pipeline clock for every scheme. A Partition therefore stores explicit
// per-stage layer ranges plus precomputed per-stage parameter, FLOP and
// activation-byte totals, and is produced by pluggable planners:
//
//   kEven            the paper-faithful near-even split (default),
//   kBalancedFlops   DP minimizing the max per-stage forward time with
//                    embedding and head compute included (PipeDream-style
//                    cost balancing, Harlap et al.),
//   kBalancedMemory  DP balancing per-stage bytes (weights + stashed
//                    activations) under the scheme's in-flight-micro-batch
//                    profile.
//
// The analytic models (core/perf_model, core/memory_model), the
// simulator (sim/simulate) and the threaded runtime
// (runtime/trainer → nn::StageModule) all consume the same Partition, so
// they provably execute the same split. See DESIGN.md §3.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_spec.h"

namespace chimera {

struct ExecConfig;        // core/exec_config.h (which includes this header)
struct PipelineSchedule;  // core/schedule.h

/// Contiguous block of transformer layers [begin, end) owned by one stage.
struct StageRange {
  int begin = 0;
  int end = 0;
  int size() const { return end - begin; }
  friend bool operator==(const StageRange&, const StageRange&) = default;
};

/// Which planner produces the stage partition of a deployment.
enum class PartitionPolicy { kEven, kBalancedFlops, kBalancedMemory };

const char* partition_policy_name(PartitionPolicy p);

/// Explicit per-stage layer ranges with precomputed per-stage costs.
/// Immutable after construction; the constructor validates that the ranges
/// cover all layers exactly once (contiguous, non-empty, in order).
class Partition {
 public:
  Partition(const ModelSpec& model, std::vector<StageRange> ranges);

  int depth() const { return static_cast<int>(ranges_.size()); }
  const StageRange& range(int stage) const { return ranges_.at(stage); }
  const std::vector<StageRange>& ranges() const { return ranges_; }
  int layers_in_stage(int stage) const { return range(stage).size(); }

  /// Parameters hosted by `stage` (stage 0 adds the embeddings, the last
  /// stage the output head); sums to model().total_params().
  std::int64_t stage_params(int stage) const { return params_.at(stage); }

  /// Forward FLOPs of one micro-batch of size B on `stage`, *including* the
  /// embedding lookup on stage 0 and the output head on the last stage —
  /// the quantity that actually sets the pipeline clock.
  double stage_fwd_flops(int stage, int B) const {
    return fwd_flops_unit_.at(stage) * B;
  }

  /// Activation bytes stashed per in-flight micro-batch on `stage`.
  double stage_activation_bytes(int stage, int B) const {
    return act_bytes_unit_.at(stage) * B;
  }

  /// The pipeline clock: max over stages of forward FLOPs.
  double max_stage_fwd_flops(int B) const;
  std::int64_t max_stage_params() const;

  /// Forward FLOPs of one autoregressive *decode step* on `stage`: B
  /// sessions, one current token each, attending over `ctx` cached
  /// positions (the seq→1 specialization of stage_fwd_flops: per layer
  /// 24·B·h² for the GEMMs plus 4·B·ctx·h for KV-cache attention; stage 0
  /// adds the embedding lookup, the last stage the 2·B·h·V head GEMM —
  /// which no longer amortizes over s positions, so at GPT vocabulary
  /// proportions the head dominates the decode clock even harder than the
  /// prefill clock). Feeds the decode plan's dependency-exact replay
  /// (bench/decode_throughput.cc).
  double stage_decode_flops(int stage, int B, int ctx) const;

  const ModelSpec& model() const { return model_; }

  /// "0-15 | 16-31 | ..." — layer ranges for logs and figure legends.
  std::string describe() const;

 private:
  ModelSpec model_;
  std::vector<StageRange> ranges_;
  std::vector<std::int64_t> params_;
  std::vector<double> fwd_flops_unit_;  ///< per-stage forward FLOPs at B=1
  std::vector<double> act_bytes_unit_;  ///< per-stage stash bytes at B=1
};

/// The paper's §4.2.3 near-even split: layers/D per stage, the first
/// layers mod D stages take one extra.
Partition plan_even(const ModelSpec& model, int depth);

/// Minimizes the max per-stage forward FLOPs (embedding + head included)
/// over all contiguous partitions, by dynamic programming. Independent of B
/// (every cost term is linear in B).
Partition plan_balanced_flops(const ModelSpec& model, int depth);

/// Minimizes the max per-stage bytes: (12 + 4·weight_versions[s])
/// B/parameter of weight state (live fp32 weights + gradients + momentum,
/// plus any stashed weight copies the scheme keeps on stage s) plus stashed
/// activations weighted by `stage_inflight` (in-flight micro-batches
/// stashed by each stage under the target schedule). Empty vectors mean 1
/// in flight / 0 extra versions per stage.
Partition plan_balanced_memory(const ModelSpec& model, int depth,
                               const std::vector<double>& stage_inflight,
                               int B = 1,
                               const std::vector<double>& weight_versions = {});

/// Policy dispatch. kBalancedMemory reads the in-flight stash profile and
/// the stashed-weight-version profile from `schedule` (PipeDream's no-flush
/// steady state keeps D−s micro-batches and D−s−1 extra weight copies on
/// stage s, PipeDream-2BW one double buffer everywhere); with no schedule
/// an even profile is assumed. This is the one dispatcher the analytic
/// models, the simulator and the runtime all plan through.
Partition plan_partition(const ModelSpec& model, int depth,
                         PartitionPolicy policy,
                         const PipelineSchedule* schedule = nullptr, int B = 1);

/// Convenience for one deployment: builds cfg's schedule when the memory
/// planner needs the profiles.
Partition plan_partition(const ModelSpec& model, const ExecConfig& cfg);

/// Max stashed micro-batches per *stage* (max over the pipes replicating the
/// stage), from per-worker op order — the weight vector kBalancedMemory
/// balances against.
std::vector<double> stage_inflight_profile(const PipelineSchedule& s);

}  // namespace chimera
