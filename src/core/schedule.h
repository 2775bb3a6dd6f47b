// Pipeline-schedule intermediate representation.
//
// A PipelineSchedule is the single data structure shared by the costed
// replay (core/execution_plan.h: the analyzer, the performance model and
// the cluster simulator in src/sim) and the real threaded training runtime
// (src/runtime). It stores, for every worker, an *ordered* list of
// operations plus the stage→worker mapping of every logical pipeline. Start
// times are never stored: both the idealized equal-workload timing and the
// practical backward≈2×forward timing are derived by dependency-driven
// (ASAP) replay, exactly like a real deployment executes the order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/check.h"

namespace chimera {

/// The pipeline-parallel training schemes of the paper (Table 2).
enum class Scheme {
  kChimera,       // this paper: bidirectional pipelines (Section 3)
  kGPipe,         // Huang et al.: all-forward then all-backward, flush
  kDapple,        // Fan et al.: 1F1B with periodic flush
  kGems,          // Jain et al.: two replicas, at most two active micro-batches
  kPipeDream,     // Narayanan et al.: async 1F1B, weight stashing, no flush
  kPipeDream2BW,  // Narayanan et al.: async, double-buffered weights
  kOneF1B,        // single down pipeline with 1F1B + flush (Fig. 19 "1 pipe")
};

const char* scheme_name(Scheme s);

/// How Chimera concatenates basic scheduling units when N > D (Section 3.5).
enum class ScaleMethod {
  kDirect,           // Fig. 7(b): concatenate D-micro-batch units
  kForwardDoubling,  // Fig. 7(c)/(d): forwards carry two micro-batches
  kBackwardHalving,  // forwards full size, backwards split into two halves
};

const char* scale_method_name(ScaleMethod m);

enum class OpKind : std::uint8_t {
  kForward,
  kBackward,
  kAllReduceBegin,  // launch nonblocking gradient allreduce for one stage
  kAllReduceWait,   // completion point of that allreduce
};

/// One entry of a worker's ordered timeline.
struct Op {
  OpKind kind = OpKind::kForward;
  /// First micro-batch id covered by this op (global id within the
  /// iteration). −1 for collective ops.
  int micro = -1;
  /// Number of micro-batches fused into this op (forward doubling ⇒ 2).
  int chunk = 1;
  /// Pipeline stage executed (0 = input stage). For collectives: the stage
  /// whose gradients are synchronized.
  int stage = -1;
  /// Which logical pipeline this op belongs to (0..num_pipes−1). Chimera
  /// orders pipes [down0, up0, down1, up1, ...]; baselines use pipe 0, GEMS
  /// uses pipes {0 = down replica, 1 = up replica}. For collectives: the
  /// local replica whose gradients are synchronized.
  int pipe = 0;
  /// Backward halving: ops with half_count == 2 process half a micro-batch;
  /// half_index ∈ {0,1} distinguishes the two halves.
  std::uint8_t half_index = 0;
  std::uint8_t half_count = 1;

  bool is_compute() const {
    return kind == OpKind::kForward || kind == OpKind::kBackward;
  }
  bool covers_micro(int m) const { return m >= micro && m < micro + chunk; }
};

/// Reference to one op as (worker, index-in-timeline).
struct OpRef {
  int worker = -1;
  int index = -1;
  bool valid() const { return worker >= 0; }
  friend bool operator==(const OpRef&, const OpRef&) = default;
};

/// Configuration for schedule construction.
struct ScheduleConfig {
  int depth = 4;       ///< D: number of pipeline stages.
  int num_micro = 4;   ///< N: micro-batches executed by each worker/iteration.
  int pipes_f = 1;     ///< f: Chimera combines f down + f up pipelines.
  ScaleMethod scale = ScaleMethod::kDirect;  ///< Used when N > D (Chimera).
};

/// A complete per-iteration pipeline schedule for D workers.
struct PipelineSchedule {
  Scheme scheme = Scheme::kChimera;
  int depth = 0;      ///< D
  int num_micro = 0;  ///< N
  int num_pipes = 1;  ///< 2f for Chimera, 2 for GEMS, 1 otherwise
  bool synchronous = true;
  /// Inference serving: the schedule contains forward ops only — no
  /// backward, no collectives, and (because nothing ever consumes them) no
  /// activation-stash events when lowered to an ExecutionPlan. Built by
  /// build_inference_schedule (core/inference_schedule.h); validate()
  /// checks the forward-only invariants instead of the training ones.
  bool forward_only = false;
  /// Autoregressive decode: this is the steady-state *step* schedule of
  /// rt::DecodeEngine — each micro slot is one seq-1 decode stream whose
  /// sessions carry KV-cache state across steps. Implies forward_only; the
  /// ExecutionPlan lowering additionally emits cache-slot acquire/release
  /// events (the decode analogue of stash events: admission binds sessions
  /// at the pipe head, retirement frees slots at the tail). Built by
  /// build_decode_schedule (core/decode_schedule.h).
  bool decode = false;

  /// worker_ops[w] is the ordered op list of worker w (size == depth).
  std::vector<std::vector<Op>> worker_ops;

  /// stage_worker[p][s]: worker that hosts stage s of pipeline p.
  std::vector<std::vector<int>> stage_worker;

  /// pipe_of_micro[m]: the pipeline that transports micro-batch m.
  std::vector<int> pipe_of_micro;

  int worker_of(int pipe, int stage) const {
    return stage_worker.at(pipe).at(stage);
  }

  const Op& op(OpRef r) const { return worker_ops[r.worker][r.index]; }

  /// Total number of ops across all workers.
  std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& t : worker_ops) n += t.size();
    return n;
  }

  /// Stage replicas hosted by a worker, as (pipe, stage) pairs, in pipe order.
  std::vector<std::pair<int, int>> hosted_stages(int worker) const;
};

/// Builds the schedule for any scheme. `cfg.pipes_f` and `cfg.scale` are only
/// meaningful for kChimera. Throws CheckError on invalid configurations
/// (e.g. odd depth for Chimera, f not dividing D/2).
PipelineSchedule build_schedule(Scheme scheme, const ScheduleConfig& cfg);

/// One structural violation found by validate_schedule: a stable check id
/// ("shape", "stage-map", "forward-only", "decode", "lowering",
/// "completeness", "dep-order", "replay") plus a human-readable description.
/// The rt::RequestError pattern applied to schedules: a rejected schedule is
/// the *submitter's* problem, reported as data, so a fuzzer (or a future
/// user-defined-schedule API) can observe rejections instead of dying on a
/// CHECK mid-sweep.
struct ScheduleIssue {
  std::string check;
  std::string message;
};

/// Structural validation, recoverable form: every micro-batch traverses
/// every stage exactly once forward and once backward, per-worker order
/// respects stash availability, chunk/half bookkeeping is consistent, and
/// the schedule is deadlock-free under dependency-driven execution. Returns
/// every violation found (empty means valid); never throws on malformed
/// schedules — internal CheckErrors from lowering are converted into
/// "lowering" issues.
std::vector<ScheduleIssue> validate_schedule(const PipelineSchedule& s);

/// CHECK wrapper over validate_schedule for callers that treat an invalid
/// schedule as an internal invariant failure (every schedule builder does:
/// their output must validate). Throws CheckError describing the first
/// violation.
void validate(const PipelineSchedule& s);

}  // namespace chimera
