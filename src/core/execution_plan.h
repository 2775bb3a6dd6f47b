// ExecutionPlan: the fully resolved, executor-agnostic lowering of a
// PipelineSchedule.
//
// A PipelineSchedule says *what* runs in which order on each worker; an
// ExecutionPlan additionally precomputes, once per schedule, everything an
// executor needs to run it:
//   - the dependency list of every op (from OpIndex::dependencies),
//   - the p2p send/recv endpoints and message tags of every compute op,
//     split into per-micro-batch (and per-half) units,
//   - stash acquire/release events (forward acquires an activation stash,
//     the last backward half releases it),
//   - the gradient-allreduce group of every stage.
//
// Two executors run the same plan: the costed replay below and the threaded
// training runtime (src/runtime). The replay is the reference timing
// semantics of the analyzer and the performance model and, given a
// contended network (ReplayCosts::network), the cluster simulator
// (src/sim). Because both executors walk identical dependency lists and
// transfer units, properties proven against the replay transfer to
// simulated and real execution.
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule_analysis.h"

namespace chimera {

/// One micro-batch (or backward half) processed by a compute op, with its
/// p2p endpoints, message tags and stash events fully resolved. Workers are
/// pipeline-group-local indices (0..D−1); a data-parallel runtime offsets
/// them by its group base rank.
struct MicroUnit {
  int micro = -1;   ///< global micro-batch id within the iteration
  int half = 0;     ///< backward halving: which half (0 unless halved)
  int halves = 1;   ///< 2 for halved backwards, 1 otherwise
  long stash_key = 0;  ///< activation-stash key in nn::StageModule
  int recv_from = -1;  ///< producer worker, −1 when no inbound transfer
  std::int64_t recv_tag = 0;
  int send_to = -1;    ///< consumer worker, −1 when no outbound transfer
  std::int64_t send_tag = 0;
  bool acquires_stash = false;  ///< first forward half: stash grows by one micro
  bool releases_stash = false;  ///< last backward half: stash shrinks by one
  /// Decode schedules only (PipelineSchedule::decode) — the KV-cache
  /// analogue of the stash events. The head stage of a decode stream is
  /// where session→cache-slot bindings become live (rt::DecodeEngine admits
  /// queued requests into free slots there, and embeds their tokens); the
  /// tail stage is where they can end (logits land, tokens are sampled,
  /// finished sessions retire and free their slots for the next step).
  bool acquires_cache_slot = false;  ///< stage 0 of a decode stream's step
  bool releases_cache_slot = false;  ///< last stage of a decode stream's step
};

/// One schedule op with its precomputed dependencies and transfer units.
struct PlannedOp {
  Op op;
  OpRef ref;
  std::vector<OpRef> deps;       ///< see OpIndex::dependencies
  std::vector<MicroUnit> units;  ///< compute ops only; empty for collectives
};

/// Built once per schedule; immutable and shared by every executor.
class ExecutionPlan {
 public:
  explicit ExecutionPlan(const PipelineSchedule& s);

  const PipelineSchedule& schedule() const { return *sched_; }
  const OpIndex& index() const { return index_; }

  /// Ordered plan of worker `w` (parallel to schedule().worker_ops[w]).
  const std::vector<PlannedOp>& worker_plan(int w) const { return plan_[w]; }
  const PlannedOp& planned(OpRef r) const { return plan_[r.worker][r.index]; }

  /// Workers participating in the gradient allreduce of `stage`.
  const std::vector<int>& allreduce_group(int stage) const {
    return index_.allreduce_group(stage);
  }

  /// True when micro-batch `m`'s backward is split into two halves
  /// (ScaleMethod::kBackwardHalving); forwards then also run two slices.
  bool micro_is_halved(int m) const { return halved_micro_[m]; }

  /// Message tag of the transfer consumed by op (kind, pipe, stage, micro,
  /// half). Tags are unique per receiving op; the runtime's mailbox matching
  /// and any future transport share this one definition.
  static std::int64_t p2p_tag(OpKind kind, int pipe, int stage, int micro,
                              int half);

 private:
  const PipelineSchedule* sched_;
  OpIndex index_;
  std::vector<std::vector<PlannedOp>> plan_;
  std::vector<bool> halved_micro_;
};

/// Dependency-driven replay of the plan — the one costed executor (see
/// core/schedule_analysis.h for the cost model). Without a network every op
/// starts as soon as its worker and its inputs are free (ASAP). With one,
/// ops run earliest-start first, ties to the highest worker, so sends queue
/// on out-links and collectives on ports in time order. Throws CheckError
/// on deadlock. The PipelineSchedule overload declared there lowers onto
/// this one.
ReplayResult replay(const ExecutionPlan& plan, const ReplayCosts& costs);

/// Per-worker high-water mark of stashed forward activations, in
/// micro-batches, derived from the plan's stash acquire/release events.
std::vector<int> max_inflight_micros(const ExecutionPlan& plan);

/// Per-worker count of decode-stream slot bindings the worker's hosted
/// stage replicas can carry (each replica caches the KV state of every
/// stream of its pipe) — the decode analogue of max_inflight_micros, and
/// what rt::DecodeEngine multiplies by its session batch to size each
/// worker's KV arenas. Verifies the plan's cache-slot events on the way
/// (every stream acquires exactly once at its head stage and releases
/// exactly once at its tail; throws otherwise). Zero for non-decode plans.
std::vector<int> max_live_cache_bindings(const ExecutionPlan& plan);

/// Geometry of the paged KV subsystem (nn/kv_page_pool.h) as the planning
/// layer sees it — enough to turn the plan's cache-slot events into a page
/// budget without referencing runtime types.
struct KvPageGeometry {
  int page_size = 16;   ///< positions per page
  int max_seq = 16;     ///< context window (positions per session at most)
  int max_batch = 1;    ///< sessions per decode stream (lane count)
  /// Pages per stage-replica pool; 0 = arena-equivalent auto sizing
  /// (streams-on-pipe × max_batch × pages_per_session).
  int pool_pages = 0;

  /// ceil(max_seq / page_size): pages one full-length session claims.
  int pages_per_session() const {
    return (max_seq + page_size - 1) / page_size;
  }
};

/// Per-worker KV page pool capacity claimed by a decode plan under geometry
/// `g` — the paged generalization of max_live_cache_bindings (which it
/// calls, inheriting the cache-slot event verification): each hosted stage
/// replica contributes one pool of `g.pool_pages` pages, or the
/// arena-equivalent streams-on-pipe × max_batch × pages_per_session when
/// pool_pages is 0. rt::DecodeEngine cross-checks its constructed pools
/// against this, and verify/ replays it against a plan's serialized
/// `kv_pages` claim (kPageBudget). Zero for non-decode plans.
std::vector<int> kv_page_budget(const ExecutionPlan& plan,
                                const KvPageGeometry& g);

}  // namespace chimera
