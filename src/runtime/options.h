// Runtime configuration shared by the trainer facade and the execution
// units it is composed of (WorkerExecutor, GradSyncEngine, WeightStore),
// plus the serving and decode engines' ServeOptions and DecodeOptions. All
// three derive the settings of the hosting layer (runtime/deployment.h)
// from EngineOptions. docs/OPTIONS.md is the reference table for every
// field and which combinations compose.
#pragma once

#include <functional>

#include "comm/compression.h"
#include "comm/world.h"
#include "core/partition.h"
#include "core/sync_placement.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "tensor/kernels.h"

namespace chimera::rt {

/// What every engine's rt::Deployment reads: how the model splits into
/// stages and how the kernels run.
struct EngineOptions {
  /// How transformer layers are split into stages. The engine plans one
  /// Partition (core/partition.h) and every stage module takes its layer
  /// range from it — the same planners the simulator and analytic models
  /// consume. kBalancedMemory reads the trainer's stash profile; the
  /// forward-only engines stash nothing and plan it with the flat profile.
  PartitionPolicy partition = PartitionPolicy::kEven;
  /// Intra-op helper threads for the shared kernel ComputePool; must be
  /// >= −1. −1 sizes the pool so the engine's ranks plus the helpers never
  /// oversubscribe hardware_concurrency (helpers = max(0, hw − ranks), with
  /// ranks = W·D for training and D for serving and decode); 0 forces the
  /// serial kernel path. The pool is process-wide — the most recently
  /// constructed engine's setting wins — and the kernels' fixed split
  /// points make results bitwise identical at any setting (DESIGN.md §2
  /// item 17).
  int intra_op = -1;
  /// GEMM implementation tier (DESIGN.md §2 item 18). Process-wide like
  /// intra_op — the most recently constructed engine wins — and overridable
  /// by CHIMERA_KERNEL_TIER. kAuto picks the vectorized fast tier on
  /// AVX2+FMA hosts; kScalarReference pins the bitwise reference that the
  /// parity/grad-sync contracts are stated against (gemm/gemm_tn stay
  /// bitwise identical across tiers; gemm_nt is tolerance-equal on kFast).
  KernelPolicy kernel = KernelPolicy::kAuto;
};

struct TrainerOptions : EngineOptions {
  int data_parallel = 1;  ///< W: replicated pipeline groups, >= 1
  /// Update rule + hyper-parameters, applied identically on every replica.
  /// optimizer.clip_norm > 0 enables distributed global-gradient-norm
  /// clipping (synchronous schemes only: the norm spans all stages, so the
  /// trainer allreduces the squared norm across the whole world first).
  optim::OptimizerConfig optimizer{};
  optim::LrSchedule lr_schedule{};  ///< multiplier indexed by iteration
  bool recompute = false;  ///< activation recomputation in every stage
  comm::AllreduceAlgo allreduce = comm::AllreduceAlgo::kRing;
  SyncPolicy sync = SyncPolicy::kAtEnd;  ///< gradient-sync placement
  /// Launch the per-stage gradient exchange nonblocking at its
  /// AllReduceBegin op and complete it at AllReduceWait (paper §3.2's
  /// overlapped eager sync). When false, the whole exchange runs blocking at
  /// the Wait op. Either way each stage's gradients are reduced in place as
  /// one collective over a flat view of them, and results are bitwise
  /// identical. Under kRing with an elementwise rule (not kLamb) the
  /// exchange is a reduce-scatter and the optimizer step is sharded across
  /// the stage's replica group (runtime/grad_sync.h), bitwise the same
  /// weights as a full allreduce followed by a step on every replica.
  bool overlap = true;
  /// Lossy gradient compression for the stage-gradient exchange (the
  /// paper's §5 "next step"). Runs blocking at the Wait op; replicas stay
  /// bitwise consistent because every rank decodes the same byte stream.
  /// The update is replicated (sharding needs exact addition).
  comm::GradCompression compression = comm::GradCompression::kNone;
  /// Fraction of gradient entries kept per round under kTopK.
  double topk_fraction = 0.01;
};

/// Result of one training iteration.
struct IterationResult {
  double loss = 0.0;  ///< mean loss over the mini-batch
};

/// Configuration of the forward-only inference engine (rt::ServingEngine),
/// threaded exactly like TrainerOptions is through the trainer. See
/// docs/OPTIONS.md for the full reference and DESIGN.md §5 for the
/// batcher's padding contract.
struct ServeOptions : EngineOptions {
  /// B: requests the micro-batcher coalesces into one micro-batch slot.
  /// Dispatched tail batches are padded to this many rows; the padded rows'
  /// logits are computed and discarded.
  int max_batch = 4;
  /// Test hook: microsecond clock of the enqueue→logits latency stamps.
  /// Null = monotonic wall clock.
  std::function<long()> clock;
};

/// How rt::DecodeEngine samples the next token from a session's logits.
/// Both are deterministic: kGreedy is the argmax (ties to the lowest id);
/// kTopK softmaxes the k highest logits and draws from a per-session
/// support/rng stream split off sample_seed — the same request always
/// generates the same text.
enum class SamplingKind { kGreedy, kTopK };

/// Configuration of the autoregressive decode engine (rt::DecodeEngine),
/// threaded exactly like ServeOptions. See docs/OPTIONS.md for the
/// reference table and DESIGN.md §6 for the scheduling/cache contract.
struct DecodeOptions : EngineOptions {
  /// Sessions decoded concurrently per decode stream (micro slot): the
  /// continuous-batching width. Total session capacity = num_micro streams
  /// × max_batch; KV-cache memory is bounded by it (nn/kv_cache.h).
  int max_batch = 4;
  /// Default generation cap per request; submit() can override per request.
  /// Always additionally capped so prompt + generated ≤ model.seq + 1
  /// tokens emitted (position limits of the learned embeddings).
  int max_new_tokens = 16;
  /// Sampling a session's next token as this id retires the session
  /// immediately (its slot refills next step). −1 = no EOS token.
  int eos_token = -1;
  SamplingKind sampling = SamplingKind::kGreedy;
  int top_k = 4;                     ///< kTopK: candidates kept per step
  std::uint64_t sample_seed = 1234;  ///< root of the per-session rng streams
  /// Attach each token's full logits row to its TokenEvent — the
  /// step-vs-reforward parity hook of tests/decode_test.cc. Off by default
  /// (a [1, vocab] copy per generated token).
  bool capture_logits = false;
  /// Positions per KV page (nn/kv_page_pool.h). Smaller pages track ragged
  /// prompt lengths more tightly (less last-page waste) at the cost of a
  /// longer page table; must be in [1, model.seq].
  int kv_page_size = 16;
  /// Pages per stage-replica pool. 0 sizes the pool arena-equivalent —
  /// streams-on-pipe × max_batch × ceil(model.seq / kv_page_size) — so every
  /// lane can hold a full-length session (no eviction unless prompts are
  /// adversarial). Smaller pools trade memory for evictions; the engine
  /// requires at least ceil(model.seq / kv_page_size) so a sole session can
  /// always decode to the context limit (the progress guarantee).
  int kv_pool_pages = 0;
  /// Share K/V pages across sessions with a common prompt prefix
  /// (copy-on-write; nn/kv_cache.h). Token streams are bitwise unchanged
  /// either way — sharing only dedupes identical cache rows.
  bool prefix_sharing = true;
  /// Test hook: microsecond clock for enqueue/first-token/done stamps
  /// (time-to-first-token and inter-token latency). Null = monotonic wall
  /// clock.
  std::function<long()> clock;
};

}  // namespace chimera::rt
