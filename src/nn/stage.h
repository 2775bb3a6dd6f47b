// A pipeline stage of a GPT-style language model: the unit the runtime
// schedules. Stage 0 additionally owns the token/position embeddings, the
// last stage the final LayerNorm, LM head and loss — mirroring the partition
// of core/model_spec.
//
// Activation stashes are keyed by the caller (micro-batch id, or half id for
// backward halving), so any number of micro-batches can be in flight —
// exactly what 1F1B/Chimera schedules require. Weight save/load supports
// PipeDream's weight stashing and PipeDream-2BW's double buffering.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/partition.h"
#include "nn/layers.h"

namespace chimera::nn {

/// Scaled-down GPT architecture for functional (CPU) training.
struct SmallModelConfig {
  int vocab = 97;
  int hidden = 48;
  int heads = 4;
  int layers = 8;
  int seq = 16;
  bool causal = true;
  std::uint64_t seed = 1234;

  /// Cost-model view of this architecture for the shared partition planners
  /// (core/partition.h) — the runtime, simulator and analytic models all
  /// split layers through the same Partition.
  ModelSpec spec() const;
};

/// One micro-batch of token ids with next-token targets.
struct MicroBatch {
  int batch = 0;
  int seq = 0;
  std::vector<int> tokens;   ///< batch·seq ids
  std::vector<int> targets;  ///< batch·seq ids

  /// Rows [first, first+count) of the batch dimension (backward halving /
  /// chunked forwards split micro-batches by batch items).
  MicroBatch slice(int first, int count) const;
};

class StageModule {
 public:
  /// Owns transformer layers `layers` = [begin, end) of the model, as
  /// assigned by a planned Partition. Stage 0 additionally owns the
  /// embeddings, the last stage the final LayerNorm + LM head + loss.
  StageModule(const SmallModelConfig& cfg, int stage, int depth,
              StageRange layers);

  /// Convenience: the paper-faithful even split (plan_even over spec()).
  StageModule(const SmallModelConfig& cfg, int stage, int depth);

  bool is_first() const { return stage_ == 0; }
  bool is_last() const { return stage_ == depth_ - 1; }
  int stage() const { return stage_; }
  const StageRange& layer_range() const { return layers_; }

  /// Runs the stage forward for one micro-batch. `input` is the previous
  /// stage's output activation (ignored on stage 0, which embeds
  /// `mb.tokens`). The activation stash is retained under `key` until the
  /// matching backward. Returns the boundary activation to send downstream
  /// (the last stage returns the pre-head hidden states; they are consumed
  /// locally by backward).
  Tensor forward(const MicroBatch& mb, const Tensor& input, long key);

  /// Forward-only serving path (rt::ServingEngine): runs the stage without
  /// touching the keyed activation stash or any gradient state. Non-last
  /// stages return the boundary activation exactly as forward() would; the
  /// last stage additionally applies the final LayerNorm + LM head and
  /// returns the logits [B·s, vocab] — no loss, no dlogits (the training
  /// head path stays inside backward()). Activations are bitwise identical
  /// to forward()'s: same kernels, same shapes, same accumulation order;
  /// scratch contexts recycle through the stage's stash pool, so steady-
  /// state serving allocates nothing. `mb.seq` may be any length up to
  /// cfg.seq (variable-length prefix forwards).
  Tensor infer(const MicroBatch& mb, const Tensor& input);

  /// Prefill of one whole prompt (mb.batch must be 1): decode_step() over
  /// positions 0..mb.seq−1 of cache session `slot`, whose pages the caller
  /// has made writable. Returns what decode_step() returns (the last stage:
  /// [seq, vocab] logits, whose final row seeds the first sampled token).
  Tensor prefill(const MicroBatch& mb, const Tensor& input, PagedKvCache& cache,
                 int slot);

  /// The single extend path (decode, prefill and resume): row r carries
  /// token `tokens[r]` at position `positions[r]` of cache session
  /// `slots[r]` (stage 0 embeds the tokens; later stages take the previous
  /// stage's [rows, hidden] boundary activation). Each layer appends every
  /// row's K/V before attending over the cached prefix, so one session may
  /// carry several consecutive positions in one call. The last stage
  /// returns [rows, vocab] logits; each row is bitwise equal to the
  /// final-position logits of a full re-forward over that session's token
  /// prefix up to the row (DESIGN.md §6, tests/decode_test.cc).
  Tensor decode_step(const std::vector<int>& tokens,
                     const std::vector<int>& slots,
                     const std::vector<int>& positions, const Tensor& input,
                     PagedKvCache& cache);

  /// Runs the stage backward for one micro-batch, consuming stash `key`.
  /// On the last stage `grad_out` is ignored: the gradient originates from
  /// the cross-entropy loss, scaled by `loss_scale`. Returns the gradient
  /// w.r.t. the stage input (empty on stage 0).
  Tensor backward(const MicroBatch& mb, const Tensor& grad_out, long key,
                  float loss_scale);

  /// Loss of the most recent last-stage backward (mean over the micro-batch,
  /// unscaled).
  double last_loss() const { return last_loss_; }

  std::vector<Param*> params();
  std::vector<const Param*> params() const;
  void zero_grads();
  std::size_t stash_count() const { return stash_.size(); }

  /// Activation recomputation: stash only the boundary input; rebuild the
  /// full stash by re-running forward inside backward.
  void set_recompute(bool on) { recompute_ = on; }

  /// Flat weight snapshot / restore (PipeDream weight stashing).
  std::vector<float> save_weights() const;
  void load_weights(const std::vector<float>& flat);

 private:
  struct Stash {
    Tensor input;       ///< boundary input (empty on stage 0)
    std::vector<TransformerBlock::Ctx> blocks;
    Tensor head_input;  ///< last stage: output of the final block
  };

  /// Last-stage scratch for the head + loss computed in backward. The
  /// logits are the largest tensors in the stage; keeping them in a
  /// persistent workspace (re-shaped in place per micro-batch) removes the
  /// biggest per-micro allocation from the hot path.
  struct HeadWorkspace {
    LayerNorm::Ctx ln;
    Linear::Ctx head;
    Tensor normed, logits, dlogits;
  };

  /// `capture_head_input = false` (the infer path) skips the last stage's
  /// deep copy of the boundary activation into the stash — it exists only
  /// for backward's head + loss computation.
  Tensor run_forward(const MicroBatch& mb, const Tensor& input, Stash& st,
                     bool capture_head_input = true) const;
  /// Last stage only: the logits-only head path (final LayerNorm + LM head
  /// through the persistent workspace) shared by infer and decode_step —
  /// one definition, so the bitwise step-vs-reforward contract cannot drift
  /// between the two.
  Tensor apply_head(const Tensor& x);
  Stash acquire_stash();

  SmallModelConfig cfg_;
  int stage_ = 0;
  int depth_ = 1;
  StageRange layers_{};  ///< global layer range this stage executes
  bool recompute_ = false;
  double last_loss_ = 0.0;

  std::unique_ptr<Param> wte_, wpe_;             // stage 0
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::unique_ptr<LayerNorm> final_ln_;          // last stage
  std::unique_ptr<Linear> head_;                 // last stage (untied)
  std::map<long, Stash> stash_;
  /// Activation arena: retired stashes parked for reuse. Their tensors keep
  /// their micro-batch-shaped storage, so after the first pass over each
  /// shape the forward/backward path constructs no fresh buffers.
  std::vector<Stash> stash_pool_;
  HeadWorkspace head_ws_;  ///< last stage only
  /// Decode scratch shared by every block (same hidden size throughout);
  /// tensors re-shape in place, so steady-state decoding allocates nothing.
  TransformerBlock::DecodeWs decode_ws_;
};

}  // namespace chimera::nn
