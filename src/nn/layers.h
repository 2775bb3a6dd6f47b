// Neural-network layers with hand-written backward passes.
//
// Each layer owns its parameters and gradients and exposes
// forward(x, ctx) / backward(dy, ctx) where ctx carries the per-micro-batch
// activation stash. Keeping the stash external to the layer is what lets the
// pipeline runtime hold many micro-batches in flight (1F1B, Chimera) and
// drop/recompute stashes per the schedule.
#pragma once

#include <string>
#include <vector>

#include "nn/kv_cache.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace chimera::nn {

/// One learnable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, int rows, int cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}
};

/// Y = X·W + b.
class Linear {
 public:
  Linear(std::string name, int in, int out, Rng& rng, float init_scale);

  struct Ctx {
    Tensor x;  ///< saved input
  };

  Tensor forward(const Tensor& x, Ctx& ctx) const;
  /// Like forward but writes into `y` (re-shaped in place) — callers with a
  /// persistent workspace avoid constructing the output.
  void forward_into(const Tensor& x, Ctx& ctx, Tensor& y) const;
  /// Fused Linear→GELU forward of the MLP hot path: y = x·W + b and
  /// g = gelu(y), both re-shaped in place. One gemm_bias_gelu call, so the
  /// fast kernel tier applies bias and GELU as a cache-hot tile epilogue;
  /// bitwise equal to forward_into + gelu_forward in every tier.
  void forward_gelu_into(const Tensor& x, Ctx& ctx, Tensor& y,
                         Tensor& g) const;
  Tensor backward(const Tensor& dy, const Ctx& ctx);

  void collect(std::vector<Param*>& out) {
    out.push_back(&w_);
    out.push_back(&b_);
  }
  void collect(std::vector<const Param*>& out) const {
    out.push_back(&w_);
    out.push_back(&b_);
  }
  const Param& weight() const { return w_; }

 private:
  Param w_;
  Param b_;
};

/// Row-wise LayerNorm with affine parameters.
class LayerNorm {
 public:
  explicit LayerNorm(std::string name, int hidden);

  struct Ctx {
    Tensor x, mean, rstd;
  };

  Tensor forward(const Tensor& x, Ctx& ctx) const;
  /// Workspace variant of forward: `y` is re-shaped in place.
  void forward_into(const Tensor& x, Ctx& ctx, Tensor& y) const;
  Tensor backward(const Tensor& dy, const Ctx& ctx);

  void collect(std::vector<Param*>& out) {
    out.push_back(&gamma_);
    out.push_back(&beta_);
  }
  void collect(std::vector<const Param*>& out) const {
    out.push_back(&gamma_);
    out.push_back(&beta_);
  }

 private:
  Param gamma_;
  Param beta_;
};

/// Multi-head self-attention (no dropout; causal masking optional).
class MultiHeadAttention {
 public:
  MultiHeadAttention(std::string name, int hidden, int heads, int seq,
                     bool causal, Rng& rng);

  struct Ctx {
    Linear::Ctx qkv_ctx, proj_ctx;
    Tensor qkv;    ///< [B·s, 3h]
    Tensor probs;  ///< [B·heads·s, s] softmax rows (see attention_forward)
    int seq = 0;   ///< sequence length of this activation (≤ construction seq)
  };

  /// Scratch of the incremental decode path, reused across steps so
  /// steady-state decoding allocates nothing.
  struct DecodeWs {
    Linear::Ctx qkv_ctx, proj_ctx;
    Tensor qkv;                 ///< [R, 3h]
    std::vector<KvRun> runs;    ///< each row's cache pages, in order
    std::vector<int> row_runs;  ///< row r's runs: [row_runs[r], row_runs[r+1])
    Tensor merged;              ///< [R, h]
  };

  /// `seq` overrides the construction-time sequence length for this call
  /// (variable-length prefill; −1 = the construction length). Rows must be a
  /// multiple of the effective length.
  Tensor forward(const Tensor& x, Ctx& ctx, int seq = -1) const;
  Tensor backward(const Tensor& dy, const Ctx& ctx);

  /// One incremental decode step: `x` is [R, h], one row per decoding
  /// session. Row r belongs to cache slot `slots[r]` whose prefix holds
  /// `positions[r]` cached tokens; the row's K/V projections are appended at
  /// that position in `cache` layer `layer`, then the row attends over
  /// positions 0..positions[r], reading the cached K/V rows in place page by
  /// page. Bitwise contract (DESIGN.md §6): the result row equals row
  /// positions[r] of forward() over the full prefix — both run the same
  /// attention row kernel over the same causal prefix.
  Tensor decode_step(const Tensor& x, const std::vector<int>& slots,
                     const std::vector<int>& positions, PagedKvCache& cache,
                     int layer, DecodeWs& ws) const;

  void collect(std::vector<Param*>& out) {
    qkv_.collect(out);
    proj_.collect(out);
  }
  void collect(std::vector<const Param*>& out) const {
    qkv_.collect(out);
    proj_.collect(out);
  }

 private:
  int hidden_, heads_, seq_;
  bool causal_;
  Linear qkv_;
  Linear proj_;
};

/// Pre-LN Transformer block: x + Attn(LN1(x)); then x + MLP(LN2(x)).
class TransformerBlock {
 public:
  TransformerBlock(std::string name, int hidden, int heads, int seq,
                   bool causal, Rng& rng);

  struct Ctx {
    LayerNorm::Ctx ln1, ln2;
    MultiHeadAttention::Ctx attn;
    Linear::Ctx fc_ctx, proj_ctx;
    Tensor gelu_in;
  };

  /// Decode scratch: the attention workspace plus throwaway contexts for the
  /// row-wise sublayers (their saved inputs are never consumed — decode has
  /// no backward — but reusing the Ctx structs recycles their storage).
  struct DecodeWs {
    LayerNorm::Ctx ln1, ln2;
    MultiHeadAttention::DecodeWs attn;
    Linear::Ctx fc_ctx, proj_ctx;
    Tensor gelu_in, gelu_out;  ///< fused MLP workspace, re-shaped in place
  };

  /// `seq` as in MultiHeadAttention::forward (−1 = construction length).
  Tensor forward(const Tensor& x, Ctx& ctx, int seq = -1) const;
  Tensor backward(const Tensor& dy, const Ctx& ctx);

  /// One incremental decode step over [R, h] (see
  /// MultiHeadAttention::decode_step); LayerNorm / MLP / residuals are
  /// row-wise and run exactly the forward() kernels.
  Tensor decode_step(const Tensor& x, const std::vector<int>& slots,
                     const std::vector<int>& positions, PagedKvCache& cache,
                     int layer, DecodeWs& ws) const;

  void collect(std::vector<Param*>& out);
  void collect(std::vector<const Param*>& out) const;

 private:
  LayerNorm ln1_;
  MultiHeadAttention attn_;
  LayerNorm ln2_;
  Linear fc_;    // h -> 4h
  Linear proj_;  // 4h -> h
};

}  // namespace chimera::nn
