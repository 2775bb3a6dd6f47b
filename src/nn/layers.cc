#include "nn/layers.h"

#include <algorithm>

namespace chimera::nn {

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::string name, int in, int out, Rng& rng, float init_scale)
    : w_(name + ".w", panel_rows(in, out), kPanelWidth),
      b_(name + ".b", 1, out) {
  // The row-major Tensor::randn draw, written straight to its panel slot.
  for (int l = 0; l < in; ++l)
    for (int j = 0; j < out; ++j)
      w_.value[panel_offset(in, l, j)] =
          static_cast<float>(rng.normal()) * init_scale;
  b_.value.zero();
}

Tensor Linear::forward(const Tensor& x, Ctx& ctx) const {
  Tensor y;
  forward_into(x, ctx, y);
  return y;
}

void Linear::forward_into(const Tensor& x, Ctx& ctx, Tensor& y) const {
  ctx.x = x;
  apply_into(x, y);
}

void Linear::forward_gelu_into(const Tensor& x, Ctx& ctx, Tensor& y,
                               Tensor& g) const {
  ctx.x = x;
  apply_gelu_into(x, y, g);
}

void Linear::apply_into(const Tensor& x, Tensor& y) const {
  y.reshape(x.rows(), b_.value.cols());  // gemm_bias_panel overwrites in full
  gemm_bias_panel(x, w_.value, b_.value, y);
}

void Linear::apply_gelu_into(const Tensor& x, Tensor& y, Tensor& g) const {
  y.reshape(x.rows(), b_.value.cols());
  g.reshape(x.rows(), b_.value.cols());
  gemm_bias_gelu_panel(x, w_.value, b_.value, y, g);
}

Tensor Linear::backward(const Tensor& dy, const Ctx& ctx) {
  gemm_tn_panel(ctx.x, dy, w_.grad);  // dW += Xᵀ·dY
  bias_backward(dy, b_.grad);
  Tensor dx(ctx.x.rows(), ctx.x.cols());
  gemm_nt_panel(dy, w_.value, dx);  // dX = dY·Wᵀ
  return dx;
}

// ------------------------------------------------------------- LayerNorm --

LayerNorm::LayerNorm(std::string name, int hidden)
    : gamma_(name + ".gamma", 1, hidden), beta_(name + ".beta", 1, hidden) {
  gamma_.value.fill(1.0f);
  beta_.value.zero();
}

Tensor LayerNorm::forward(const Tensor& x, Ctx& ctx) const {
  Tensor y;
  forward_into(x, ctx, y);
  return y;
}

void LayerNorm::forward_into(const Tensor& x, Ctx& ctx, Tensor& y) const {
  ctx.x = x;
  // layernorm_forward writes every element of all three outputs.
  ctx.mean.reshape(x.rows(), 1);
  ctx.rstd.reshape(x.rows(), 1);
  y.reshape(x.rows(), x.cols());
  layernorm_forward(x, gamma_.value, beta_.value, y, ctx.mean, ctx.rstd);
}

Tensor LayerNorm::backward(const Tensor& dy, const Ctx& ctx) {
  Tensor dx(ctx.x.rows(), ctx.x.cols());
  layernorm_backward(ctx.x, gamma_.value, ctx.mean, ctx.rstd, dy, dx,
                     gamma_.grad, beta_.grad);
  return dx;
}

// ------------------------------------------------- MultiHeadAttention ----

MultiHeadAttention::MultiHeadAttention(std::string name, int hidden, int heads,
                                       int seq, bool causal, Rng& rng)
    : hidden_(hidden),
      heads_(heads),
      seq_(seq),
      causal_(causal),
      qkv_(name + ".qkv", hidden, 3 * hidden, rng,
           0.02f),
      proj_(name + ".proj", hidden, hidden, rng, 0.02f) {
  CHIMERA_CHECK_MSG(hidden % heads == 0, "heads must divide hidden size");
}

Tensor MultiHeadAttention::forward(const Tensor& x, Ctx& ctx, int seq) const {
  const int S = seq > 0 ? seq : seq_;
  CHIMERA_CHECK_MSG(x.rows() % S == 0, "rows must be a multiple of seq");
  ctx.seq = S;
  qkv_.forward_into(x, ctx.qkv_ctx, ctx.qkv);
  Tensor merged;
  attention_forward(ctx.qkv, S, heads_, causal_, ctx.probs, merged);
  return proj_.forward(merged, ctx.proj_ctx);
}

Tensor MultiHeadAttention::decode_step(const Tensor& x,
                                       const std::vector<int>& slots,
                                       const std::vector<int>& positions,
                                       PagedKvCache& cache, int layer,
                                       DecodeWs& ws) const {
  const int rows = x.rows();
  CHIMERA_CHECK(static_cast<int>(slots.size()) == rows &&
                static_cast<int>(positions.size()) == rows &&
                x.cols() == hidden_);
  CHIMERA_CHECK_MSG(causal_, "decode requires a causal model");
  qkv_.apply_into(x, ws.qkv);  // [R, 3h]; per-row ≡ forward()

  // Append every row's K/V before attending: position p attends to itself.
  for (int r = 0; r < rows; ++r) {
    const float* qkv_row = ws.qkv.data() + static_cast<std::size_t>(r) * 3 * hidden_;
    std::copy(qkv_row + hidden_, qkv_row + 2 * hidden_,
              cache.k_row(layer, slots[r], positions[r]));
    std::copy(qkv_row + 2 * hidden_, qkv_row + 3 * hidden_,
              cache.v_row(layer, slots[r], positions[r]));
  }

  // Row r attends over positions 0..positions[r], read in place one page
  // at a time — the same row kernel forward() runs over the full prefix.
  const int page = cache.page_size();
  ws.runs.clear();
  ws.row_runs.assign(1, 0);
  for (int r = 0; r < rows; ++r) {
    const int len = positions[r] + 1;
    for (int p0 = 0; p0 < len; p0 += page)
      ws.runs.push_back({cache.k_row(layer, slots[r], p0),
                         cache.v_row(layer, slots[r], p0),
                         std::min(page, len - p0)});
    ws.row_runs.push_back(static_cast<int>(ws.runs.size()));
  }
  attention_decode(ws.qkv, heads_, ws.runs, ws.row_runs, cache.hidden(),
                   ws.merged);
  Tensor out;
  proj_.apply_into(ws.merged, out);
  return out;
}

Tensor MultiHeadAttention::backward(const Tensor& dy, const Ctx& ctx) {
  const Tensor dmerged = proj_.backward(dy, ctx.proj_ctx);
  Tensor dqkv;
  attention_backward(ctx.qkv, ctx.probs, dmerged, ctx.seq, heads_, causal_,
                     dqkv);
  return qkv_.backward(dqkv, ctx.qkv_ctx);
}

// ---------------------------------------------------- TransformerBlock ---

TransformerBlock::TransformerBlock(std::string name, int hidden, int heads,
                                   int seq, bool causal, Rng& rng)
    : ln1_(name + ".ln1", hidden),
      attn_(name + ".attn", hidden, heads, seq, causal, rng),
      ln2_(name + ".ln2", hidden),
      fc_(name + ".fc", hidden, 4 * hidden, rng, 0.02f),
      proj_(name + ".mlp_proj", 4 * hidden, hidden, rng, 0.02f) {}

Tensor TransformerBlock::forward(const Tensor& x, Ctx& ctx, int seq) const {
  Tensor a = attn_.forward(ln1_.forward(x, ctx.ln1), ctx.attn, seq);
  a.add(x);  // residual 1
  // Fused fc→GELU writes the pre-activation straight into the stash — same
  // arithmetic as fc_.forward + gelu_forward, one fewer tensor copy.
  Tensor g;
  fc_.forward_gelu_into(ln2_.forward(a, ctx.ln2), ctx.fc_ctx, ctx.gelu_in, g);
  Tensor y = proj_.forward(g, ctx.proj_ctx);
  y.add(a);  // residual 2
  return y;
}

Tensor TransformerBlock::decode_step(const Tensor& x,
                                     const std::vector<int>& slots,
                                     const std::vector<int>& positions,
                                     PagedKvCache& cache, int layer,
                                     DecodeWs& ws) const {
  // Same sublayer/residual sequence as forward(); every non-attention piece
  // is row-wise, so [R, h] decode rows get the full-forward arithmetic.
  Tensor a = attn_.decode_step(ln1_.forward(x, ws.ln1), slots, positions,
                               cache, layer, ws.attn);
  a.add(x);  // residual 1
  fc_.apply_gelu_into(ln2_.forward(a, ws.ln2), ws.gelu_in, ws.gelu_out);
  Tensor y;
  proj_.apply_into(ws.gelu_out, y);
  y.add(a);  // residual 2
  return y;
}

Tensor TransformerBlock::backward(const Tensor& dy, const Ctx& ctx) {
  // MLP branch.
  Tensor dg = proj_.backward(dy, ctx.proj_ctx);
  Tensor dh(dg.rows(), dg.cols());
  gelu_backward(ctx.gelu_in, dg, dh);
  Tensor da = ln2_.backward(fc_.backward(dh, ctx.fc_ctx), ctx.ln2);
  da.add(dy);  // residual 2
  // Attention branch.
  Tensor dx = ln1_.backward(attn_.backward(da, ctx.attn), ctx.ln1);
  dx.add(da);  // residual 1
  return dx;
}

void TransformerBlock::collect(std::vector<Param*>& out) {
  ln1_.collect(out);
  attn_.collect(out);
  ln2_.collect(out);
  fc_.collect(out);
  proj_.collect(out);
}

void TransformerBlock::collect(std::vector<const Param*>& out) const {
  ln1_.collect(out);
  attn_.collect(out);
  ln2_.collect(out);
  fc_.collect(out);
  proj_.collect(out);
}

}  // namespace chimera::nn
