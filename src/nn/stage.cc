#include "nn/stage.h"

#include <numeric>

namespace chimera::nn {

MicroBatch MicroBatch::slice(int first, int count) const {
  MicroBatch out;
  out.batch = count;
  out.seq = seq;
  out.tokens.assign(tokens.begin() + static_cast<std::size_t>(first) * seq,
                    tokens.begin() + static_cast<std::size_t>(first + count) * seq);
  out.targets.assign(targets.begin() + static_cast<std::size_t>(first) * seq,
                     targets.begin() + static_cast<std::size_t>(first + count) * seq);
  return out;
}

ModelSpec SmallModelConfig::spec() const {
  ModelSpec m;
  m.name = "small-gpt";
  m.layers = layers;
  m.hidden = hidden;
  m.heads = heads;
  m.vocab = vocab;
  m.max_pos = seq;
  m.type_vocab = 0;
  m.seq = seq;
  m.tied_head = false;  // StageModule's head Linear is a separate parameter
  m.bert_heads = false;
  return m;
}

StageModule::StageModule(const SmallModelConfig& cfg, int stage, int depth,
                         StageRange layers)
    : cfg_(cfg), stage_(stage), depth_(depth), layers_(layers) {
  CHIMERA_CHECK(stage >= 0 && stage < depth);
  CHIMERA_CHECK_MSG(layers.begin >= 0 && layers.begin < layers.end &&
                        layers.end <= cfg.layers,
                    "stage " << stage << " layer range [" << layers.begin
                             << ", " << layers.end << ") outside the model's "
                             << cfg.layers << " layers");
  // Seeding depends only on (model seed, stage / global layer id): every
  // data-parallel / bidirectional replica of a stage starts from identical
  // weights, as a real deployment would after broadcasting the initial
  // model, and a layer keeps its initialization under any partition.
  Rng base(cfg.seed);
  Rng rng = base.split(static_cast<std::uint64_t>(stage) + 1);

  if (is_first()) {
    wte_ = std::make_unique<Param>("wte", cfg.vocab, cfg.hidden);
    wpe_ = std::make_unique<Param>("wpe", cfg.seq, cfg.hidden);
    wte_->value.randn(rng, 0.02f);
    wpe_->value.randn(rng, 0.01f);
  }
  for (int l = layers_.begin; l < layers_.end; ++l) {
    Rng lrng = base.split(1000 + l);
    blocks_.push_back(std::make_unique<TransformerBlock>(
        "block" + std::to_string(l), cfg.hidden, cfg.heads, cfg.seq,
        cfg.causal, lrng));
  }
  if (is_last()) {
    Rng hrng = base.split(999983);
    final_ln_ = std::make_unique<LayerNorm>("final_ln", cfg.hidden);
    head_ = std::make_unique<Linear>("head", cfg.hidden, cfg.vocab, hrng, 0.02f);
  }
}

StageModule::StageModule(const SmallModelConfig& cfg, int stage, int depth)
    : StageModule(cfg, stage, depth,
                  plan_even(cfg.spec(), depth).range(stage)) {}

Tensor StageModule::run_forward(const MicroBatch& mb, const Tensor& input,
                                Stash& st, bool capture_head_input) const {
  Tensor x;
  if (is_first()) {
    const int rows = mb.batch * mb.seq;
    x = Tensor(rows, cfg_.hidden);
    for (int r = 0; r < rows; ++r) {
      const int tok = mb.tokens[r];
      const int pos = r % mb.seq;
      CHIMERA_CHECK(tok >= 0 && tok < cfg_.vocab);
      for (int c = 0; c < cfg_.hidden; ++c)
        x.at(r, c) = wte_->value.at(tok, c) + wpe_->value.at(pos, c);
    }
  } else {
    x = input;
  }
  st.blocks.resize(blocks_.size());
  for (std::size_t l = 0; l < blocks_.size(); ++l)
    x = blocks_[l]->forward(x, st.blocks[l], mb.seq);
  // The last stage consumes x locally in backward (head + loss); stash it —
  // unless this is the forward-only infer path, which applies the head now.
  if (is_last() && capture_head_input) st.head_input = x;
  return x;
}

Tensor StageModule::apply_head(const Tensor& x) {
  // head_->apply_into routes through gemm_bias_panel: on the fast kernel
  // tier the [rows, vocab] head projection applies its bias as a tile
  // epilogue.
  final_ln_->forward_into(x, head_ws_.ln, head_ws_.normed);
  Tensor logits;
  head_->apply_into(head_ws_.normed, logits);
  return logits;
}

StageModule::Stash StageModule::acquire_stash() {
  if (stash_pool_.empty()) return {};
  Stash st = std::move(stash_pool_.back());
  stash_pool_.pop_back();
  return st;
}

Tensor StageModule::forward(const MicroBatch& mb, const Tensor& input, long key) {
  CHIMERA_CHECK_MSG(stash_.find(key) == stash_.end(),
                    "duplicate forward stash key " << key);
  Stash& st = stash_.emplace(key, acquire_stash()).first->second;
  if (!is_first()) st.input = input;
  if (recompute_) {
    // Only the boundary input is kept (in st); rebuild everything from it
    // in backward. The scratch stash just absorbs the throwaway contexts.
    Stash scratch = acquire_stash();
    Tensor out = run_forward(mb, input, scratch);
    stash_pool_.push_back(std::move(scratch));
    return out;
  }
  return run_forward(mb, input, st);
}

Tensor StageModule::infer(const MicroBatch& mb, const Tensor& input) {
  Stash scratch = acquire_stash();
  Tensor x = run_forward(mb, input, scratch, /*capture_head_input=*/false);
  // Logits-only head: unlike the training path there is no cross-entropy
  // and no dlogits — the logits themselves are the result.
  Tensor out = is_last() ? apply_head(x) : std::move(x);
  stash_pool_.push_back(std::move(scratch));
  return out;
}

Tensor StageModule::prefill(const MicroBatch& mb, const Tensor& input,
                            PagedKvCache& cache, int slot) {
  CHIMERA_CHECK_MSG(mb.batch == 1, "prefill runs one session per pass");
  std::vector<int> positions(static_cast<std::size_t>(mb.seq));
  std::iota(positions.begin(), positions.end(), 0);
  return decode_step(mb.tokens, std::vector<int>(positions.size(), slot),
                     positions, input, cache);
}

Tensor StageModule::decode_step(const std::vector<int>& tokens,
                                const std::vector<int>& slots,
                                const std::vector<int>& positions,
                                const Tensor& input, PagedKvCache& cache) {
  const int rows = static_cast<int>(slots.size());
  CHIMERA_CHECK(rows >= 1 && static_cast<int>(positions.size()) == rows);
  CHIMERA_CHECK(cache.layers() == static_cast<int>(blocks_.size()));
  Tensor x;
  if (is_first()) {
    CHIMERA_CHECK(static_cast<int>(tokens.size()) == rows);
    x = Tensor(rows, cfg_.hidden);
    for (int r = 0; r < rows; ++r) {
      const int tok = tokens[r];
      const int pos = positions[r];
      CHIMERA_CHECK(tok >= 0 && tok < cfg_.vocab);
      CHIMERA_CHECK(pos >= 0 && pos < cfg_.seq);
      for (int c = 0; c < cfg_.hidden; ++c)
        x.at(r, c) = wte_->value.at(tok, c) + wpe_->value.at(pos, c);
    }
  } else {
    x = input;
  }
  for (std::size_t l = 0; l < blocks_.size(); ++l)
    x = blocks_[l]->decode_step(x, slots, positions, cache,
                                static_cast<int>(l), decode_ws_);
  if (is_last()) return apply_head(x);
  return x;
}

Tensor StageModule::backward(const MicroBatch& mb, const Tensor& grad_out,
                             long key, float loss_scale) {
  auto it = stash_.find(key);
  CHIMERA_CHECK_MSG(it != stash_.end(), "missing stash for key " << key);
  Stash st = std::move(it->second);
  stash_.erase(it);
  if (recompute_) {
    Stash rebuilt = acquire_stash();
    rebuilt.input = std::move(st.input);
    Tensor out = run_forward(mb, rebuilt.input, rebuilt);
    (void)out;
    stash_pool_.push_back(std::move(st));
    st = std::move(rebuilt);
  }

  Tensor dy;
  if (is_last()) {
    // Logits are produced here rather than in forward: they are the largest
    // tensor in the stage and are only needed for the loss gradient. They
    // live in the persistent head workspace, re-shaped per micro-batch.
    final_ln_->forward_into(st.head_input, head_ws_.ln, head_ws_.normed);
    head_->forward_into(head_ws_.normed, head_ws_.head, head_ws_.logits);
    // softmax_rows (inside cross_entropy) overwrites dlogits in full.
    head_ws_.dlogits.reshape(head_ws_.logits.rows(), head_ws_.logits.cols());
    last_loss_ = cross_entropy(head_ws_.logits, mb.targets, head_ws_.dlogits,
                               loss_scale);
    Tensor dnormed = head_->backward(head_ws_.dlogits, head_ws_.head);
    dy = final_ln_->backward(dnormed, head_ws_.ln);
  } else {
    dy = grad_out;
  }

  for (int l = static_cast<int>(blocks_.size()) - 1; l >= 0; --l)
    dy = blocks_[l]->backward(dy, st.blocks[l]);

  if (is_first()) {
    // Scatter into embedding gradients.
    const int rows = mb.batch * mb.seq;
    for (int r = 0; r < rows; ++r) {
      const int tok = mb.tokens[r];
      const int pos = r % mb.seq;
      for (int c = 0; c < cfg_.hidden; ++c) {
        wte_->grad.at(tok, c) += dy.at(r, c);
        wpe_->grad.at(pos, c) += dy.at(r, c);
      }
    }
    stash_pool_.push_back(std::move(st));
    return Tensor();
  }
  stash_pool_.push_back(std::move(st));
  return dy;
}

std::vector<Param*> StageModule::params() {
  std::vector<Param*> out;
  if (wte_) out.push_back(wte_.get());
  if (wpe_) out.push_back(wpe_.get());
  for (auto& b : blocks_) b->collect(out);
  if (final_ln_) final_ln_->collect(out);
  if (head_) head_->collect(out);
  return out;
}

std::vector<const Param*> StageModule::params() const {
  std::vector<const Param*> out;
  if (wte_) out.push_back(wte_.get());
  if (wpe_) out.push_back(wpe_.get());
  for (const auto& b : blocks_) b->collect(out);
  if (final_ln_) final_ln_->collect(out);
  if (head_) head_->collect(out);
  return out;
}

void StageModule::zero_grads() {
  for (Param* p : params()) p->grad.zero();
}

std::vector<float> StageModule::save_weights() const {
  std::vector<float> flat;
  for (const Param* p : params())
    flat.insert(flat.end(), p->value.data(), p->value.data() + p->value.numel());
  return flat;
}

void StageModule::load_weights(const std::vector<float>& flat) {
  std::size_t off = 0;
  for (Param* p : params()) {
    CHIMERA_CHECK(off + p->value.numel() <= flat.size());
    std::copy(flat.begin() + off, flat.begin() + off + p->value.numel(),
              p->value.data());
    off += p->value.numel();
  }
  CHIMERA_CHECK(off == flat.size());
}

}  // namespace chimera::nn
