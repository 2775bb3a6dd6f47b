// Neural-network tests: finite-difference gradient checks through the
// Transformer block, and the partition-invariance property the pipeline
// runtime relies on: composing D stage modules computes exactly the same
// function (and gradients) as the single-stage module.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/stage.h"
#include "optim/optimizer.h"

namespace chimera::nn {
namespace {

SmallModelConfig tiny_config() {
  SmallModelConfig cfg;
  cfg.vocab = 19;
  cfg.hidden = 12;
  cfg.heads = 2;
  cfg.layers = 4;
  cfg.seq = 5;
  cfg.seed = 77;
  return cfg;
}

MicroBatch make_batch(const SmallModelConfig& cfg, int batch, std::uint64_t seed) {
  MicroBatch mb;
  mb.batch = batch;
  mb.seq = cfg.seq;
  Rng rng(seed);
  for (int i = 0; i < batch * cfg.seq; ++i) {
    mb.tokens.push_back(static_cast<int>(rng.next_below(cfg.vocab)));
    mb.targets.push_back(static_cast<int>(rng.next_below(cfg.vocab)));
  }
  return mb;
}

TEST(TransformerBlock, GradCheckThroughWholeBlock) {
  Rng rng(1);
  const int hidden = 8, heads = 2, seq = 4, batch = 2;
  TransformerBlock block("b", hidden, heads, seq, /*causal=*/true, rng);

  Tensor x(batch * seq, hidden);
  x.randn(rng, 0.5f);
  Tensor dy(batch * seq, hidden);
  dy.randn(rng, 1.0f);

  TransformerBlock::Ctx ctx;
  (void)block.forward(x, ctx);
  Tensor dx = block.backward(dy, ctx);

  auto loss_at = [&](const Tensor& xv) {
    TransformerBlock::Ctx c;
    Tensor y = block.forward(xv, c);
    double s = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) s += y[i] * dy[i];
    return s;
  };
  const float eps = 1e-2f;
  for (int idx : {0, 9, 31, 63}) {
    Tensor xp = x, xm = x;
    xp[idx] += eps;
    xm[idx] -= eps;
    const double fd = (loss_at(xp) - loss_at(xm)) / (2 * eps);
    EXPECT_NEAR(dx[idx], fd, 5e-2) << "idx=" << idx;
  }
}

TEST(StageModule, PartitionComputesSameFunctionAsSingleStage) {
  const SmallModelConfig cfg = tiny_config();
  const MicroBatch mb = make_batch(cfg, 3, 5);

  StageModule full(cfg, 0, 1);
  (void)full.forward(mb, Tensor(), 0);
  (void)full.backward(mb, Tensor(), 0, 1.0f);
  const double ref_loss = full.last_loss();

  for (int depth : {2, 4}) {
    std::vector<std::unique_ptr<StageModule>> stages;
    for (int s = 0; s < depth; ++s)
      stages.push_back(std::make_unique<StageModule>(cfg, s, depth));
    Tensor x;
    for (int s = 0; s < depth; ++s) x = stages[s]->forward(mb, x, 0);
    Tensor g;
    for (int s = depth - 1; s >= 0; --s) g = stages[s]->backward(mb, g, 0, 1.0f);
    EXPECT_NEAR(stages[depth - 1]->last_loss(), ref_loss, 1e-5)
        << "depth=" << depth;
  }
}

TEST(StageModule, PartitionGradientsMatchSingleStage) {
  const SmallModelConfig cfg = tiny_config();
  const MicroBatch mb = make_batch(cfg, 2, 9);

  StageModule full(cfg, 0, 1);
  (void)full.forward(mb, Tensor(), 0);
  (void)full.backward(mb, Tensor(), 0, 1.0f);
  std::map<std::string, const Param*> ref;
  for (Param* p : full.params()) ref[p->name] = p;

  const int depth = 4;
  std::vector<std::unique_ptr<StageModule>> stages;
  for (int s = 0; s < depth; ++s)
    stages.push_back(std::make_unique<StageModule>(cfg, s, depth));
  Tensor x;
  for (int s = 0; s < depth; ++s) x = stages[s]->forward(mb, x, 0);
  Tensor g;
  for (int s = depth - 1; s >= 0; --s) g = stages[s]->backward(mb, g, 0, 1.0f);

  for (int s = 0; s < depth; ++s) {
    for (Param* p : stages[s]->params()) {
      ASSERT_TRUE(ref.count(p->name)) << p->name;
      const Tensor& rg = ref.at(p->name)->grad;
      ASSERT_EQ(rg.numel(), p->grad.numel());
      for (std::size_t i = 0; i < rg.numel(); ++i)
        ASSERT_NEAR(p->grad[i], rg[i], 1e-4f) << p->name << "[" << i << "]";
    }
  }
}

TEST(StageModule, RecomputationIsExact) {
  // With recomputation the stash holds only the boundary input; backward
  // must rebuild bit-identical activations (same kernels, same input).
  const SmallModelConfig cfg = tiny_config();
  const MicroBatch mb = make_batch(cfg, 2, 13);
  const int depth = 2;

  auto run = [&](bool recompute) {
    std::vector<std::vector<float>> grads;
    std::vector<std::unique_ptr<StageModule>> stages;
    for (int s = 0; s < depth; ++s) {
      stages.push_back(std::make_unique<StageModule>(cfg, s, depth));
      stages[s]->set_recompute(recompute);
    }
    Tensor x;
    for (int s = 0; s < depth; ++s) x = stages[s]->forward(mb, x, 0);
    Tensor g;
    for (int s = depth - 1; s >= 0; --s) g = stages[s]->backward(mb, g, 0, 1.0f);
    for (int s = 0; s < depth; ++s)
      for (Param* p : stages[s]->params())
        grads.emplace_back(p->grad.data(), p->grad.data() + p->grad.numel());
    return grads;
  };
  const auto plain = run(false);
  const auto recomputed = run(true);
  ASSERT_EQ(plain.size(), recomputed.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i], recomputed[i]) << "param " << i;
}

TEST(StageModule, SlicedForwardEqualsFullForward) {
  // Batch items are independent (causal attention within an item), so
  // forward(concat(x0, x1)) == concat(forward(x0), forward(x1)). This is
  // the property backward halving and chunked forwards build on.
  const SmallModelConfig cfg = tiny_config();
  const MicroBatch mb = make_batch(cfg, 4, 21);
  StageModule full(cfg, 0, 1);

  Tensor whole = full.forward(mb, Tensor(), 0);
  Tensor lo = full.forward(mb.slice(0, 2), Tensor(), 1);
  Tensor hi = full.forward(mb.slice(2, 2), Tensor(), 2);
  ASSERT_EQ(whole.rows(), lo.rows() + hi.rows());
  for (int r = 0; r < lo.rows(); ++r)
    for (int c = 0; c < whole.cols(); ++c) {
      ASSERT_FLOAT_EQ(whole.at(r, c), lo.at(r, c));
      ASSERT_FLOAT_EQ(whole.at(lo.rows() + r, c), hi.at(r, c));
    }
}

TEST(StageModule, WeightSaveLoadRoundTrips) {
  const SmallModelConfig cfg = tiny_config();
  StageModule a(cfg, 0, 2);
  const std::vector<float> snap = a.save_weights();
  // Perturb, then restore.
  for (Param* p : a.params()) p->value.fill(0.5f);
  a.load_weights(snap);
  EXPECT_EQ(a.save_weights(), snap);
}

TEST(Linear, PaddedPanelLanesStayZeroThroughOptimizerSteps) {
  // out = 21 leaves 11 padded lanes in the second 16-column panel of W and
  // dW. No kernel stores them and every rule is elementwise with zero
  // gradient there, so they stay exactly +0 — also under weight decay.
  const int in = 5, out = 21, rows = 7;
  for (optim::Rule rule : {optim::Rule::kMomentum, optim::Rule::kAdamW}) {
    SCOPED_TRACE(optim::rule_name(rule));
    Rng rng(91);
    Linear lin("lin", in, out, rng, 0.5f);
    std::vector<Param*> ps;
    lin.collect(ps);
    Param& w = *ps[0];
    ASSERT_EQ(w.value.numel(),
              static_cast<std::size_t>(panel_rows(in, out)) * kPanelWidth);
    optim::OptimizerConfig cfg;
    cfg.rule = rule;
    cfg.lr = 0.1f;
    cfg.weight_decay = 0.05f;
    optim::Optimizer opt(ps, cfg);
    auto expect_padding_zero = [&](const Tensor& t, const char* what) {
      for (int l = 0; l < in; ++l)
        for (int j = out; j < 2 * kPanelWidth; ++j) {
          const float v = t[panel_offset(in, l, j)];
          ASSERT_TRUE(v == 0.0f && !std::signbit(v))
              << what << " lane (" << l << ", " << j << ") = " << v;
        }
    };
    const float w0 = w.value[panel_offset(in, 2, 17)];
    for (int step = 0; step < 4; ++step) {
      Tensor x(rows, in), dy(rows, out);
      x.randn(rng, 1.0f);
      dy.randn(rng, 1.0f);
      Linear::Ctx ctx;
      (void)lin.forward(x, ctx);
      (void)lin.backward(dy, ctx);
      expect_padding_zero(w.grad, "dW");
      opt.step();
      expect_padding_zero(w.value, "W");
    }
    EXPECT_NE(w.value[panel_offset(in, 2, 17)], w0);  // live lanes did train
  }
}

TEST(StageModule, StashLifecycle) {
  const SmallModelConfig cfg = tiny_config();
  const MicroBatch mb = make_batch(cfg, 2, 3);
  StageModule full(cfg, 0, 1);
  EXPECT_EQ(full.stash_count(), 0u);
  (void)full.forward(mb, Tensor(), 7);
  EXPECT_EQ(full.stash_count(), 1u);
  EXPECT_THROW((void)full.forward(mb, Tensor(), 7), CheckError);  // dup key
  (void)full.backward(mb, Tensor(), 7, 1.0f);
  EXPECT_EQ(full.stash_count(), 0u);
  EXPECT_THROW((void)full.backward(mb, Tensor(), 7, 1.0f), CheckError);
}

}  // namespace
}  // namespace chimera::nn
