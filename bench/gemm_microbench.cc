// Single-core kernel microbench, per tier: GFLOP/s of the GEMM variants,
// GB/s of every other dense hot loop behind the KernelPolicy — GELU,
// LayerNorm, softmax, cross-entropy, bias ops, the Adam step and the
// gradient norm — µs plus GFLOP/s of the fused attention forward,
// backward and decode (DESIGN.md §2 item 18's perf trajectory), and the
// rate decode's Linear forwards run at when their weights stream from L3.
//
// Shapes are the ones perfbench's training workloads execute: train_chimera
// (rows = B·seq = 64, hidden 192, mlp 768, vocab 768, per-head dk 24 —
// also bench_runtime_throughput's default) and, for Linear's dX,
// train_dp_eager (16 rows, hidden 256, mlp 1024). So the reported speedups
// are the kernel-level view of the end-to-end gains, plus the fused
// bias+GELU Linear forward (gemm_bias_gelu_panel; its y is bitwise, its
// GELU output tolerance-equal across tiers) beside the unfused gemm +
// add_bias + gelu_forward it replaces, and softmax_rows over causally
// masked (−1e9) scores, whose masked lanes take the vector exp's flush
// path. An m sweep runs Linear's forward (gemm_bias_panel) and dX
// (gemm_nt_panel) at the MLP's two (k, n) shapes over row counts 1–64:
// prefill runs m = prompt length, and the tile and dot block heights
// balance differently at each. The streamed leg cycles through one decode
// worker's Linear weights, row-major against the panel layout nn::Linear
// stores: a single hot weight stays in L2 and reads far faster than decode
// ever does. Every JSON record carries the build type and compiler:
// fast-tier GFLOP/s depends on the -O level. Helpers are pinned to 0: this
// measures the microkernels, not the pool. While measuring, the bench also
// checks each op's cross-tier contract — bitwise equality for the ops the
// table marks bitwise (gemm, gemm_tn, add_bias, bias_backward, the
// optimizer, the panel forms), abs tolerance for the lane-reduced/polynomial
// ops — and that the panel forward equals the row-major one, and exits
// nonzero on a violation, so the CI smoke run guards the contract alongside
// the numbers.
//
//   $ ./bench_gemm_microbench [--json BENCH_gemm_micro.json] [--small]
//
// With CHIMERA_KERNEL_TIER pinned only the pinned tier is measured (no
// speedup column); unpinned runs measure both tiers per shape.
#include "bench_common.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "optim/optimizer.h"
#include "support/check.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"
#include "tensor/kernels_simd.h"

using namespace chimera;
using namespace chimera::bench;

namespace {

/// The training shapes of each GEMM variant: gemm, gemm_tn, gemm_nt, the
/// fused gemm_bias_gelu_panel or the unfused gemm + add_bias + gelu_forward
/// it replaces, and Linear's forward (gemm_bias_panel) and dX
/// (gemm_nt_panel: B = W [n, k] in panel layout).
struct Shape {
  const char* variant;
  int m, k, n;
  const char* site;  ///< which model GEMM this shape is
};

const Shape kShapes[] = {
    {"gemm", 64, 192, 576, "qkv fwd"},
    {"gemm", 64, 192, 768, "mlp fc fwd"},
    {"gemm", 64, 768, 192, "mlp proj fwd"},
    {"gemm", 64, 192, 768, "head fwd"},
    {"gemm_nt", 64, 24, 64, "attn scores"},
    {"gemm", 64, 64, 24, "attn ctx"},
    {"gemm_tn", 64, 192, 768, "mlp fc dW"},
    {"gemm_nt", 64, 768, 192, "mlp fc dX"},
    {"gemm_bias_gelu_panel", 64, 192, 768, "mlp fc fwd fused"},
    {"gemm+add_bias+gelu", 64, 192, 768, "mlp fc fwd unfused"},
    // nn::Linear's dX over its panel weight at both training workloads'
    // shapes: the GPT-2 shape above (train_chimera) and hidden 256 at 16
    // rows (train_dp_eager).
    {"gemm_nt_panel", 64, 576, 192, "qkv dX"},
    {"gemm_nt_panel", 64, 768, 192, "mlp fc / head dX"},
    {"gemm_nt_panel", 64, 192, 768, "mlp proj dX"},
    {"gemm_nt_panel", 16, 1024, 256, "dp mlp fc dX"},
    {"gemm_nt_panel", 16, 256, 1024, "dp mlp proj dX"},
};

/// The m sweep's row counts, run at kSweepKn's (k, n) for gemm_bias_panel
/// and gemm_nt_panel.
const int kSweepRows[] = {1, 2, 4, 6, 8, 12, 13, 16, 24, 32, 48, 64};
const std::pair<int, int> kSweepKn[] = {{192, 768}, {768, 192}};

/// One GEMM's operands; `bp` (B in panel layout), `bias` and `g` (the GELU
/// output) are used by the fused and unfused bias+GELU variants only.
struct Operands {
  Tensor a, b, bp, bias, c, g;
};

/// One non-GEMM op: `run` executes it once (timed), `reset` restores any
/// mutated state, `outputs` flattens everything the contract compares.
struct OpSpec {
  std::string name;
  std::string shape;
  double work;   ///< per run: bytes read + written (GB/s) or flops (GFLOP/s)
  bool bitwise;  ///< cross-tier contract: exact, or |Δ| ≤ tol
  float tol;
  std::function<void()> reset;
  std::function<void()> run;
  std::function<std::vector<float>()> outputs;
  std::size_t exact = 0;  ///< leading outputs held exact even when !bitwise
};

/// Work units per ns (GB/s or GFLOP/s) over enough repetitions to make
/// timer noise irrelevant.
double measure_rate(const std::function<void()>& run, double work,
                    double target_ms) {
  run();  // warm
  long reps = 4;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long r = 0; r < reps; ++r) run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (secs * 1e3 >= target_ms || reps > (1L << 24))
      return work * reps / secs / 1e9;
    reps *= 4;
  }
}

std::vector<float> flat(std::initializer_list<const Tensor*> ts) {
  std::vector<float> out;
  for (const Tensor* t : ts)
    out.insert(out.end(), t->data(), t->data() + t->numel());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv, "gemm_micro");
  double target_ms = 200.0;
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--small")) target_ms = 20.0;

  ComputePool::instance().set_helpers(0);  // single-core kernel numbers

  print_banner("GEMM microkernel GFLOP/s per tier (single core)");
  std::printf("fast tier ISA: %s   CHIMERA_KERNEL_TIER: %s\n\n",
              simd::isa_name(simd::active_isa()),
              std::getenv("CHIMERA_KERNEL_TIER") ? std::getenv("CHIMERA_KERNEL_TIER")
                                                 : "(unset)");

  // Which tiers can this process actually dispatch? (env pin wins)
  std::vector<KernelTier> tiers;
  for (KernelPolicy p : {KernelPolicy::kScalarReference, KernelPolicy::kFast}) {
    set_kernel_policy(p);
    const KernelTier t = active_kernel_tier();
    if (tiers.empty() || tiers.back() != t) tiers.push_back(t);
  }

  bool contract_broken = false;
  // Per op and tier: one clean application checked against the scalar
  // tier's outputs, then the timed runs. `flops` ops report µs and GFLOP/s,
  // the rest GB/s.
  auto measure_ops = [&](std::vector<OpSpec>& list, bool flops) {
    TextTable t(flops ? std::vector<std::string>{"op", "shape", "tier", "us",
                                                 "GFLOP/s", "speedup"}
                      : std::vector<std::string>{"op", "shape", "tier",
                                                 "GB/s", "speedup"});
    for (OpSpec& op : list) {
      double scalar_rate = 0.0;
      std::vector<float> scalar_out;
      for (KernelTier tier : tiers) {
        set_kernel_policy(tier == KernelTier::kScalar
                              ? KernelPolicy::kScalarReference
                              : KernelPolicy::kFast);
        const bool is_fast = tier == KernelTier::kFast;
        if (op.reset) op.reset();
        op.run();
        const std::vector<float> out = op.outputs();
        if (!is_fast) {
          scalar_out = out;
        } else if (!scalar_out.empty()) {
          CHIMERA_CHECK(out.size() == scalar_out.size());
          for (std::size_t i = 0; i < out.size(); ++i) {
            const bool ok = op.bitwise || i < op.exact
                                ? out[i] == scalar_out[i]
                                : std::fabs(out[i] - scalar_out[i]) <= op.tol;
            if (!ok) {
              std::fprintf(stderr,
                           "FAIL: %s element %zu: fast %.9g vs scalar %.9g\n",
                           op.name.c_str(), i, out[i], scalar_out[i]);
              contract_broken = true;
              break;
            }
          }
        }
        if (op.reset) op.reset();
        const double rate = measure_rate(op.run, op.work, target_ms);
        if (!is_fast) scalar_rate = rate;
        const double speedup =
            is_fast && scalar_rate > 0.0 ? rate / scalar_rate : 0.0;
        char sp[16];
        std::snprintf(sp, sizeof sp, speedup > 0 ? "%.2fx" : "-", speedup);
        const char* tier_name = is_fast ? "fast" : "scalar";
        std::vector<std::pair<std::string, double>> extra;
        if (flops) {
          const double us = op.work / (rate * 1e3);
          t.add_row(op.name, op.shape, tier_name, us, rate, sp);
          extra = {{"us", us}, {"gflops", rate}};
        } else {
          t.add_row(op.name, op.shape, tier_name, rate, sp);
          extra = {{"gbs", rate}};
        }
        if (speedup > 0) extra.emplace_back("speedup_vs_scalar", speedup);
        json.add(op.name, op.shape + " tier=" + tier_name,
                 /*throughput=*/0.0, 0.0, extra);
      }
    }
    t.print();
  };

  // GEMMs: gemm_nt and gemm_nt_panel within 1e-5·k across tiers, the
  // (un)fused GELU output within GELU's 1e-5, the rest (their y included)
  // bitwise.
  Rng rng(31);
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  for (const char* v : {"gemm_bias_panel", "gemm_nt_panel"})
    for (auto [k, n] : kSweepKn)
      for (int m : kSweepRows) shapes.push_back({v, m, k, n, "m sweep"});
  std::vector<OpSpec> gemms;
  for (const Shape& s : shapes) {
    const std::string v = s.variant;
    const bool tn = v == "gemm_tn", nt_panel = v == "gemm_nt_panel";
    const bool nt = v == "gemm_nt" || nt_panel;
    const bool bias_panel = v == "gemm_bias_panel";
    const bool fused = v == "gemm_bias_gelu_panel";
    const bool unfused = v == "gemm+add_bias+gelu";
    auto o = std::make_shared<Operands>();
    o->a = tn ? Tensor(s.k, s.m) : Tensor(s.m, s.k);
    o->b = nt ? Tensor(s.n, s.k) : Tensor(s.k, s.n);
    o->bias = Tensor(1, s.n);
    o->c = Tensor(s.m, s.n);
    o->g = Tensor(s.m, s.n);
    o->a.randn(rng, 1.0f);
    o->b.randn(rng, 1.0f);
    o->bias.randn(rng, 1.0f);
    if (fused || bias_panel || nt_panel) pack_panels(o->b, o->bp);
    gemms.push_back(
        {v + " " + s.site,
         std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
             std::to_string(s.n),
         2.0 * s.m * s.k * s.n, !nt && !fused && !unfused,
         nt ? 1e-5f * s.k : 1e-5f, nullptr,
         [o, tn, nt, nt_panel, bias_panel, fused, unfused] {
           if (tn) gemm_tn(o->a, o->b, o->c);
           else if (nt_panel) gemm_nt_panel(o->a, o->bp, o->c);
           else if (nt) gemm_nt(o->a, o->b, o->c);
           else if (bias_panel) gemm_bias_panel(o->a, o->bp, o->bias, o->c);
           else if (fused)
             gemm_bias_gelu_panel(o->a, o->bp, o->bias, o->c, o->g);
           else gemm(o->a, o->b, o->c);
           if (unfused) {
             add_bias(o->c, o->bias);
             gelu_forward(o->c, o->g);
           }
         },
         [o] { return flat({&o->c, &o->g}); },
         fused || unfused ? o->c.numel() : 0});
  }
  measure_ops(gemms, /*flops=*/true);

  // ---- Non-GEMM ops: GB/s (they are memory-bound at these shapes) --------
  print_banner("Non-GEMM kernel GB/s per tier (single core)");
  constexpr int R = 64, H = 192, V = 768;
  constexpr std::size_t N = static_cast<std::size_t>(H) * V;  // optimizer
  const double f = 4.0;  // sizeof(float)

  Tensor y0(R, V), bias(1, V), dyv(R, V), xv(R, V), dxv(R, V), gv(R, V);
  Tensor xh(R, H), gamma(1, H), beta(1, H), yh(R, H), mean(R, 1), rstd(R, 1);
  Tensor dyh(R, H), dxh(R, H), dgamma(1, H), dbeta(1, H);
  Tensor logits(R, V), dlogits(R, V), probs(R, V), masked(R, V);
  Tensor w(H, V), g(H, V), m0(H, V), v0(H, V);
  y0.randn(rng, 1.0f); bias.randn(rng, 1.0f); dyv.randn(rng, 1.0f);
  xv.randn(rng, 1.0f); xh.randn(rng, 1.0f); gamma.randn(rng, 1.0f);
  beta.randn(rng, 1.0f); dyh.randn(rng, 1.0f); logits.randn(rng, 1.0f);
  w.randn(rng, 1.0f); g.randn(rng, 1.0f); m0.randn(rng, 0.1f);
  v0.randn(rng, 0.01f);
  for (std::size_t i = 0; i < v0.numel(); ++i) v0[i] = std::fabs(v0[i]);
  std::vector<int> targets(R);
  for (int r = 0; r < R; ++r)
    targets[r] = static_cast<int>(rng.next_below(V));
  // Causal scores: row r keeps its first 12·(r+1) logits, −1e9 past them.
  for (int r = 0; r < R; ++r)
    for (int c = 0; c < V; ++c)
      masked.at(r, c) = c < 12 * (r + 1) ? logits.at(r, c) : -1e9f;
  // LayerNorm backward consumes the *scalar* forward's statistics in both
  // tiers, so its cross-tier delta is the backward's own.
  set_kernel_policy(KernelPolicy::kScalarReference);
  layernorm_forward(xh, gamma, beta, yh, mean, rstd);

  Tensor ybuf = y0, dbias(1, V), wbuf = w, mbuf = m0, vbuf = v0;
  const Tensor dbias0 = dbias, dgamma0 = dgamma, dbeta0 = dbeta;
  float ce_loss = 0.0f;
  double gnorm = 0.0;
  optim::OptimizerConfig ocfg;
  ocfg.rule = optim::Rule::kAdamW;
  ocfg.lr = 1e-3f;
  ocfg.weight_decay = 0.01f;
  nn::Param gp("g", H, V);
  gp.grad = g;
  optim::Optimizer gopt({&gp}, ocfg);

  std::vector<OpSpec> ops;
  ops.push_back({"add_bias", "64x768", (2.0 * R * V + V) * f, true, 0.0f,
                 [&] { ybuf = y0; }, [&] { add_bias(ybuf, bias); },
                 [&] { return flat({&ybuf}); }});
  ops.push_back({"bias_backward", "64x768", (1.0 * R * V + 2 * V) * f, true,
                 0.0f, [&] { dbias = dbias0; },
                 [&] { bias_backward(dyv, dbias); },
                 [&] { return flat({&dbias}); }});
  ops.push_back({"gelu_forward", "64x768", 2.0 * R * V * f, false, 1e-5f,
                 nullptr, [&] { gelu_forward(xv, gv); },
                 [&] { return flat({&gv}); }});
  ops.push_back({"gelu_backward", "64x768", 3.0 * R * V * f, false, 1e-5f,
                 nullptr, [&] { gelu_backward(xv, dyv, dxv); },
                 [&] { return flat({&dxv}); }});
  ops.push_back({"layernorm_forward", "64x192",
                 (2.0 * R * H + 2 * H + 2 * R) * f, false, 1e-4f, nullptr,
                 [&] { layernorm_forward(xh, gamma, beta, yh, mean, rstd); },
                 [&] { return flat({&yh, &mean, &rstd}); }});
  ops.push_back({"layernorm_backward", "64x192",
                 (3.0 * R * H + 3 * H + 2 * R) * f, false, 1e-4f,
                 [&] { dgamma = dgamma0; dbeta = dbeta0; },
                 [&] {
                   layernorm_backward(xh, gamma, mean, rstd, dyh, dxh, dgamma,
                                      dbeta);
                 },
                 [&] { return flat({&dxh, &dgamma, &dbeta}); }});
  ops.push_back({"softmax_rows", "64x768", 2.0 * R * V * f, false, 1e-6f,
                 nullptr, [&] { softmax_rows(logits, probs); },
                 [&] { return flat({&probs}); }});
  ops.push_back({"softmax_rows masked", "64x768 causal -1e9", 2.0 * R * V * f,
                 false, 1e-6f, nullptr, [&] { softmax_rows(masked, probs); },
                 [&] { return flat({&probs}); }});
  ops.push_back({"cross_entropy", "64x768", 2.0 * R * V * f, false, 1e-5f,
                 nullptr,
                 [&] { ce_loss = cross_entropy(logits, targets, dlogits); },
                 [&] {
                   std::vector<float> out = flat({&dlogits});
                   out.push_back(ce_loss);
                   return out;
                 }});
  ops.push_back({"adamw_step", "147456 elems", 7.0 * N * f, true, 0.0f,
                 [&] { wbuf = w; mbuf = m0; vbuf = v0; },
                 [&] {
                   optim::apply_flat(ocfg, 3, 1.0, 1.0f, wbuf.data(), g.data(),
                                     mbuf.data(), vbuf.data(), N);
                 },
                 [&] { return flat({&wbuf, &mbuf, &vbuf}); }});
  ops.push_back({"grad_sq_norm", "147456 elems", 1.0 * N * f, true, 0.0f,
                 nullptr, [&] { gnorm = gopt.grad_sq_norm(); },
                 [&] {
                   return std::vector<float>{static_cast<float>(gnorm)};
                 }});

  measure_ops(ops, /*flops=*/false);

  // ---- Fused attention: µs and GFLOP/s over the causal triangle ----------
  // The GPT-2 bench block (B=1, seq 64, 8 heads of dk 24) forward and
  // backward, and a 4-lane decode step over 32 cached positions in pages
  // of 16. Flops count only the causal triangle: 4·dk per (query, key)
  // pair forward (scores, context), 8·dk backward (dP, dQ, dK, dV).
  // Cross-tier tolerance comes from gemm_nt's lane-reduced scores and the
  // vector-exp softmax.
  print_banner("Fused attention per tier (single core, causal-triangle flops)");
  constexpr int S = 64, kHeads = 8, kDk = H / kHeads;
  constexpr int kLanes = 4, kCtx = 32, kPage = 16;
  const double pairs = S * (S + 1) / 2.0;
  Tensor qkv(R, 3 * H), dmerged(R, H), aprobs, amerged, bprobs, bmerged, dqkv;
  Tensor qrows(kLanes, 3 * H), kv(kLanes * 2 * kCtx, H), decoded;
  qkv.randn(rng, 1.0f);
  dmerged.randn(rng, 1.0f);
  qrows.randn(rng, 1.0f);
  kv.randn(rng, 1.0f);
  // The backward consumes the scalar forward's probs in both tiers, so its
  // cross-tier delta is the backward's own.
  set_kernel_policy(KernelPolicy::kScalarReference);
  attention_forward(qkv, S, kHeads, /*causal=*/true, bprobs, bmerged);
  // Lane r's pages p = 0, 1: each a block of kPage K rows then kPage V rows.
  std::vector<KvRun> runs;
  std::vector<int> row_runs{0};
  for (int r = 0; r < kLanes; ++r) {
    for (int p = 0; p < kCtx / kPage; ++p) {
      const float* block =
          kv.data() + static_cast<std::size_t>(r * kCtx + p * kPage) * 2 * H;
      runs.push_back({block, block + kPage * H, kPage});
    }
    row_runs.push_back(static_cast<int>(runs.size()));
  }
  std::vector<OpSpec> attn;
  attn.push_back({"attention_forward", "64x192 h8 causal",
                  4.0 * kHeads * pairs * kDk, false, 1e-5f, nullptr,
                  [&] {
                    attention_forward(qkv, S, kHeads, true, aprobs, amerged);
                  },
                  [&] { return flat({&aprobs, &amerged}); }});
  attn.push_back({"attention_backward", "64x192 h8 causal",
                  8.0 * kHeads * pairs * kDk, false, 1e-5f, nullptr,
                  [&] {
                    attention_backward(qkv, bprobs, dmerged, S, kHeads, true,
                                       dqkv);
                  },
                  [&] { return flat({&dqkv}); }});
  attn.push_back({"attention_decode", "4 lanes ctx32 page16",
                  4.0 * kLanes * kHeads * kCtx * kDk, false, 1e-5f, nullptr,
                  [&] {
                    attention_decode(qrows, kHeads, runs, row_runs, H,
                                     decoded);
                  },
                  [&] { return flat({&decoded}); }});
  measure_ops(attn, /*flops=*/true);

  // ---- Streamed weights: decode's Linear forwards ------------------------
  // One decode_mixed worker's Linear weights — two Chimera stage replicas of
  // two GPT-2 blocks each: 16 Linears, 6.75 MiB, over twice a typical L2 —
  // cycled once per run, so every weight streams from L3 as in a decode
  // step. Row-major W (gemm + add_bias) against the panel layout
  // nn::Linear stores (gemm_bias_panel), which must give the same bits.
  print_banner("Streamed Linear weights per tier (single core, 6.75 MiB)");
  struct Lin {
    Tensor w, wp, bias, y;
  };
  auto lins = std::make_shared<std::vector<Lin>>();
  for (int b = 0; b < 4; ++b)
    for (auto [k, n] : {std::pair{H, 3 * H}, {H, H}, {H, 4 * H}, {4 * H, H}}) {
      Lin& l = lins->emplace_back();
      l.w = Tensor(k, n);
      l.w.randn(rng, 1.0f);
      pack_panels(l.w, l.wp);
      l.bias = Tensor(1, n);
      l.bias.randn(rng, 1.0f);
    }
  std::vector<OpSpec> streamed;
  for (int m : {1, 4, 16, 64}) {
    auto x = std::make_shared<std::pair<Tensor, Tensor>>(Tensor(m, H),
                                                          Tensor(m, 4 * H));
    x->first.randn(rng, 1.0f);
    x->second.randn(rng, 1.0f);
    double flops = 0.0;
    for (const Lin& l : *lins) flops += 2.0 * m * l.w.rows() * l.w.cols();
    for (bool panel : {false, true})
      streamed.push_back(
          {panel ? "gemm_bias_panel streamed" : "gemm+add_bias streamed",
           "m=" + std::to_string(m) + " 16 Linears", flops, true, 0.0f,
           nullptr,
           [=] {
             for (Lin& l : *lins) {
               const Tensor& xl = l.w.rows() == H ? x->first : x->second;
               l.y.reshape(m, l.w.cols());
               if (panel) {
                 gemm_bias_panel(xl, l.wp, l.bias, l.y);
               } else {
                 gemm(xl, l.w, l.y);
                 add_bias(l.y, l.bias);
               }
             }
           },
           [lins] {
             std::vector<float> out;
             for (const Lin& l : *lins) out.insert(out.end(), l.y.data(),
                                                   l.y.data() + l.y.numel());
             return out;
           }});
  }
  measure_ops(streamed, /*flops=*/true);
  for (std::size_t i = 0; i < streamed.size(); i += 2) {
    streamed[i].run();
    const std::vector<float> want = streamed[i].outputs();
    streamed[i + 1].run();
    if (streamed[i + 1].outputs() == want) continue;
    std::fprintf(stderr, "FAIL: %s %s differs from row-major\n",
                 streamed[i + 1].name.c_str(), streamed[i + 1].shape.c_str());
    contract_broken = true;
  }
  return contract_broken ? 1 : 0;
}
