// Dense kernels for the training runtime: blocked GEMM (with transpose
// variants), bias, GELU, LayerNorm, row softmax, cross-entropy and fused
// multi-head attention — each with its backward. Kernels shard their
// outer loops onto the shared ComputePool (tensor/compute_pool.h) with
// shape-only split points and fixed per-element accumulation orders, so
// results are bit-deterministic and identical to the serial path at any
// thread count — which the gradient-equivalence tests (pipeline vs
// sequential SGD) and the runtime parity tests rely on (DESIGN.md §2
// item 17).
//
// Every dense kernel has two tiers (DESIGN.md §2 item 18): the scalar
// reference (the bitwise anchor every parity/grad-sync/decode contract
// pins) and a vectorized fast tier (tensor/kernels_simd.cc: AVX2
// microkernels — register-tiled GEMMs over 16-column B panels plus a
// portable mirror, and lane-parallel elementwise/normalize/reduce kernels
// for the non-GEMM ops). Tier selection is the process-wide KernelPolicy below,
// overridable by the CHIMERA_KERNEL_TIER environment variable. The
// cross-tier contract is per op (the full table lives in DESIGN.md §2
// item 18): ops whose fast tier keeps each element's serial accumulation
// order and pairs multiply with add (gemm, gemm_tn, add_bias,
// bias_backward, layernorm's dgamma/dbeta, the comm inner loops below)
// are bitwise identical across tiers; ops that reduce across vector lanes
// or substitute a polynomial exp/tanh for the libm call (gemm_nt, GELU,
// layernorm's row statistics, softmax, cross-entropy, and attention, which
// is built from gemm_nt's dot and the softmax row) are tolerance-equal
// only — but every fast-tier element stays a pure function of its row's
// data, so the pooled≡serial and decode step-vs-reforward bitwise
// contracts hold *within* either tier.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace chimera {

/// Which GEMM implementation tier the process uses (DESIGN.md §2 item 18).
/// kScalarReference is the bitwise anchor; kFast is the vectorized blocked
/// tier; kAuto resolves to kFast on AVX2+FMA hosts and to the reference
/// elsewhere. The CHIMERA_KERNEL_TIER environment variable ("scalar" or
/// "fast", read once at first kernel dispatch) overrides the policy — the
/// test/CI hook for pinning either tier without code changes.
enum class KernelPolicy { kScalarReference, kFast, kAuto };

/// The resolved tier a dispatch actually takes.
enum class KernelTier { kScalar, kFast };

/// Sets the process-wide kernel policy (threaded through TrainerOptions /
/// ServeOptions / DecodeOptions exactly like `intra_op`; the most recently
/// constructed engine wins). Safe to call concurrently; kernels read it
/// once per call.
void set_kernel_policy(KernelPolicy policy);
KernelPolicy kernel_policy();

/// Resolves env override ▸ policy ▸ CPU capability to the tier the next
/// kernel call will execute.
KernelTier active_kernel_tier();

/// Stable lowercase names for bench/JSON artifacts ("scalar_reference",
/// "fast", "auto" / "scalar", "fast").
const char* kernel_policy_name(KernelPolicy policy);
const char* kernel_tier_name(KernelTier tier);

/// C = A·B (+ C if accumulate). A: [m,k], B: [k,n], C: [m,n].
/// Bitwise identical across kernel tiers.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
/// C = Aᵀ·B. A: [k,m], B: [k,n], C: [m,n].
/// Bitwise identical across kernel tiers.
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
/// C = A·Bᵀ. A: [m,k], B: [n,k], C: [m,n].
/// Fast tier is tolerance-equal only: the dot-product inner loop reduces
/// over the contraction dimension itself, which vectorization necessarily
/// reassociates (DESIGN.md §2 item 18).
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);

/// Y = X·W + bias — Linear's forward with the bias folded into the GEMM
/// epilogue. Bitwise equal to gemm(x, w, y); add_bias(y, bias) in both
/// tiers (the epilogue performs the same single add per element, after the
/// element's accumulation completes).
void gemm_bias(const Tensor& x, const Tensor& w, const Tensor& bias, Tensor& y);

/// Y = X·W + bias and G = gelu(Y) — the fused Linear→GELU forward of the
/// transformer MLP hot path. Bitwise equal to the unfused
/// gemm + add_bias + gelu_forward sequence in both tiers: the epilogue
/// applies the identical bias add and the identical scalar GELU expression
/// to each element while the output tile is cache-hot; fusion changes
/// memory traffic, never arithmetic.
void gemm_bias_gelu(const Tensor& x, const Tensor& w, const Tensor& bias,
                    Tensor& y, Tensor& g);

/// y[r,:] += bias for every row. Bitwise identical across tiers (one add
/// per element in both).
void add_bias(Tensor& y, const Tensor& bias);
/// dbias += column sums of dy. Bitwise identical across tiers: the fast
/// tier puts vector lanes on *columns* and walks rows in the same
/// ascending order as the reference, so each column's accumulation chain
/// is unchanged.
void bias_backward(const Tensor& dy, Tensor& dbias);

/// GELU (tanh approximation), elementwise. Fast tier is tolerance-equal
/// (~1e-6 abs): it evaluates tanh through a vector exp polynomial instead
/// of libm. Each output stays a pure function of its input element, so
/// results are independent of position, row count, and shard split within
/// a tier.
void gelu_forward(const Tensor& x, Tensor& y);
/// dx = dy ⊙ gelu'(x). Same cross-tier contract as gelu_forward.
void gelu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

/// Row-wise LayerNorm with affine parameters gamma/beta (both [1, h]).
/// Fast tier is tolerance-equal: mean/var reduce across vector lanes
/// (fixed combine tree). Row-wise independence is preserved, and the
/// normalize pass is elementwise given (mean, rstd).
void layernorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                       Tensor& y, Tensor& mean, Tensor& rstd);
/// dx is tolerance-equal in the fast tier (lane-reduced per-row dots);
/// dgamma/dbeta are bitwise identical across tiers given the same
/// (mean, rstd) inputs — column lanes, ascending-row accumulation.
void layernorm_backward(const Tensor& x, const Tensor& gamma,
                        const Tensor& mean, const Tensor& rstd,
                        const Tensor& dy, Tensor& dx, Tensor& dgamma,
                        Tensor& dbeta);

/// Row-wise softmax (numerically stabilized). Fast tier is tolerance-equal
/// (vector exp + lane-summed denominator) with two hard guarantees: (1) the
/// vector exp flushes arguments below ≈−87.34 to exactly 0.0f, so masked
/// −1e9 scores still produce exact-zero probabilities; (2) the lane sum
/// assigns element i to lane i%8 with zeroed tail lanes, so a row extended
/// with masked (−1e9) columns yields bitwise the same live prefix as the
/// unextended row. Together they make the fused attention, which runs the
/// softmax row over the causal prefix only, bitwise equal to a masked
/// full-row softmax.
void softmax_rows(const Tensor& x, Tensor& y);

/// Mean cross-entropy of row-softmax(logits) against integer targets.
/// Returns the loss; dlogits = (softmax − onehot)/rows · loss_scale.
/// Fast tier inherits softmax's tolerance contract; the loss is summed
/// over rows in the same serial order in both tiers.
float cross_entropy(const Tensor& logits, const std::vector<int>& targets,
                    Tensor& dlogits, float loss_scale = 1.0f);

// ---- Fused multi-head attention -----------------------------------------
// One row-wise driver serves training forward, backward and decode. Query
// row i of a head reads its Q, K and V rows in place and works only over
// its key prefix (j ≤ i when causal, all keys otherwise), calling the row
// primitives the composed ops dispatch to in the active tier: gemm_nt's
// dot for scores and dP, the softmax_rows row, and ascending separate
// mul+add sums for the context, dQ, dK and dV (gemm/gemm_tn's order).
// The composed gemm_nt → scale → −1e9 mask → softmax_rows → gemm path
// (and its backward) would add only exact ±0 terms past the prefix, so
// every output is bitwise equal to it within each tier; across tiers it
// inherits gemm_nt's and softmax's tolerance (DESIGN.md §2 item 18).
// Shards split (batch, head) pairs, or (row, head) pairs in decode, with
// shape-only split points: pooled ≡ serial bitwise.

/// A run of consecutive key positions whose K and V rows sit at a fixed
/// stride: a training sequence's keys, or one page of a decode session's
/// KV cache. `k`/`v` point at the run's first row, head 0's column.
struct KvRun {
  const float* k;
  const float* v;
  int rows;
};

/// Self-attention forward over the fused [B·seq, 3h] qkv activation
/// (Q | K | V column blocks, `heads` heads of dk = h/heads each, scaled
/// by 1/√dk). `probs` becomes [B·heads·seq, seq] — the softmax row of
/// (batch b, head h, query i) at row (b·heads + h)·seq + i, exact zeros
/// past a causal prefix — and `merged` [B·seq, h], the heads' contexts.
void attention_forward(const Tensor& qkv, int seq, int heads, bool causal,
                       Tensor& probs, Tensor& merged);
/// Backward of attention_forward given its `probs` and the gradient of
/// `merged`: `dqkv` becomes [B·seq, 3h].
void attention_backward(const Tensor& qkv, const Tensor& probs,
                        const Tensor& dmerged, int seq, int heads,
                        bool causal, Tensor& dqkv);
/// Incremental decode: query row r of `qkv` ([R, 3h]; only its Q block is
/// read) attends over the keys of runs[row_runs[r] .. row_runs[r+1]) in
/// that order — K/V rows read in place at stride `ld`. `merged` becomes
/// [R, h]. Row r is bitwise the matching row of attention_forward over
/// the same keys.
void attention_decode(const Tensor& qkv, int heads,
                      const std::vector<KvRun>& runs,
                      const std::vector<int>& row_runs, std::size_t ld,
                      Tensor& merged);

// ---- Shared dense inner loops for the comm layer and optimizer ----------
// These back the collectives' local reduction, gradient compression codecs
// and grad-sync accumulation. All are bitwise identical across tiers (the
// vector forms keep one exact operation per element: add, abs/max, div,
// floor, int8→float convert), so rank agreement and the codec's stochastic
// rounding stream are tier-independent.

/// dst[i] += src[i].
void vector_add(float* dst, const float* src, std::size_t n);
/// max_i |x[i]| (exact — max is associative). Returns 0 for n == 0.
float max_abs(const float* x, std::size_t n);
/// Quantization precompute: a[i] = |x[i]| / scale * levels and
/// floor_a[i] = floor(a[i]). Division and floor are exactly rounded, so
/// both tiers produce identical values and the serial RNG pass that
/// consumes them draws an identical stochastic-rounding stream.
void quantize_prep(const float* x, std::size_t n, float scale, float levels,
                   float* a, float* floor_a);
/// out[i] += unit * float(q[i]) — int8 dequantize-accumulate.
void dequant_add_int8(const std::int8_t* q, std::size_t n, float unit,
                      float* out);

namespace detail {

/// The GELU (tanh approximation) both tiers apply elementwise. One shared
/// inline definition, always compiled in plain (non-target-attributed)
/// code, so gelu_forward and the fused fast-tier epilogue produce bitwise
/// identical transforms of identical inputs.
inline float gelu_eval(float v) {
  constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
  return 0.5f * v * (1.0f + std::tanh(kGeluC * (v + 0.044715f * v * v * v)));
}

/// d/dv of gelu_eval — the single scalar definition of the GELU derivative
/// shared by gelu_backward's reference tier (and any fused epilogue), so
/// no caller re-derives the tanh expression inline.
inline float gelu_grad_eval(float v) {
  constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
  const float u = kGeluC * (v + 0.044715f * v * v * v);
  const float t = std::tanh(u);
  const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
  return 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
}

}  // namespace detail

}  // namespace chimera
