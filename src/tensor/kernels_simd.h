// Internal interface of the fast kernel tier (DESIGN.md §2 item 18):
// register-tiled GEMM microkernels over 16-column B panels (packed per
// panel for m > 6, read in place for m ≤ 6) with fused epilogues, plus
// lane-parallel implementations of the non-GEMM dense ops (bias, GELU,
// LayerNorm, softmax, cross-entropy), the fused attention driver's row
// primitives (gemm_nt's dot, the softmax row, row combine/outer updates)
// and the comm inner loops. The GEMMs ship an AVX2+FMA path selected by
// runtime CPU dispatch plus a portable mirror with the same blocking and
// the same per-element accumulation orders (dot_rows_fast runs either).
// The non-GEMM ops and the other attention row primitives are AVX2-only:
// the tier dispatcher in tensor/kernels.cc routes to them only when
// cpu_supports_avx2_fma() is true, and runs the scalar reference otherwise
// (a scalar "fast tier" trivially satisfies every contract). Only
// tensor/kernels.cc includes this header for dispatch; tests include it to
// query CPU capability.
//
// Contract recap (full per-op table: DESIGN.md §2 item 18):
//  - gemm_fast / gemm_tn_fast keep each output element's serial ascending
//    reduction over the contraction dimension and pair every multiply with
//    a separate add (no FMA contraction) — bitwise ≡ scalar reference on
//    every host. Same for add_bias_fast, bias_backward_fast, the
//    dgamma/dbeta pass of layernorm_backward_fast (column lanes, ascending
//    rows) and the comm loops (one exact op per element).
//  - gemm_nt_fast reduces a dot product across lanes (8 strided partials,
//    fixed combine tree, FMA where available, serial tail, then C + sum)
//    — tolerance-equal to the reference, bitwise to that documented order
//    (tests/kernel_tier_test.cc models it); bitwise stable in the row
//    count for fixed k.
//  - gelu_*_fast, softmax_rows_fast, cross_entropy_fast and the row
//    statistics of layernorm_*_fast use a vector exp/tanh polynomial and
//    lane-summed row reductions — tolerance-equal; every element is a pure
//    function of its row's data (element i always reduces in lane i%8,
//    tails are masked through the same vector code), so results never
//    depend on the shard split, the row count, or zero-extension of masked
//    softmax columns. The vector exp flushes arguments < −87.34 to exactly
//    0.0f, preserving the masked-softmax exact-zero contract.
//  - The attention row primitives reuse those orders: dot_rows_fast is
//    gemm_nt_fast's dot, softmax_row_fast softmax_rows_fast's row, and
//    combine/outer_rows_fast pair each multiply with a separate add like
//    gemm/gemm_tn — so the fused attention over a causal prefix is bitwise
//    the composed ops over the masked full rows, within the tier.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace chimera::simd {

/// True when the running CPU has AVX2 and FMA (what KernelPolicy::kAuto
/// keys on). The fast tier still works without them via the portable path.
bool cpu_supports_avx2_fma();

/// Fast-tier C = A·B (+ C if accumulate). Bitwise ≡ scalar reference.
void gemm_fast(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate);
/// Fast-tier C = Aᵀ·B (+ C). Bitwise ≡ scalar reference.
void gemm_tn_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate);
/// Fast-tier C = A·Bᵀ (+ C). Tolerance-equal to the reference (lane
/// reduction tree); bitwise stable in the row count for fixed k.
void gemm_nt_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate);

/// Fast-tier fused Linear forward: y = x·w + bias, and (when g != nullptr)
/// g = gelu(y). The epilogue runs on each just-computed output tile —
/// the bias add is bitwise ≡ add_bias, and the GELU uses the same
/// evaluation as this host's gelu_forward fast path (vector polynomial on
/// AVX2, detail::gelu_eval on the portable mirror), so fused ≡ unfused
/// bitwise within the tier.
void gemm_bias_act_fast(const Tensor& x, const Tensor& w, const Tensor& bias,
                        Tensor& y, Tensor* g);

/// gemm_nt_fast's per-element dot for one A row against the n B rows at
/// b + j·ldb: out[j] = 0.0f + a·b_j, in 4-row dot groups (AVX2 or the
/// portable mirror, whichever gemm_nt_fast runs on this host). The fused
/// attention driver's score and dP rows.
void dot_rows_fast(const float* a, const float* b, std::size_t ldb, int k,
                   int n, float* out);

// ---- Non-GEMM dense ops (AVX2 hosts only — see header comment) ----------
// Pool sharding uses the same shape-only split points as the scalar
// reference, so pooled ≡ serial holds within the tier by construction.

/// Bitwise ≡ scalar reference.
void add_bias_fast(Tensor& y, const Tensor& bias);
/// Bitwise ≡ scalar reference (column lanes, ascending rows).
void bias_backward_fast(const Tensor& dy, Tensor& dbias);
/// Tolerance-equal (vector tanh); position/shard independent.
void gelu_forward_fast(const Tensor& x, Tensor& y);
/// Tolerance-equal (vector tanh); position/shard independent.
void gelu_backward_fast(const Tensor& x, const Tensor& dy, Tensor& dx);
/// Tolerance-equal (lane-reduced mean/var); row independent.
void layernorm_forward_fast(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, Tensor& y, Tensor& mean,
                            Tensor& rstd);
/// dx tolerance-equal (lane-reduced row dots); dgamma/dbeta bitwise given
/// the same (mean, rstd).
void layernorm_backward_fast(const Tensor& x, const Tensor& gamma,
                             const Tensor& mean, const Tensor& rstd,
                             const Tensor& dy, Tensor& dx, Tensor& dgamma,
                             Tensor& dbeta);
/// Tolerance-equal; masked (< −87.34) scores → exact 0.0f; zero-extension
/// stable (see header comment).
void softmax_rows_fast(const Tensor& x, Tensor& y);
/// The post-softmax pass of cross_entropy: reads each row's target
/// probability into row_logp (as log(max(p, 1e-20))), then scales the row
/// by `k` and subtracts k at the target — same order as the reference.
/// The dispatcher runs softmax first and sums the loss afterwards.
void cross_entropy_grad_fast(Tensor& probs, const std::vector<int>& targets,
                             float k, float* row_logp);

/// softmax_rows_fast on one row of n ≥ 1 elements; x and y may alias.
void softmax_row_fast(const float* x, float* y, int n);
/// out[0..dk) += Σⱼ w[j]·x_j over the n rows x_j = x + j·ld, j ascending,
/// one separate multiply and add per term — bitwise ≡ the scalar loop
/// (and ≡ gemm's per-element order). The attention context and dQ rows.
void combine_rows_fast(const float* w, int n, const float* x, std::size_t ld,
                       int dk, float* out);
/// y_j[0..dk) += w[j]·x for the n rows y_j = y + j·ld — bitwise ≡ the
/// scalar loop. Called for ascending query rows, it is gemm_tn's
/// per-element order: the attention dK and dV updates.
void outer_rows_fast(const float* w, int n, const float* x, int dk, float* y,
                     std::size_t ld);

// ---- Comm / optimizer inner loops (AVX2 hosts only) ---------------------
// All bitwise ≡ their scalar loops: one exact operation per element.

void vector_add_fast(float* dst, const float* src, std::size_t n);
float max_abs_fast(const float* x, std::size_t n);
void quantize_prep_fast(const float* x, std::size_t n, float scale,
                        float levels, float* a, float* floor_a);
void dequant_add_int8_fast(const std::int8_t* q, std::size_t n, float unit,
                           float* out);

}  // namespace chimera::simd
