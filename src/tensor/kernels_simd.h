// Internal interface of the fast kernel tier (DESIGN.md §2 item 18):
// register-tiled GEMM microkernels over 16-column B panels (packed per
// panel when m exceeds the tile's row count, read in place otherwise, or
// stored as panels already: nn::Linear's weight and gradient) with the
// bias/GELU epilogue applied in the tile's registers, plus lane-parallel
// implementations of the non-GEMM dense ops (bias, GELU, LayerNorm,
// softmax, cross-entropy), the fused attention driver's row primitives
// (gemm_nt's dot, the softmax row, row combine/outer updates) and the comm
// inner loops. The GEMM tiles are one source compiled for three ISAs,
// selected by runtime CPU dispatch (active_isa()): AVX-512 (12×16 tiles,
// one zmm per row), AVX2+FMA (6×16 tiles, two ymm per row) and a portable
// mirror of the 6×16 blocking, all with the same per-element accumulation
// orders.
// gemm_nt shards 4-column dot groups and runs them in register-blocked dot
// blocks of balanced height: up to 6 rows × 4 columns of 8-lane ymm
// accumulators on AVX-512 (the AVX2 arithmetic with AVX-512VL's 32
// registers), up to 3 × 4 on AVX2 and the portable mirror; dot_rows_fast
// runs the 1-row blocks. The non-GEMM ops and the other
// attention row primitives are AVX2-only: the tier dispatcher in
// tensor/kernels.cc routes to them only when cpu_supports_avx2_fma() is
// true, and runs the scalar reference otherwise (a scalar "fast tier"
// trivially satisfies every contract). Only tensor/kernels.cc includes
// this header for dispatch; tests include it to query and cap the ISA, and
// the benches to record it.
//
// Contract recap (full per-op table: DESIGN.md §2 item 18):
//  - gemm_fast / gemm_tn_fast keep each output element's serial ascending
//    reduction over the contraction dimension as an fma chain, one
//    rounding per term (Vec::madd) — bitwise ≡ the scalar reference's
//    std::fma chain on every host. Bitwise too: add_bias_fast,
//    bias_backward_fast, the
//    dgamma/dbeta pass of layernorm_backward_fast (column lanes, ascending
//    rows) and the comm loops (one exact op per element).
//  - gemm_nt_fast reduces a dot product across lanes (8 strided partials,
//    fixed combine tree, FMA where available, serial tail, then C + sum)
//    — tolerance-equal to the reference, bitwise to that documented order
//    (tests/kernel_tier_test.cc models it); bitwise stable in the row
//    count, the dot block height and the shard split for fixed k.
//  - The fused epilogue (gemm_bias_act_fast) adds the bias to the tile's
//    accumulators and applies GELU to those registers — the same single
//    add per element as add_bias, and the same GELU evaluation as this
//    ISA's gelu_forward_fast (one GELU source compiled for 16 and 8 lanes,
//    so AVX-512 and AVX2 give each lane the same bits).
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
//    combine/outer_rows_fast run gemm/gemm_tn's fma chain — so the fused
//    attention over a causal prefix is bitwise
//    the composed ops over the masked full rows, within the tier.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace chimera::simd {

/// The instruction sets the fast tier's GEMM tiles come in, narrowest
/// first. kAvx2 means AVX2+FMA; kAvx512 means that plus AVX-512F and
/// AVX-512VL (the dot blocks use VL's ymm16–31).
enum class Isa { kPortable, kAvx2, kAvx512 };

/// The widest ISA the running CPU supports, capped by a live ScopedIsaCap:
/// the one the fast tier's kernels dispatch to.
Isa active_isa();
/// "portable", "avx2" or "avx512".
const char* isa_name(Isa isa);

/// Test-only: caps active_isa() at `cap` process-wide (the pool's helper
/// threads included) for its lifetime, so one host runs every narrower
/// ISA's kernels. CHECKs that the host supports `cap`. Construct and
/// destroy it on one thread while no kernel runs elsewhere.
class ScopedIsaCap {
 public:
  explicit ScopedIsaCap(Isa cap);
  ~ScopedIsaCap();
  ScopedIsaCap(const ScopedIsaCap&) = delete;
  ScopedIsaCap& operator=(const ScopedIsaCap&) = delete;

 private:
  Isa saved_;
};

/// True when the kernels may use AVX2 and FMA: active_isa() ≥ kAvx2 (what
/// KernelPolicy::kAuto keys on). The fast tier still works without them
/// via the portable path.
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

/// Fast-tier fused Linear forward: y = x·W + bias, and (when g != nullptr)
/// g = gelu(y), with W in panel layout (tensor/kernels.h). The epilogue
/// runs on each tile's accumulators before they are stored — the bias add
/// is bitwise ≡ add_bias, and the GELU uses the same evaluation as this
/// ISA's gelu_forward (vector polynomial on AVX2 and AVX-512,
/// detail::gelu_eval on the portable mirror), so fused ≡ gemm + add_bias +
/// gelu_forward bitwise within the tier.
void gemm_bias_act_fast(const Tensor& x, const Tensor& wp, const Tensor& bias,
                        Tensor& y, Tensor* g);
/// Fast-tier dX = dY·Wᵀ, W in panel layout: gemm_nt_fast's column-group
/// shards and dot blocks over the panel rows — bitwise ≡ gemm_nt_fast on
/// the row-major W.
void gemm_nt_panel_fast(const Tensor& dy, const Tensor& wp, Tensor& dx);
/// Fast-tier dW += Xᵀ·dY, dW in panel layout: gemm_tn_fast's tiles stored
/// at row stride 16 — bitwise ≡ gemm_tn_fast into the row-major dW.
void gemm_tn_panel_fast(const Tensor& x, const Tensor& dy, Tensor& dwp);

/// gemm_nt_fast's per-element dot for one A row against the n B rows at
/// b + j·ldb: out[j] = 0.0f + a·b_j, in 1-row × 4-column dot blocks of the
/// ISA gemm_nt_fast runs on this host. The fused attention driver's score
/// and dP rows.
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
/// one fused multiply-add per term — bitwise ≡ the scalar loop
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
