// Fast GEMM tier: register-tiled microkernels over 16-column B panels
// (DESIGN.md §2 item 18).
//
// Layout. gemm/gemm_tn shard over 16-wide column panels of C, with the same
// shape-only split points every kernel uses. A shard walks its own panels
// and sweeps all m rows of each with MR×16 register tiles (MR = 12 on
// AVX-512, 6 on AVX2 and the portable mirror). When m > MR the row tiles
// share the panel, so the shard first copies it — k rows of 16 floats —
// into a thread-local k×16 buffer with vector copies; when m ≤ MR a single
// tile covers every row, so it reads B in place at row stride n (masked
// loads on a tail panel) and nothing is packed. The ⌈m/MR⌉ row tiles are
// balanced to within one row. gemm_nt shards 4-column dot groups — four B
// rows each — and sweeps all m rows of A against every group of its shard
// in ⌈m/MR⌉ dot blocks of up to MR rows × 4 columns, heights balanced the
// same way (MR = 6 on AVX-512, 3 on AVX2 and the portable mirror), so each
// B row is read once per call and stays L1-resident while A streams past.
// nn::Linear stores its weight as those k×16 panels for good
// (tensor/kernels.h): its forward reads each panel in place at any m, its
// dW tiles store into the panel gradient at row stride 16, and its dX dot
// blocks take each W row's 8-lane chunks from consecutive panels. The
// forward's bias/GELU epilogue runs on the tile's accumulators before they
// are stored, so nothing re-reads what the tile just wrote.
//
// Registers. A tile's accumulators (AVX2: 6 rows × two 8-float ymm;
// AVX-512: 12 rows × one 16-float zmm) and a dot block's lane partials
// (AVX2: 3 rows × 4 columns of ymm plus 3 A and 1 B vectors, 16 ymm;
// AVX-512: 6 × 4 plus 6 + 1, 31 of the 32 ymm that AVX-512VL addresses)
// must stay in registers across the whole k loop at the default build type
// (RelWithDebInfo, -O2). gcc does not unroll the short row/column loops
// there by itself, and then every accumulator makes a round trip through
// the stack on each k step — about a third of the tile's throughput. Those
// loops therefore carry `#pragma GCC unroll`, which fully unrolls them so
// every accumulator index is a compile-time constant and the arrays become
// registers.
//
// One source per kernel: the tiles, the dot blocks, exp/tanh/GELU and the
// GELU rows are written once (tensor/kernels_simd_isa.inc) over the lane
// types of tensor/simd_vec.h — 16-lane zmm, 8-lane ymm and a portable lane
// array — and compiled once per ISA: included into one namespace inside
// each ISA's `#pragma GCC target` region, since gcc cannot take a target
// from a template parameter. active_isa() (CPUID) picks the namespace's
// tables. The portable mirror has the same blocking and per-element orders;
// the AVX-512 dot blocks are the 8-lane dot with AVX-512VL's 32 registers.
// The other non-GEMM rows are AVX2-only.
//
// Determinism. gemm/gemm_tn tiles broadcast one A element against 16 B
// lanes and fold each term in with one fused multiply-add (Vec::madd:
// vfmadd231ps, or a per-lane std::fma on the portable lanes), so each
// output element performs the scalar reference's serial ascending-l chain
// c = fma(a_l, b_l, c). fma is correctly rounded, so the chain is bitwise
// identical on every host and in every ISA, whatever the tile height, the
// panel split or whether B was packed. Every fusion here is explicit: the
// file is compiled with -ffp-contract=off (CMakeLists pins the flag), so
// the mul+add sequences that must stay two roundings — the exp polynomial,
// the GELU, gemm_nt's scalar tail — are never contracted. gemm_nt reduces
// a dot product across lanes: 8 strided partials, a fixed combine tree,
// explicit FMA intrinsics in the vector body, and a scalar tail —
// tolerance-equal to the reference, but a pure function of k and the data:
// a dot block gives each element its own accumulator and only shares the
// loads, so results never depend on the block height, the row count or the
// shard split. The fused attention row primitives reuse both:
// dot_rows_fast runs gemm_nt's 1-row dot blocks, and combine/outer_rows_fast
// run the gemm tiles' fma chain.
#include "tensor/kernels_simd.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <utility>

#include "tensor/arena.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"
#include "tensor/simd_vec.h"

namespace chimera::simd {
namespace {

using vec::Lanes;
using vec::Vec;
#if CHIMERA_SIMD_X86
using vec::F16;
using vec::F8;
#endif

constexpr int kNR = 16;       ///< panel width: two ymm or one zmm
constexpr int kMR = 6;        ///< AVX2/portable tile rows (12 acc ymm + 4 live)
constexpr int kMR512 = 12;    ///< AVX-512 tile rows (12 acc zmm hide the add latency)
constexpr int kNtGroup = 4;   ///< gemm_nt dot-product columns per group
constexpr int kDotMR = 3;     ///< AVX2/portable dot block rows (16 ymm live)
constexpr int kDotMR512 = 6;  ///< AVX-512 dot block rows (31 of 32 ymm live)

/// Per-thread k×16 panel buffer, grow-only so the steady state neither
/// allocates nor memsets (packing overwrites every row it hands to a
/// tile). Seeded from the arena so warm parked buffers get reused.
float* panel_workspace(std::size_t n) {
  static thread_local detail::FloatBuffer buf;
  if (buf.size() < n) {
    detail::arena_release(std::move(buf));
    buf = detail::arena_acquire(n);
    buf.resize(n);
  }
  return buf.data();
}

/// One MR×width tile of C (+)= A·B[:, j0..j0+width). `pa` points at the
/// tile's first A element; element (r, l) of the tile's A slice lives at
/// pa[r·ra + l·rl] (NN: ra=k, rl=1; TN: ra=1, rl=m — the strides absorb
/// the transpose so both variants share every microkernel). `pb` points at
/// the strip's first B element and row l of the strip lives at pb[l·ldb]
/// (ldb = 16 for a packed panel, n for B read in place). `width` ∈ [1, 16]
/// live columns; B lanes past it are never read. The epilogue works on the
/// accumulators: a non-null `bias` (the strip's first bias element) is
/// added to each row before C is stored, and a non-null `pg` receives
/// gelu(C) at the same row stride ldc.
using TileFn = void (*)(const float* pa, std::size_t ra, std::size_t rl,
                        int k, const float* pb, std::size_t ldb, float* pc,
                        std::size_t ldc, int width, bool accumulate,
                        const float* bias, float* pg);

/// One MR×JT block of C (+)= A·Bᵀ: element (r, g), at pc[r·ldc + g], is the
/// dot product of A row r (at pa + r·lda) with B row g. B row g's 8-lane
/// chunk at l (l a multiple of 8) lives at pb + g·rs + (l/16)·bs + l%16:
/// rs = ldb, bs = 16 for a row-major B; rs = 16, bs = rows·16 for a B in
/// panel layout. A chunk never straddles a 16-lane block, so the chunks
/// (and the tail) ascend in the same order whatever the layout, and each
/// element keeps its bits. Every element has its own 8-lane accumulator;
/// the block only shares loads, so an element's bits never depend on MR,
/// JT or its position in the block.
using DotBlockFn = void (*)(const float* pa, std::size_t lda, const float* pb,
                            std::size_t rs, std::size_t bs, int k, float* pc,
                            std::size_t ldc, bool accumulate);

/// mr/jt-indexed dispatch tables (index 0 unused; tile and dot entries past
/// `mr` and `dot_mr` are null). The tiles' epilogue applies the GELU
/// evaluation this ISA's gelu_forward uses, so fused ≡ unfused stays
/// bitwise within the tier.
struct Tables {
  int mr;  ///< tile rows: gemm_panels splits m into ⌈m/mr⌉ tiles
  TileFn tile[2][kMR512 + 1];  ///< [tail strip][rows]
  int dot_mr;  ///< dot block rows: gemm_nt_rows splits m into ⌈m/dot_mr⌉
  DotBlockFn dot[kDotMR512 + 1][kNtGroup + 1];  ///< [rows][columns]
};

/// Arguments below this produce a subnormal exp — exp() flushes them to
/// exactly 0.0f, which is what keeps masked (−1e9) softmax scores at
/// exact-zero probability in the fast tier, same as std::exp underflow in
/// the reference. Also the low clamp: for x ≥ kExpLo the biased exponent
/// 2^n stays normal (n ≥ −126), so the scale-by-2^n bit trick never wraps.
/// A flushed lane's argument is zeroed before the clamp: evaluated at the
/// clamp itself, its discarded result lands near the subnormal range, which
/// the multiplier handles through a microcode assist about ten times slower
/// than the normal path (masked softmax columns, GELU inputs below ≈ −10).
constexpr float kExpLo = -87.33654475f;
constexpr float kExpHi = 88.3762626647949f;  // just below log(FLT_MAX)
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

namespace portable {
#include "tensor/kernels_simd_isa.inc"
constexpr Tables kTables = make_tables<Lanes<kNR>, kMR, Lanes<8>, kDotMR>();
}  // namespace portable

#if CHIMERA_SIMD_X86
// Only entered after active_isa() names the ISA; the rest of the binary
// stays baseline x86-64.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
#include "tensor/kernels_simd_isa.inc"
constexpr Tables kTables = make_tables<F8, kMR, F8, kDotMR>();

using V8 = Vec<F8>;

/// Fixed-tree horizontal max (max is exact, so the tree shape is moot for
/// the result; fixed anyway for determinism hygiene).
inline float hmax8(__m256 v) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

/// Lane-summed row reduction: element i lands in lane i%8, the tail block
/// is masked (dead lanes exactly 0.0f before the add), and hsum combines
/// with a fixed tree. Extending a row with elements whose f-value is
/// exactly 0.0f therefore cannot change the sum bitwise — the
/// zero-extension stability softmax needs for the decode contract.

float row_max(const float* p, int n) {
  int j = 0;
  float mx;
  if (n >= 8) {
    __m256 vmx = _mm256_loadu_ps(p);
    for (j = 8; j + 8 <= n; j += 8)
      vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(p + j));
    mx = hmax8(vmx);
  } else {
    mx = p[0];
    j = 1;
  }
  for (; j < n; ++j) mx = std::max(mx, p[j]);
  return mx;
}

void softmax_row(const float* px, float* py, int C) {
  const __m256 bmx = _mm256_set1_ps(row_max(px, C));
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= C; j += 8) {
    const __m256 e = exp(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmx));
    _mm256_storeu_ps(py + j, e);
    acc = _mm256_add_ps(acc, e);
  }
  if (j < C) {
    const __m256i m = V8::mask(C - j);
    __m256 e = exp(_mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmx));
    e = _mm256_and_ps(e, _mm256_castsi256_ps(m));  // dead lanes → exact 0
    _mm256_maskstore_ps(py + j, m, e);
    acc = _mm256_add_ps(acc, e);
  }
  const float inv = 1.0f / V8::hsum(acc);
  const __m256 binv = _mm256_set1_ps(inv);
  for (j = 0; j + 8 <= C; j += 8)
    _mm256_storeu_ps(py + j, _mm256_mul_ps(_mm256_loadu_ps(py + j), binv));
  for (; j < C; ++j) py[j] *= inv;  // elementwise: scalar tail ≡ vector lane
}

void layernorm_row(const float* px, const float* gamma, const float* beta,
                        float* py, int H, float* mu_out, float* rs_out) {
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= H; j += 8)
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(px + j));
  if (j < H) {
    const __m256i m = V8::mask(H - j);
    acc = _mm256_add_ps(acc, _mm256_maskload_ps(px + j, m));
  }
  const float mu = V8::hsum(acc) / H;
  const __m256 bmu = _mm256_set1_ps(mu);
  acc = _mm256_setzero_ps();
  for (j = 0; j + 8 <= H; j += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(px + j), bmu);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  if (j < H) {
    const __m256i m = V8::mask(H - j);
    const __m256 d = _mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmu);
    acc = _mm256_add_ps(
        acc, _mm256_and_ps(_mm256_mul_ps(d, d), _mm256_castsi256_ps(m)));
  }
  const float var = V8::hsum(acc) / H;
  const float rs = 1.0f / std::sqrt(var + 1e-5f);
  *mu_out = mu;
  *rs_out = rs;
  const __m256 brs = _mm256_set1_ps(rs);
  for (j = 0; j + 8 <= H; j += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmu), brs);
    _mm256_storeu_ps(
        py + j, _mm256_add_ps(_mm256_mul_ps(xhat, _mm256_loadu_ps(gamma + j)),
                              _mm256_loadu_ps(beta + j)));
  }
  for (; j < H; ++j)
    py[j] = (px[j] - mu) * rs * gamma[j] + beta[j];
}

void layernorm_dx_row(const float* px, const float* gamma,
                           const float* pdy, float mu, float rs, float* pdx,
                           int H) {
  const __m256 bmu = _mm256_set1_ps(mu);
  const __m256 brs = _mm256_set1_ps(rs);
  __m256 acc1 = _mm256_setzero_ps();  // Σ dy·γ
  __m256 acc2 = _mm256_setzero_ps();  // Σ dy·γ·x̂
  int j = 0;
  for (; j + 8 <= H; j += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmu), brs);
    const __m256 dyg =
        _mm256_mul_ps(_mm256_loadu_ps(pdy + j), _mm256_loadu_ps(gamma + j));
    acc1 = _mm256_add_ps(acc1, dyg);
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(dyg, xhat));
  }
  if (j < H) {
    const __m256i m = V8::mask(H - j);
    const __m256 mm = _mm256_castsi256_ps(m);
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmu), brs);
    const __m256 dyg = _mm256_mul_ps(_mm256_maskload_ps(pdy + j, m),
                                     _mm256_maskload_ps(gamma + j, m));
    acc1 = _mm256_add_ps(acc1, _mm256_and_ps(dyg, mm));
    acc2 = _mm256_add_ps(acc2, _mm256_and_ps(_mm256_mul_ps(dyg, xhat), mm));
  }
  const __m256 bq1 = _mm256_set1_ps(V8::hsum(acc1) / H);
  const __m256 bq2 = _mm256_set1_ps(V8::hsum(acc2) / H);
  for (j = 0; j + 8 <= H; j += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmu), brs);
    const __m256 dyg =
        _mm256_mul_ps(_mm256_loadu_ps(pdy + j), _mm256_loadu_ps(gamma + j));
    const __m256 dx = _mm256_mul_ps(
        brs, _mm256_sub_ps(_mm256_sub_ps(dyg, bq1), _mm256_mul_ps(xhat, bq2)));
    _mm256_storeu_ps(pdx + j, dx);
  }
  if (j < H) {
    const __m256i m = V8::mask(H - j);
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmu), brs);
    const __m256 dyg = _mm256_mul_ps(_mm256_maskload_ps(pdy + j, m),
                                     _mm256_maskload_ps(gamma + j, m));
    const __m256 dx = _mm256_mul_ps(
        brs, _mm256_sub_ps(_mm256_sub_ps(dyg, bq1), _mm256_mul_ps(xhat, bq2)));
    _mm256_maskstore_ps(pdx + j, m, dx);
  }
}

/// dgamma/dbeta for columns [c0, c1): vector lanes sit on columns and rows
/// advance in the same ascending order as the reference, so every column's
/// accumulation chain — and the result — is bitwise identical.
void lnbwd_param_shard(const float* px, const float* pdy,
                            const float* pmu, const float* prs, float* dgamma,
                            float* dbeta, int R, int H, int c0, int c1) {
  for (int r = 0; r < R; ++r) {
    const float* xrow = px + static_cast<std::size_t>(r) * H;
    const float* dyrow = pdy + static_cast<std::size_t>(r) * H;
    const __m256 bmu = _mm256_set1_ps(pmu[r]);
    const __m256 brs = _mm256_set1_ps(prs[r]);
    int c = c0;
    for (; c + 8 <= c1; c += 8) {
      const __m256 dy = _mm256_loadu_ps(dyrow + c);
      const __m256 xhat =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xrow + c), bmu), brs);
      _mm256_storeu_ps(dgamma + c, _mm256_add_ps(_mm256_loadu_ps(dgamma + c),
                                                 _mm256_mul_ps(dy, xhat)));
      _mm256_storeu_ps(dbeta + c,
                       _mm256_add_ps(_mm256_loadu_ps(dbeta + c), dy));
    }
    for (; c < c1; ++c) {
      const float xhat = (xrow[c] - pmu[r]) * prs[r];
      dgamma[c] += dyrow[c] * xhat;
      dbeta[c] += dyrow[c];
    }
  }
}

/// dbias column sums for columns [c0, c1): same column-lane layout.
void bias_bwd_shard(const float* pdy, float* dbias, int R, int C, int c0,
                         int c1) {
  for (int r = 0; r < R; ++r) {
    const float* dyrow = pdy + static_cast<std::size_t>(r) * C;
    int c = c0;
    for (; c + 8 <= c1; c += 8)
      _mm256_storeu_ps(dbias + c, _mm256_add_ps(_mm256_loadu_ps(dbias + c),
                                                _mm256_loadu_ps(dyrow + c)));
    for (; c < c1; ++c) dbias[c] += dyrow[c];
  }
}

void add_row(float* dst, const float* src, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(dst + j, _mm256_add_ps(_mm256_loadu_ps(dst + j),
                                            _mm256_loadu_ps(src + j)));
  for (; j < n; ++j) dst[j] += src[j];
}

void scale_row(float* p, int n, float k) {
  const __m256 bk = _mm256_set1_ps(k);
  int j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(p + j, _mm256_mul_ps(_mm256_loadu_ps(p + j), bk));
  for (; j < n; ++j) p[j] *= k;
}

float max_abs(const float* x, std::size_t n) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmx = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    vmx = _mm256_max_ps(vmx, _mm256_and_ps(absmask, _mm256_loadu_ps(x + j)));
  float mx = hmax8(vmx);
  for (; j < n; ++j) mx = std::max(mx, std::abs(x[j]));
  return mx;
}

void quantize_prep(const float* x, std::size_t n, float scale,
                        float levels, float* a, float* floor_a) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 bscale = _mm256_set1_ps(scale);
  const __m256 blevels = _mm256_set1_ps(levels);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 av = _mm256_and_ps(absmask, _mm256_loadu_ps(x + j));
    // |x|/scale then ·levels — division and multiply are exactly rounded,
    // so this matches the scalar expression bitwise.
    const __m256 q = _mm256_mul_ps(_mm256_div_ps(av, bscale), blevels);
    _mm256_storeu_ps(a + j, q);
    _mm256_storeu_ps(floor_a + j,
                     _mm256_round_ps(q, _MM_FROUND_TO_NEG_INF |
                                            _MM_FROUND_NO_EXC));
  }
  for (; j < n; ++j) {
    const float q = std::abs(x[j]) / scale * levels;
    a[j] = q;
    floor_a[j] = std::floor(q);
  }
}

void dequant_add_int8(const std::int8_t* q, std::size_t n, float unit,
                           float* out) {
  const __m256 bunit = _mm256_set1_ps(unit);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i q8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + j));
    const __m256 qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q8));
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j),
                                            _mm256_mul_ps(bunit, qf)));
  }
  for (; j < n; ++j) out[j] += unit * static_cast<float>(q[j]);
}

/// Fused-attention row updates (tensor/kernels.cc's attention driver):
/// NV vectors cover a column block of width w ∈ (8(NV−1), 8NV]; a tail
/// block's last vector is masked. Every term is one fused multiply-add, so
/// each element is bitwise the scalar loop's — the same rounding
/// gemm/gemm_tn's tiles produce.

/// out[0..w) += Σⱼ wts[j]·x_j over rows x_j = x + j·ld, j ascending.
template <int NV, bool kTail>
void combine(const float* wts, int n, const float* x, std::size_t ld, int w,
             float* out) {
  const __m256i mt = V8::mask(w - 8 * (NV - 1));
  __m256 acc[NV];
#pragma GCC unroll 4
  for (int v = 0; v < NV - 1; ++v) acc[v] = _mm256_loadu_ps(out + 8 * v);
  acc[NV - 1] = load_strip<F8, kTail>(out + 8 * (NV - 1), mt);
  for (int j = 0; j < n; ++j, x += ld) {
    const __m256 bw = _mm256_broadcast_ss(wts + j);
#pragma GCC unroll 4
    for (int v = 0; v < NV - 1; ++v)
      acc[v] = _mm256_fmadd_ps(bw, _mm256_loadu_ps(x + 8 * v), acc[v]);
    acc[NV - 1] = _mm256_fmadd_ps(
        bw, load_strip<F8, kTail>(x + 8 * (NV - 1), mt), acc[NV - 1]);
  }
#pragma GCC unroll 4
  for (int v = 0; v < NV - 1; ++v) _mm256_storeu_ps(out + 8 * v, acc[v]);
  store_strip<F8, kTail>(out + 8 * (NV - 1), mt, acc[NV - 1]);
}

/// y_j[0..w) += wts[j]·x for rows y_j = y + j·ld.
template <int NV, bool kTail>
void outer(const float* wts, int n, const float* x, int w, float* y,
           std::size_t ld) {
  const __m256i mt = V8::mask(w - 8 * (NV - 1));
  __m256 xv[NV];
#pragma GCC unroll 4
  for (int v = 0; v < NV - 1; ++v) xv[v] = _mm256_loadu_ps(x + 8 * v);
  xv[NV - 1] = load_strip<F8, kTail>(x + 8 * (NV - 1), mt);
  for (int j = 0; j < n; ++j, y += ld) {
    const __m256 bw = _mm256_broadcast_ss(wts + j);
#pragma GCC unroll 4
    for (int v = 0; v < NV - 1; ++v)
      _mm256_storeu_ps(y + 8 * v, _mm256_fmadd_ps(bw, xv[v],
                                                  _mm256_loadu_ps(y + 8 * v)));
    float* yt = y + 8 * (NV - 1);
    store_strip<F8, kTail>(
        yt, mt, _mm256_fmadd_ps(bw, xv[NV - 1], load_strip<F8, kTail>(yt, mt)));
  }
}

using CombineFn = void (*)(const float*, int, const float*, std::size_t, int,
                           float*);
using OuterFn = void (*)(const float*, int, const float*, int, float*,
                         std::size_t);

/// [tail][NV] (NV index 0 unused).
constexpr CombineFn kCombine[2][5] = {
    {nullptr, combine<1, false>, combine<2, false>, combine<3, false>,
     combine<4, false>},
    {nullptr, combine<1, true>, combine<2, true>, combine<3, true>,
     combine<4, true>}};
constexpr OuterFn kOuter[2][5] = {
    {nullptr, outer<1, false>, outer<2, false>, outer<3, false>,
     outer<4, false>},
    {nullptr, outer<1, true>, outer<2, true>, outer<3, true>,
     outer<4, true>}};

}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx2,fma")
namespace avx512 {
#include "tensor/kernels_simd_isa.inc"
constexpr Tables kTables = make_tables<F16, kMR512, F8, kDotMR512>();
}  // namespace avx512
#pragma GCC pop_options
#endif  // CHIMERA_SIMD_X86

const Tables& tables() {
#if CHIMERA_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512: return avx512::kTables;
    case Isa::kAvx2: return avx2::kTables;
    case Isa::kPortable: break;
  }
#endif
  return portable::kTables;
}


/// Copies the k×width strip at pb (row stride ldb) into a dense k×16
/// panel. A full-width row is a fixed 64-byte copy, which the compiler
/// emits as vector moves; lanes past a tail strip's width stay unset, as
/// tiles never read them.
void pack_panel(const float* pb, std::size_t ldb, int k, int width,
                float* panel) {
  if (width == kNR)
    for (int l = 0; l < k; ++l, pb += ldb, panel += kNR)
      std::memcpy(panel, pb, sizeof(float) * kNR);
  else
    for (int l = 0; l < k; ++l, pb += ldb, panel += kNR)
      std::memcpy(panel, pb, sizeof(float) * width);
}

/// Which operands of gemm_panels are stored in panel layout (nn::Linear's
/// weight and weight gradient) rather than row-major.
enum class PanelOperand { kNone, kB, kC };

/// Shared panel loop for gemm (ra=k, rl=1) and gemm_tn (ra=1, rl=m):
/// shard the 16-column panels of C, then sweep all m rows of each panel
/// with t.mr×16 tiles. With m > t.mr a row-major B is packed once per panel
/// into the thread's k×16 buffer, where it stays cache-hot; with m ≤ t.mr
/// one tile covers all rows and reads B in place. A panel-layout B
/// (`layout` kB) is already that buffer: its block p is read in place at
/// any m. A panel-layout C (kC) takes each tile at row stride 16 inside its
/// block. When `bias`/`pg` are set (nn::Linear's forward: panel B,
/// row-major C, g at C's row stride), each tile runs the fused epilogue on
/// its accumulators: the bias add is the same single add per element as
/// add_bias, and the GELU is the evaluation this ISA's fast-tier
/// gelu_forward also uses — so fusion is bitwise-identical to the unfused
/// add_bias/gelu_forward passes within the tier. The tiles' per-element
/// order is the same for every layout and tile height, so the layouts and
/// ISAs are bitwise interchangeable.
void gemm_panels(const float* pa, std::size_t ra, std::size_t rl, int m,
                 int n, int k, const float* pb, float* pc, bool accumulate,
                 const float* bias, float* pg, PanelOperand layout) {
  const Tables& t = tables();
  const int panels = (n + kNR - 1) / kNR;
  const bool b_panels = layout == PanelOperand::kB;
  const bool c_panels = layout == PanelOperand::kC;
  const bool pack = m > t.mr && !b_panels;
  const std::size_t ldc = c_panels ? kNR : n;
  const std::size_t work = static_cast<std::size_t>(m) * k * kNR;
  for_shards(panels, work, [&](int p0, int p1) {
    float* buf = pack ? panel_workspace(static_cast<std::size_t>(k) * kNR)
                      : nullptr;
    for (int p = p0; p < p1; ++p) {
      const int j0 = p * kNR;
      const int width = std::min(kNR, n - j0);
      const float* panel =
          b_panels ? pb + static_cast<std::size_t>(p) * k * kNR : pb + j0;
      std::size_t ldb = b_panels ? kNR : n;
      if (pack) {
        pack_panel(panel, ldb, k, width, buf);
        panel = buf;
        ldb = kNR;
      }
      float* cpanel =
          c_panels ? pc + static_cast<std::size_t>(p) * m * kNR : pc + j0;
      const float* pbias = bias ? bias + j0 : nullptr;
      float* gpanel = pg ? pg + j0 : nullptr;
      // ⌈m/mr⌉ tiles whose heights differ by at most one, so a row count
      // just past a multiple of mr never leaves a 1-row tile streaming the
      // whole panel for one row.
      const int tiles = (m + t.mr - 1) / t.mr;
      for (int ti = 0; ti < tiles; ++ti) {
        const int i = shard_begin(m, tiles, ti);
        t.tile[width < kNR][shard_begin(m, tiles, ti + 1) - i](
            pa + i * ra, ra, rl, k, panel, ldb, cpanel + i * ldc, ldc, width,
            accumulate, pbias, gpanel ? gpanel + i * ldc : nullptr);
      }
    }
  });
}

/// Column-group shards × dot blocks: a shard owns a range of 4-column dot
/// groups (4 B rows each) and sweeps all m rows of A against each group in
/// ⌈m/dot_mr⌉ blocks whose heights differ by at most one (m = 16 on
/// AVX-512: 6 + 5 + 5, not 6 + 6 and four lone rows, which each run a
/// third of a 6-row block's FMAs per load). Each B row is read from
/// memory once per call and stays L1-resident while A streams past it. B
/// row j starts at pb + j·rs, its 16-lane blocks `bs` apart (DotBlockFn).
void gemm_nt_rows(const float* pa, int m, int n, int k, const float* pb,
                  std::size_t rs, std::size_t bs, float* pc, bool accumulate) {
  const Tables& t = tables();
  const int groups = (n + kNtGroup - 1) / kNtGroup;
  const std::size_t lda = k, ldc = n;
  const int blocks = (m + t.dot_mr - 1) / t.dot_mr;
  const std::size_t work = static_cast<std::size_t>(m) * k * kNtGroup;
  for_shards(groups, work, [&](int g0, int g1) {
    for (int g = g0; g < g1; ++g) {
      const int j0 = g * kNtGroup;
      const int jt = std::min(kNtGroup, n - j0);
      const float* bj = pb + static_cast<std::size_t>(j0) * rs;
      for (int bi = 0; bi < blocks; ++bi) {
        const int i = shard_begin(m, blocks, bi);
        t.dot[shard_begin(m, blocks, bi + 1) - i][jt](
            pa + i * lda, lda, bj, rs, bs, k, pc + i * ldc + j0, ldc,
            accumulate);
      }
    }
  });
}

}  // namespace

namespace {

Isa host_isa() {
#if CHIMERA_SIMD_X86
  static const Isa isa =
      !(__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
          ? Isa::kPortable
      : __builtin_cpu_supports("avx512f") &&
              __builtin_cpu_supports("avx512vl")
          ? Isa::kAvx512
          : Isa::kAvx2;
  return isa;
#else
  return Isa::kPortable;
#endif
}

std::atomic<Isa> g_isa_cap{Isa::kAvx512};

}  // namespace

Isa active_isa() {
  return std::min(host_isa(), g_isa_cap.load(std::memory_order_relaxed));
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512: return "avx512";
    case Isa::kAvx2: return "avx2";
    case Isa::kPortable: break;
  }
  return "portable";
}

ScopedIsaCap::ScopedIsaCap(Isa cap) : saved_(g_isa_cap.load()) {
  CHIMERA_CHECK(cap <= host_isa() && "the host does not support this ISA");
  g_isa_cap.store(cap);
}

ScopedIsaCap::~ScopedIsaCap() { g_isa_cap.store(saved_); }

bool cpu_supports_avx2_fma() { return active_isa() >= Isa::kAvx2; }

void gemm_fast(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  CHIMERA_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  gemm_panels(a.data(), k, 1, m, n, k, b.data(), c.data(), accumulate,
              nullptr, nullptr, PanelOperand::kNone);
}

void gemm_tn_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate) {
  const int k = a.rows(), m = a.cols(), n = b.cols();
  CHIMERA_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  gemm_panels(a.data(), 1, m, m, n, k, b.data(), c.data(), accumulate,
              nullptr, nullptr, PanelOperand::kNone);
}

void gemm_nt_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate) {
  const int m = a.rows(), k = a.cols(), n = b.rows();
  CHIMERA_CHECK(b.cols() == k && c.rows() == m && c.cols() == n);
  gemm_nt_rows(a.data(), m, n, k, b.data(), k, kNR, c.data(), accumulate);
}

void gemm_bias_act_fast(const Tensor& x, const Tensor& wp, const Tensor& bias,
                        Tensor& y, Tensor* g) {
  const int m = x.rows(), k = x.cols(), n = bias.cols();
  CHIMERA_CHECK(wp.rows() == panel_rows(k, n) && wp.cols() == kNR);
  CHIMERA_CHECK(y.rows() == m && y.cols() == n && bias.rows() == 1);
  if (g != nullptr) CHIMERA_CHECK(g->rows() == m && g->cols() == n);
  gemm_panels(x.data(), k, 1, m, n, k, wp.data(), y.data(),
              /*accumulate=*/false, bias.data(),
              g != nullptr ? g->data() : nullptr, PanelOperand::kB);
}

void gemm_nt_panel_fast(const Tensor& dy, const Tensor& wp, Tensor& dx) {
  const int m = dy.rows(), n = dx.cols(), k = dy.cols();
  CHIMERA_CHECK(dx.rows() == m && wp.rows() == panel_rows(n, k) &&
                wp.cols() == kNR);
  gemm_nt_rows(dy.data(), m, n, k, wp.data(), kNR,
               static_cast<std::size_t>(n) * kNR, dx.data(),
               /*accumulate=*/false);
}

void gemm_tn_panel_fast(const Tensor& x, const Tensor& dy, Tensor& dwp) {
  const int k = x.rows(), m = x.cols(), n = dy.cols();
  CHIMERA_CHECK(dy.rows() == k && dwp.rows() == panel_rows(m, n) &&
                dwp.cols() == kNR);
  gemm_panels(x.data(), 1, m, m, n, k, dy.data(), dwp.data(),
              /*accumulate=*/true, nullptr, nullptr, PanelOperand::kC);
}

void dot_rows_fast(const float* a, const float* b, std::size_t ldb, int k,
                   int n, float* out) {
  const Tables& t = tables();
  for (int j0 = 0; j0 < n; j0 += kNtGroup)
    t.dot[1][std::min(kNtGroup, n - j0)](a, 0, b + j0 * ldb, ldb, kNR, k,
                                         out + j0, 0, /*accumulate=*/false);
}

// ---------------------------------------------------------------------------
// Non-GEMM fast-tier entry points. The dispatcher in tensor/kernels.cc only
// routes here when cpu_supports_avx2_fma() is true (there is no portable
// mirror for these — the scalar reference *is* the fallback), so the x86
// bodies may assume AVX2. Pool sharding reuses the scalar tier's exact
// shape-only split points: pooled ≡ serial within the tier by construction.
// ---------------------------------------------------------------------------
#if CHIMERA_SIMD_X86

void add_bias_fast(Tensor& y, const Tensor& bias) {
  CHIMERA_CHECK(bias.cols() == y.cols() && bias.rows() == 1);
  const int C = y.cols();
  for_rows(y.rows(), static_cast<std::size_t>(C), [&](int r) {
    avx2::add_row(y.data() + static_cast<std::size_t>(r) * C, bias.data(),
                  static_cast<std::size_t>(C));
  });
}

void bias_backward_fast(const Tensor& dy, Tensor& dbias) {
  CHIMERA_CHECK(dbias.cols() == dy.cols() && dbias.rows() == 1);
  const int R = dy.rows(), C = dy.cols();
  for_shards(C, static_cast<std::size_t>(R), [&](int c0, int c1) {
    avx2::bias_bwd_shard(dy.data(), dbias.data(), R, C, c0, c1);
  });
}

void gelu_forward_fast(const Tensor& x, Tensor& y) {
  CHIMERA_CHECK(x.numel() == y.numel());
  // One gelu source at either width: every lane gets the same bits.
  const auto row = active_isa() == Isa::kAvx512 ? avx512::gelu_row<F16>
                                                : avx2::gelu_row<F8>;
  for_units(x.numel(), [&](std::size_t i, int len) {
    row(x.data() + i, y.data() + i, len);
  });
}

void gelu_backward_fast(const Tensor& x, const Tensor& dy, Tensor& dx) {
  CHIMERA_CHECK(x.numel() == dy.numel() && x.numel() == dx.numel());
  for_units(x.numel(), [&](std::size_t i, int len) {
    avx2::gelu_grad_row<F8>(x.data() + i, dy.data() + i, dx.data() + i,
                            len);
  });
}

void layernorm_forward_fast(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, Tensor& y, Tensor& mean,
                            Tensor& rstd) {
  const int R = x.rows(), H = x.cols();
  CHIMERA_CHECK(gamma.cols() == H && beta.cols() == H);
  CHIMERA_CHECK(y.rows() == R && mean.rows() == R && rstd.rows() == R);
  for_rows(R, static_cast<std::size_t>(H) * 4, [&](int r) {
    const std::size_t off = static_cast<std::size_t>(r) * H;
    avx2::layernorm_row(x.data() + off, gamma.data(), beta.data(),
                        y.data() + off, H, mean.data() + r, rstd.data() + r);
  });
}

void layernorm_backward_fast(const Tensor& x, const Tensor& gamma,
                             const Tensor& mean, const Tensor& rstd,
                             const Tensor& dy, Tensor& dx, Tensor& dgamma,
                             Tensor& dbeta) {
  const int R = x.rows(), H = x.cols();
  for_rows(R, static_cast<std::size_t>(H) * 6, [&](int r) {
    const std::size_t off = static_cast<std::size_t>(r) * H;
    avx2::layernorm_dx_row(x.data() + off, gamma.data(), dy.data() + off,
                           mean.at(r, 0), rstd.at(r, 0), dx.data() + off, H);
  });
  for_shards(H, static_cast<std::size_t>(R) * 3, [&](int c0, int c1) {
    avx2::lnbwd_param_shard(x.data(), dy.data(), mean.data(), rstd.data(),
                            dgamma.data(), dbeta.data(), R, H, c0, c1);
  });
}

void softmax_rows_fast(const Tensor& x, Tensor& y) {
  const int R = x.rows(), C = x.cols();
  CHIMERA_CHECK(y.rows() == R && y.cols() == C);
  for_rows(R, static_cast<std::size_t>(C) * 4, [&](int r) {
    const std::size_t off = static_cast<std::size_t>(r) * C;
    avx2::softmax_row(x.data() + off, y.data() + off, C);
  });
}

void cross_entropy_grad_fast(Tensor& probs, const std::vector<int>& targets,
                             float k, float* row_logp) {
  const int V = probs.cols();
  for_rows(probs.rows(), static_cast<std::size_t>(V) * 2, [&](int r) {
    const int t = targets[r];
    float* prow = probs.data() + static_cast<std::size_t>(r) * V;
    row_logp[r] = std::log(std::max(prow[t], 1e-20f));
    avx2::scale_row(prow, V, k);
    prow[t] -= k;
  });
}

void softmax_row_fast(const float* x, float* y, int n) {
  avx2::softmax_row(x, y, n);
}

void combine_rows_fast(const float* w, int n, const float* x, std::size_t ld,
                       int dk, float* out) {
  for (int c0 = 0; c0 < dk; c0 += 4 * 8) {
    const int width = std::min(4 * 8, dk - c0);
    avx2::kCombine[width % 8 != 0][(width + 7) / 8](w, n, x + c0, ld, width,
                                                    out + c0);
  }
}

void outer_rows_fast(const float* w, int n, const float* x, int dk, float* y,
                     std::size_t ld) {
  for (int c0 = 0; c0 < dk; c0 += 4 * 8) {
    const int width = std::min(4 * 8, dk - c0);
    avx2::kOuter[width % 8 != 0][(width + 7) / 8](w, n, x + c0, width, y + c0,
                                                  ld);
  }
}

void vector_add_fast(float* dst, const float* src, std::size_t n) {
  avx2::add_row(dst, src, n);
}

float max_abs_fast(const float* x, std::size_t n) {
  return avx2::max_abs(x, n);
}

void quantize_prep_fast(const float* x, std::size_t n, float scale,
                        float levels, float* a, float* floor_a) {
  avx2::quantize_prep(x, n, scale, levels, a, floor_a);
}

void dequant_add_int8_fast(const std::int8_t* q, std::size_t n, float unit,
                           float* out) {
  avx2::dequant_add_int8(q, n, unit, out);
}

#else  // !CHIMERA_SIMD_X86 — never dispatched to (see header comment).

void add_bias_fast(Tensor&, const Tensor&) { CHIMERA_CHECK(false); }
void bias_backward_fast(const Tensor&, Tensor&) { CHIMERA_CHECK(false); }
void gelu_forward_fast(const Tensor&, Tensor&) { CHIMERA_CHECK(false); }
void gelu_backward_fast(const Tensor&, const Tensor&, Tensor&) {
  CHIMERA_CHECK(false);
}
void layernorm_forward_fast(const Tensor&, const Tensor&, const Tensor&,
                            Tensor&, Tensor&, Tensor&) {
  CHIMERA_CHECK(false);
}
void layernorm_backward_fast(const Tensor&, const Tensor&, const Tensor&,
                             const Tensor&, const Tensor&, Tensor&, Tensor&,
                             Tensor&) {
  CHIMERA_CHECK(false);
}
void softmax_rows_fast(const Tensor&, Tensor&) { CHIMERA_CHECK(false); }
void cross_entropy_grad_fast(Tensor&, const std::vector<int>&, float, float*) {
  CHIMERA_CHECK(false);
}
void softmax_row_fast(const float*, float*, int) { CHIMERA_CHECK(false); }
void combine_rows_fast(const float*, int, const float*, std::size_t, int,
                       float*) {
  CHIMERA_CHECK(false);
}
void outer_rows_fast(const float*, int, const float*, int, float*,
                     std::size_t) {
  CHIMERA_CHECK(false);
}
void vector_add_fast(float*, const float*, std::size_t) {
  CHIMERA_CHECK(false);
}
float max_abs_fast(const float*, std::size_t) {
  CHIMERA_CHECK(false);
  return 0.0f;
}
void quantize_prep_fast(const float*, std::size_t, float, float, float*,
                        float*) {
  CHIMERA_CHECK(false);
}
void dequant_add_int8_fast(const std::int8_t*, std::size_t, float, float*) {
  CHIMERA_CHECK(false);
}

#endif  // CHIMERA_SIMD_X86

}  // namespace chimera::simd
