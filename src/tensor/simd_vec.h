// The fast tier's private vector-op layer, for tensor/kernels_simd.cc
// only: three lane types behind one op set, Vec<V>, so that each kernel is
// written once (tensor/kernels_simd_isa.inc) and compiled per ISA.
//  - Lanes<N>: the portable lane array, a generic gcc vector the compiler
//    lowers to whatever the baseline target has;
//  - F8: 8-lane ymm under the AVX2+FMA target;
//  - F16: 16-lane zmm under the AVX-512 target (F and VL).
// +, −, · and / are the vector extension's operators (a scalar operand is
// splat): the same vaddps/vsubps/vmulps/vdivps the _mm*_ps intrinsics emit.
// Vec<V> adds plain and tail-masked loads and stores, broadcast, min, max,
// the exp building blocks and madd, the one fused multiply-add: vfmadd on
// the x86 types and a per-lane std::fma on the portable lanes, so every
// lane type rounds c + a·b once and gives the same bits. The x86 ops are
// defined inside `#pragma GCC target` regions, so they inline into code
// compiled for that ISA or a wider one; like kernels_simd.cc, they rely on
// -ffp-contract=off, so a plain a·b + c stays two roundings.
#pragma once

#include <cmath>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CHIMERA_SIMD_X86 1
// gcc 12's AVX-512 intrinsics pass _mm512_undefined_ps() as the unused
// merge source of their unmasked forms, which -Wmaybe-uninitialized reports
// at the header line of every inlined call (gcc bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#define CHIMERA_SIMD_X86 0
#endif

namespace chimera::simd::vec {

template <class V>
struct Vec;

#if CHIMERA_SIMD_X86
/// __m256 and __m512 without the may_alias attribute, which gcc drops (and
/// warns about) in a template argument; the intrinsics take them as is.
typedef float F8 __attribute__((vector_size(32)));
typedef float F16 __attribute__((vector_size(64)));
#endif

/// N floats, wrapped so the type is distinct from F8. Only 4-byte aligned,
/// so passing one by value needs no over-aligned argument (gcc's -Wpsabi).
template <int N>
struct Lanes {
  typedef float Raw __attribute__((vector_size(4 * N), aligned(4)));
  Raw l;
  friend Lanes operator+(Lanes a, Lanes b) { return {a.l + b.l}; }
  friend Lanes operator*(Lanes a, Lanes b) { return {a.l * b.l}; }
};

template <int N>
struct Vec<Lanes<N>> {
  using V = Lanes<N>;
  static constexpr int kLanes = N;
  /// The fast tier runs the scalar reference's libm GELU on this path.
  static constexpr bool kPortable = true;
  using Mask = int;  ///< live lane count
  static Mask mask(int live) { return live; }
  static V broadcast(const float* p) { return {typename V::Raw{} + *p}; }
  static V load(const float* p) { return load(p, N); }
  static V load(const float* p, Mask live) {
    V v{};
    std::memcpy(&v.l, p, sizeof(float) * live);
    return v;
  }
  static void store(float* p, V v) { store(p, N, v); }
  static void store(float* p, Mask live, V v) {
    std::memcpy(p, &v.l, sizeof(float) * live);
  }
  /// c + a·b rounded once, lane by lane: the x86 types' vfmadd bits.
  static V madd(V a, V b, V c) {
    for (int t = 0; t < N; ++t) c.l[t] = std::fma(a.l[t], b.l[t], c.l[t]);
    return c;
  }
  /// The AVX2 hsum's tree over 8 lanes.
  static float hsum(V v) {
    const auto& p = v.l;
    return ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
  }
};

#if CHIMERA_SIMD_X86

#pragma GCC push_options
#pragma GCC target("avx2,fma")

/// -1 (all bits) marks a live lane; Vec<F8>::mask(w) keeps the first w.
alignas(32) constexpr int kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};

template <>
struct Vec<F8> {
  using V = F8;
  static constexpr int kLanes = 8;
  static constexpr bool kPortable = false;
  using Mask = __m256i;
  static Mask mask(int live) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kMaskTable + 8 - live));
  }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  /// Dead lanes read as 0 and never touch memory.
  static V load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm256_maskstore_ps(p, m, v); }
  static V madd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V min(V a, V b) { return _mm256_min_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V lt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  /// x with the lanes set in `m` (a compare result) zeroed.
  static V zero_where(V m, V x) { return _mm256_andnot_ps(m, x); }
  static V round(V x) {
    return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// y·2ⁿ for integral n through the exponent field (n ≥ −126).
  static V scale2n(V y, V n) {
    const __m256i e =
        _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
    return y * _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  }
  /// Fixed-tree horizontal sum: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
  static float hsum(V v) {
    __m128 s =
        _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    return _mm_cvtss_f32(s);
  }
};

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx2,fma")

template <>
struct Vec<F16> {
  using V = F16;
  static constexpr int kLanes = 16;
  static constexpr bool kPortable = false;
  using Mask = __mmask16;
  static Mask mask(int live) { return static_cast<Mask>((1u << live) - 1); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm512_mask_storeu_ps(p, m, v); }
  static V madd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V min(V a, V b) { return _mm512_min_ps(a, b); }
  static V max(V a, V b) { return _mm512_max_ps(a, b); }
  static Mask lt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  /// AVX-512F has no float andnot: a zero-masked move under the complement
  /// gives the same +0.0f lanes.
  static V zero_where(Mask m, V x) {
    return _mm512_maskz_mov_ps(static_cast<Mask>(~m), x);
  }
  static V round(V x) {
    return _mm512_roundscale_ps(x,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static V scale2n(V y, V n) {
    const __m512i e =
        _mm512_add_epi32(_mm512_cvtps_epi32(n), _mm512_set1_epi32(127));
    return y * _mm512_castsi512_ps(_mm512_slli_epi32(e, 23));
  }
};

#pragma GCC pop_options

#endif  // CHIMERA_SIMD_X86

}  // namespace chimera::simd::vec
