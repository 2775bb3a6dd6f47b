// The kernel-tier contract (DESIGN.md §2 item 18).
//
// gemm / gemm_tn must be BITWISE identical across tiers: every tier computes
// each output element as the serial ascending chain c = fma(a_l, b_l, c)
// over the contraction dimension, one rounding per term. gemm_nt's
// fast tier reduces dot products across vector lanes, so it is only
// tolerance-equal to the reference — but it follows one documented order
// (pinned bitwise by an in-test model below), and each element is a pure
// function of k and the data, so it must be bitwise stable in the row count
// (the decode step-vs-reforward contract) and in the shard split.
//
// The fused attention driver must be bitwise equal to the composed ops it
// replaced (gather → gemm_nt → scale → −1e9 mask → softmax_rows → gemm and
// the matching backward) within each tier; an in-test composed reference
// pins that, along with decode over paged key runs.
//
// The tests verify against a test-local serial replica of the scalar
// reference (same blocking, same accumulation orders), so they hold under
// either CHIMERA_KERNEL_TIER pin: pinned runs check the pinned tier against
// the replica; unpinned runs additionally flip tiers via the policy and
// compare the tiers directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"
#include "tensor/kernels_simd.h"

namespace chimera {
namespace {

enum class EnvPin { kNone, kScalar, kFast };

EnvPin env_pin() {
  const char* v = std::getenv("CHIMERA_KERNEL_TIER");
  if (v == nullptr || *v == '\0') return EnvPin::kNone;
  return std::strcmp(v, "scalar") == 0 ? EnvPin::kScalar : EnvPin::kFast;
}

/// Policies whose dispatch the current environment lets us observe: with a
/// pinned tier the policy is ignored, so one entry suffices; unpinned, both
/// explicit tiers are reachable.
std::vector<KernelPolicy> testable_policies() {
  if (env_pin() != EnvPin::kNone) return {kernel_policy()};
  return {KernelPolicy::kScalarReference, KernelPolicy::kFast};
}

/// RAII: tests restore the process policy they mutate.
struct PolicyGuard {
  KernelPolicy saved = kernel_policy();
  ~PolicyGuard() { set_kernel_policy(saved); }
};

Tensor random_tensor(int r, int c, Rng& rng, float scale = 1.0f) {
  Tensor t(r, c);
  t.randn(rng, scale);
  return t;
}

// Serial replicas of the scalar reference tier's per-element accumulation
// orders (kernels.cc): an ascending-l fma chain for gemm/gemm_tn, ascending
// kBlock partial dots of plain mul+add for gemm_nt (compiled for baseline
// x86-64, where no FMA contraction exists).
constexpr int kRefBlock = 48;

void ref_gemm(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l = 0; l < a.cols(); ++l)
        s = std::fma(a.at(i, l), b.at(l, j), s);
      c.at(i, j) = s;
    }
}

void ref_gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  for (int i = 0; i < a.cols(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l = 0; l < a.rows(); ++l)
        s = std::fma(a.at(l, i), b.at(l, j), s);
      c.at(i, j) = s;
    }
}

void ref_gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.rows(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l0 = 0; l0 < k; l0 += kRefBlock) {
        const int l1 = std::min(k, l0 + kRefBlock);
        float p = 0.0f;
        for (int l = l0; l < l1; ++l) p += a.at(i, l) * b.at(j, l);
        s += p;
      }
      c.at(i, j) = s;
    }
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.numel(), want.numel());
  for (std::size_t i = 0; i < got.numel(); ++i)
    ASSERT_EQ(got[i], want[i]) << "element " << i;
}

/// Shapes deliberately off the 6×16 and 12×16 tile grids and the 3×4 and
/// 6×4 dot block grids (plus exact multiples and degenerate edges), as {m,
/// k, n}. The fast gemm/gemm_tn tier reads B in place while one tile covers
/// every row (m ≤ 6 on AVX2 and the portable mirror, m ≤ 12 on AVX-512) and
/// packs it per panel above that, so m ∈ {1, 2, 4, 6, 7} and {8, 11, 12,
/// 13} cover both sides of each ISA's edge, and m ∈ {24, 25} a whole second
/// 12-row tile and two balanced ones; n ∈ {1, 8, 15, 17, 24} puts 1-, 8-,
/// 15-column tail panels behind zero or one full panel; k = 1 is the
/// shortest reduction. gemm_nt runs ⌈m/3⌉ (AVX2, portable) or ⌈m/6⌉
/// (AVX-512) balanced dot blocks over 4-column groups: {19, 40, 30} and
/// {64, 72, 23} mix two block heights in every ISA and end in a 2- or
/// 3-column group, with full 16-lane chunks and a lone 8-lane chunk; m =
/// 1, 2, 3, 4, 11 and 6 reach block heights 1 to 6 in turn.
const std::tuple<int, int, int> kShapes[] = {
    {1, 1, 1},    {3, 5, 7},    {6, 16, 32},  {13, 48, 33},
    {17, 31, 9},  {48, 64, 96}, {7, 129, 65}, {65, 7, 130},
    {1, 40, 17},  {2, 33, 8},   {4, 64, 15},  {6, 1, 24},
    {7, 20, 17},  {7, 1, 1},    {2, 300, 24}, {13, 1, 15},
    {8, 20, 17},  {11, 33, 16}, {12, 64, 40}, {24, 7, 33},
    {25, 48, 31}, {19, 40, 30}, {64, 72, 23}};

/// Every GEMM tile ISA this host can run, narrowest first: the portable
/// mirror always, then AVX2 and AVX-512 where the CPU has them. Suites loop
/// over these under a simd::ScopedIsaCap, so the narrower tiles stay tested
/// on hosts whose widest ISA would otherwise shadow them.
std::vector<simd::Isa> host_isas() {
  std::vector<simd::Isa> isas;
  for (simd::Isa isa :
       {simd::Isa::kPortable, simd::Isa::kAvx2, simd::Isa::kAvx512})
    if (isa <= simd::active_isa()) isas.push_back(isa);
  return isas;
}

TEST(KernelTier, DispatchRespectsEnvPinAndPolicy) {
  PolicyGuard guard;
  switch (env_pin()) {
    case EnvPin::kScalar:
      for (auto p : {KernelPolicy::kScalarReference, KernelPolicy::kFast,
                     KernelPolicy::kAuto}) {
        set_kernel_policy(p);
        EXPECT_EQ(active_kernel_tier(), KernelTier::kScalar);
      }
      break;
    case EnvPin::kFast:
      for (auto p : {KernelPolicy::kScalarReference, KernelPolicy::kFast,
                     KernelPolicy::kAuto}) {
        set_kernel_policy(p);
        EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
      }
      break;
    case EnvPin::kNone:
      set_kernel_policy(KernelPolicy::kScalarReference);
      EXPECT_EQ(active_kernel_tier(), KernelTier::kScalar);
      set_kernel_policy(KernelPolicy::kFast);
      EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
      // kAuto keys on the CPU: fast exactly on AVX2+FMA hosts.
      set_kernel_policy(KernelPolicy::kAuto);
      EXPECT_EQ(active_kernel_tier(), simd::cpu_supports_avx2_fma()
                                          ? KernelTier::kFast
                                          : KernelTier::kScalar);
      break;
  }
}

TEST(KernelTier, IsaCapNarrowsDispatchAndRestores) {
  const simd::Isa host = simd::active_isa();
  for (simd::Isa isa : host_isas()) {
    {
      simd::ScopedIsaCap cap(isa);
      EXPECT_EQ(simd::active_isa(), isa);
      EXPECT_EQ(simd::cpu_supports_avx2_fma(), isa >= simd::Isa::kAvx2);
    }
    EXPECT_EQ(simd::active_isa(), host);
  }
}

TEST(KernelTier, GemmBitwiseMatchesReferenceInEveryTier) {
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    Rng rng(21);
    for (auto [m, k, n] : kShapes) {
      const Tensor a = random_tensor(m, k, rng);
      const Tensor b = random_tensor(k, n, rng);
      for (bool accumulate : {false, true}) {
        Tensor want = random_tensor(m, n, rng, 0.5f);
        Tensor seed = want;  // same starting contents for every tier
        ref_gemm(a, b, want, accumulate);
        for (KernelPolicy p : testable_policies()) {
          SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                       std::to_string(n) + (accumulate ? " acc" : "") +
                       " policy=" + std::to_string(static_cast<int>(p)));
          set_kernel_policy(p);
          Tensor c = seed;
          gemm(a, b, c, accumulate);
          expect_bitwise(c, want);
        }
      }
    }
  }
}

TEST(KernelTier, GemmTnBitwiseMatchesReferenceInEveryTier) {
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    Rng rng(22);
    for (auto [m, k, n] : kShapes) {
      const Tensor a = random_tensor(k, m, rng);  // stores Aᵀ
      const Tensor b = random_tensor(k, n, rng);
      for (bool accumulate : {false, true}) {
        Tensor want = random_tensor(m, n, rng, 0.5f);
        Tensor seed = want;
        ref_gemm_tn(a, b, want, accumulate);
        for (KernelPolicy p : testable_policies()) {
          SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                       std::to_string(n) + (accumulate ? " acc" : ""));
          set_kernel_policy(p);
          Tensor c = seed;
          gemm_tn(a, b, c, accumulate);
          expect_bitwise(c, want);
        }
      }
    }
  }
}

TEST(KernelTier, FusedProductsBitwiseInEveryTier) {
  // Every gemm-family element is the chain c = fma(a_l, b_l, c), one
  // rounding per term, in every tier and ISA. a = b = 1 + 2⁻¹² with
  // c = −(1 + 2⁻¹¹) tells the rules apart: a·b = 1 + 2⁻¹¹ + 2⁻²⁴ exactly,
  // so fma(a, b, c) = 2⁻²⁴, while the rounded product ties to the even
  // 1 + 2⁻¹¹ and c + fl(a·b) = 0. With k = 2 the chain's first term puts c
  // in the accumulator (c·1) and the second adds a·a; with accumulate, C
  // starts at c. Rows 3 and 13 take the in-place and the packed tiles of
  // every ISA, 17 and 40 columns a tail panel behind a full one.
  const float a = 1.0f + 0x1p-12f, c = -(1.0f + 0x1p-11f), want = 0x1p-24f;
  volatile float product = a * a;  // rounded alone: no target contracts it
  ASSERT_EQ(c + product, 0.0f);     // the unfused rule, for contrast
  auto expect_all = [&](const Tensor& t, const char* what) {
    for (std::size_t i = 0; i < t.numel(); ++i)
      ASSERT_EQ(t[i], want) << what << " element " << i;
  };
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    for (KernelPolicy p : testable_policies()) {
      set_kernel_policy(p);
      SCOPED_TRACE(std::string(kernel_tier_name(active_kernel_tier())) +
                   " tier, isa=" + simd::isa_name(isa));
      for (auto [m, n] : {std::pair{3, 17}, std::pair{13, 40}}) {
        Tensor x(m, 2), xt(2, m), w(2, n), y(m, n);
        for (int i = 0; i < m; ++i) {
          x.at(i, 0) = xt.at(0, i) = c;
          x.at(i, 1) = xt.at(1, i) = a;
        }
        for (int j = 0; j < n; ++j) {
          w.at(0, j) = 1.0f;
          w.at(1, j) = a;
        }
        gemm(x, w, y);
        expect_all(y, "gemm");
        gemm_tn(xt, w, y);
        expect_all(y, "gemm_tn");
        Tensor wp;
        pack_panels(w, wp);
        gemm_bias_panel(x, wp, Tensor(1, n), y);
        expect_all(y, "gemm_bias_panel");
        Tensor dwp, dw(m, n);
        pack_panels(Tensor(m, n), dwp);
        gemm_tn_panel(xt, w, dwp);
        for (int i = 0; i < m; ++i)
          for (int j = 0; j < n; ++j) dw.at(i, j) = dwp[panel_offset(m, i, j)];
        expect_all(dw, "gemm_tn_panel");
        Tensor xa(m, 1), wa(1, n);
        xa.fill(a);
        wa.fill(a);
        y.fill(c);
        gemm(xa, wa, y, /*accumulate=*/true);
        expect_all(y, "gemm acc");
        y.fill(c);
        gemm_tn(Tensor(xa.data(), m), wa, y, /*accumulate=*/true);
        expect_all(y, "gemm_tn acc");
      }
      // An attention row: one key gives p = 1 and the context v under
      // either rule, so the query (all zeros) attends over three keys of
      // equal score, p = fl(1/3) in every tier. Its context is the chain
      // fma(p, v₂, fma(p, v₁, fma(p, v₀, 0))); the data must tell it from
      // the mul+add chain, and dk = 20 leaves a masked tail vector.
      const int dk = 20;
      const std::size_t ld = 3 * dk;
      Rng rng(61);
      Tensor kv = random_tensor(3, 3 * dk, rng), q(1, 3 * dk), merged;
      const float pr = 1.0f / 3.0f;
      Tensor fused(1, dk), unfused(1, dk);
      for (int col = 0; col < dk; ++col)
        for (int j = 0; j < 3; ++j) {
          const float v = kv.at(j, 2 * dk + col);
          fused.at(0, col) = std::fma(pr, v, fused.at(0, col));
          volatile float pv = pr * v;
          unfused.at(0, col) = unfused.at(0, col) + pv;
        }
      ASSERT_NE(std::memcmp(fused.data(), unfused.data(), dk * sizeof(float)),
                0);
      attention_decode(q, /*heads=*/1,
                       {KvRun{kv.data() + dk, kv.data() + 2 * dk, 3}}, {0, 1},
                       ld, merged);
      expect_bitwise(merged, fused);
    }
  }
}

TEST(KernelTier, GemmNtToleranceAgainstReference) {
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    Rng rng(23);
    for (auto [m, k, n] : kShapes) {
      const Tensor a = random_tensor(m, k, rng);
      const Tensor b = random_tensor(n, k, rng);  // stores Bᵀ
      for (bool accumulate : {false, true}) {
        Tensor want = random_tensor(m, n, rng, 0.5f);
        Tensor seed = want;
        ref_gemm_nt(a, b, want, accumulate);
        for (KernelPolicy p : testable_policies()) {
          SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                       std::to_string(n) + (accumulate ? " acc" : ""));
          set_kernel_policy(p);
          Tensor c = seed;
          gemm_nt(a, b, c, accumulate);
          if (active_kernel_tier() == KernelTier::kScalar) {
            expect_bitwise(c, want);  // the reference tier has one exact order
          } else {
            for (std::size_t i = 0; i < c.numel(); ++i)
              ASSERT_NEAR(c[i], want[i], 1e-5f * k) << "element " << i;
          }
        }
      }
    }
  }
}

/// The fast tier's documented gemm_nt order for one output element: eight
/// strided lane partials over the k/8·8 prefix (lane t takes l ≡ t mod 8;
/// fused multiply-add in every ISA, the portable lanes included), the fixed
/// ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)) combine tree, a serial mul+add
/// tail, and finally C + sum.
float model_gemm_nt_element(const float* a, const float* b, int k, float c) {
  float lane[8] = {};
  int l = 0;
  for (; l + 8 <= k; l += 8)
    for (int t = 0; t < 8; ++t)
      lane[t] = std::fmaf(a[l + t], b[l + t], lane[t]);
  float sum = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
              ((lane[1] + lane[5]) + (lane[3] + lane[7]));
  for (; l < k; ++l) sum += a[l] * b[l];
  return c + sum;
}

TEST(KernelTier, GemmNtFastTierBitwiseMatchesOrderModel) {
  // Tolerance alone would let a reordering of the fast tier's reduction
  // pass silently; this pins the order itself — for the dot blocks of
  // every ISA the host has.
  PolicyGuard guard;
  bool checked = false;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    Rng rng(37);
    for (auto [m, k, n] : kShapes) {
      const Tensor a = random_tensor(m, k, rng);
      const Tensor b = random_tensor(n, k, rng);  // stores Bᵀ
      for (bool accumulate : {false, true}) {
        const Tensor seed = random_tensor(m, n, rng, 0.5f);
        Tensor want(m, n);
        for (int i = 0; i < m; ++i)
          for (int j = 0; j < n; ++j)
            want.at(i, j) = model_gemm_nt_element(
                a.data() + static_cast<std::size_t>(i) * k,
                b.data() + static_cast<std::size_t>(j) * k, k,
                accumulate ? seed.at(i, j) : 0.0f);
        for (KernelPolicy p : testable_policies()) {
          set_kernel_policy(p);
          if (active_kernel_tier() != KernelTier::kFast) continue;
          SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                       std::to_string(n) + (accumulate ? " acc" : ""));
          Tensor c = seed;
          gemm_nt(a, b, c, accumulate);
          expect_bitwise(c, want);
          checked = true;
        }
      }
    }
  }
  if (!checked) GTEST_SKIP() << "fast tier not reachable under this pin";
}

TEST(KernelTier, GemmNtRowsAreBitwiseStableInRowCount) {
  // The decode contract: a [1, k] query row must produce bitwise the same
  // scores whether computed alone (decode_step) or as one row of the full
  // [m, k] forward — in every tier, the per-element result depends only on
  // k and the data, never on m, the dot block height or the shard split.
  // m = 37 runs blocks of 5 and 6 rows (AVX-512) or 2 and 3 (AVX2,
  // portable); the lone rows run 1-row blocks.
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    Rng rng(24);
    const int m = 37, k = 48, n = 29;
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(n, k, rng);
    for (KernelPolicy p : testable_policies()) {
      set_kernel_policy(p);
      Tensor full(m, n);
      gemm_nt(a, b, full, /*accumulate=*/false);
      for (int i : {0, 5, 36}) {
        Tensor arow(1, k);
        for (int l = 0; l < k; ++l) arow.at(0, l) = a.at(i, l);
        Tensor crow(1, n);
        gemm_nt(arow, b, crow, /*accumulate=*/false);
        for (int j = 0; j < n; ++j)
          ASSERT_EQ(crow.at(0, j), full.at(i, j))
              << "row " << i << " col " << j;
      }
    }
  }
}

TEST(KernelTier, FusedBiasGeluBitwiseMatchesUnfused) {
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    Rng rng(25);
    for (auto [m, k, n] : kShapes) {
      const Tensor x = random_tensor(m, k, rng);
      const Tensor w = random_tensor(k, n, rng);
      const Tensor bias = random_tensor(1, n, rng, 0.5f);
      for (KernelPolicy p : testable_policies()) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        set_kernel_policy(p);
        Tensor want_y(m, n);
        gemm(x, w, want_y);
        add_bias(want_y, bias);
        Tensor want_g(m, n);
        gelu_forward(want_y, want_g);

        Tensor wp;
        pack_panels(w, wp);
        Tensor y1(m, n);
        gemm_bias_panel(x, wp, bias, y1);
        expect_bitwise(y1, want_y);

        Tensor y2(m, n), g2(m, n);
        gemm_bias_gelu_panel(x, wp, bias, y2, g2);
        expect_bitwise(y2, want_y);
        expect_bitwise(g2, want_g);
      }
    }
  }
}

TEST(KernelTier, PanelGemmsBitwiseMatchRowMajorInEveryTier) {
  // Linear's three GEMMs over its panel-layout weight are bitwise the
  // row-major kernels in each tier, pooled or serial: the forward (with
  // bias, and with bias+GELU) against gemm + add_bias (+ gelu_forward),
  // dX = dY·Wᵀ against gemm_nt, and dW += Xᵀ·dY against gemm_tn, packed. m
  // spans the in-place (≤ 6, or ≤ 12 on AVX-512) and multi-tile row counts;
  // k = 13, 20, 33
  // leave a serial dot tail; n = 5 and 9 are a lone tail panel, 37 and 130
  // put a tail behind full panels.
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    const std::pair<int, int> kn[] = {{13, 5}, {20, 37}, {48, 64}, {8, 9},
                                      {33, 130}};
    Rng rng(26);
    for (KernelPolicy p : testable_policies()) {
      set_kernel_policy(p);
      for (int helpers : {0, 3}) {
        ComputePool::instance().set_helpers(helpers);
        for (int m : {1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 16, 25, 64})
          for (auto [k, n] : kn) {
            SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                         std::to_string(n) + " helpers=" +
                         std::to_string(helpers) + " policy=" +
                         std::to_string(static_cast<int>(p)));
            const Tensor x = random_tensor(m, k, rng);
            const Tensor w = random_tensor(k, n, rng);
            const Tensor bias = random_tensor(1, n, rng, 0.5f);
            const Tensor dy = random_tensor(m, n, rng);
            Tensor wp;
            pack_panels(w, wp);

            Tensor want_y(m, n), want_g(m, n), y(m, n), g(m, n);
            gemm(x, w, want_y);
            add_bias(want_y, bias);
            gelu_forward(want_y, want_g);
            gemm_bias_panel(x, wp, bias, y);
            expect_bitwise(y, want_y);
            y.fill(std::nanf(""));
            gemm_bias_gelu_panel(x, wp, bias, y, g);
            expect_bitwise(y, want_y);
            expect_bitwise(g, want_g);

            Tensor want_dx(m, k), dx(m, k);
            gemm_nt(dy, w, want_dx);
            dx.fill(std::nanf(""));  // overwritten in full, never read
            gemm_nt_panel(dy, wp, dx);
            expect_bitwise(dx, want_dx);

            Tensor want_dw = random_tensor(k, n, rng, 0.5f);
            Tensor dwp, want_dwp;
            pack_panels(want_dw, dwp);
            gemm_tn(x, dy, want_dw, /*accumulate=*/true);
            gemm_tn_panel(x, dy, dwp);
            pack_panels(want_dw, want_dwp);  // padded lanes stay 0 in both
            expect_bitwise(dwp, want_dwp);
          }
      }
    }
    ComputePool::instance().set_helpers(0);
  }
}

// ---- Non-GEMM ops (serial replicas of the scalar reference tier) ---------

void ref_add_bias(Tensor& y, const Tensor& bias) {
  for (int r = 0; r < y.rows(); ++r)
    for (int c = 0; c < y.cols(); ++c) y.at(r, c) += bias.at(0, c);
}

void ref_bias_backward(const Tensor& dy, Tensor& dbias) {
  for (int r = 0; r < dy.rows(); ++r)
    for (int c = 0; c < dy.cols(); ++c) dbias.at(0, c) += dy.at(r, c);
}

void ref_layernorm_forward(const Tensor& x, const Tensor& gamma,
                           const Tensor& beta, Tensor& y, Tensor& mean,
                           Tensor& rstd) {
  const int R = x.rows(), H = x.cols();
  for (int r = 0; r < R; ++r) {
    float mu = 0.0f;
    for (int c = 0; c < H; ++c) mu += x.at(r, c);
    mu /= H;
    float var = 0.0f;
    for (int c = 0; c < H; ++c) {
      const float d = x.at(r, c) - mu;
      var += d * d;
    }
    var /= H;
    const float rs = 1.0f / std::sqrt(var + 1e-5f);
    mean.at(r, 0) = mu;
    rstd.at(r, 0) = rs;
    for (int c = 0; c < H; ++c)
      y.at(r, c) = (x.at(r, c) - mu) * rs * gamma.at(0, c) + beta.at(0, c);
  }
}

void ref_layernorm_backward(const Tensor& x, const Tensor& gamma,
                            const Tensor& mean, const Tensor& rstd,
                            const Tensor& dy, Tensor& dx, Tensor& dgamma,
                            Tensor& dbeta) {
  const int R = x.rows(), H = x.cols();
  for (int r = 0; r < R; ++r) {
    const float mu = mean.at(r, 0);
    const float rs = rstd.at(r, 0);
    float sum_dyg = 0.0f, sum_dyg_xhat = 0.0f;
    for (int c = 0; c < H; ++c) {
      const float xhat = (x.at(r, c) - mu) * rs;
      const float dyg = dy.at(r, c) * gamma.at(0, c);
      sum_dyg += dyg;
      sum_dyg_xhat += dyg * xhat;
    }
    for (int c = 0; c < H; ++c) {
      const float xhat = (x.at(r, c) - mu) * rs;
      const float dyg = dy.at(r, c) * gamma.at(0, c);
      dx.at(r, c) = rs * (dyg - sum_dyg / H - xhat * sum_dyg_xhat / H);
    }
  }
  for (int r = 0; r < R; ++r) {
    const float mu = mean.at(r, 0);
    const float rs = rstd.at(r, 0);
    for (int c = 0; c < H; ++c) {
      const float xhat = (x.at(r, c) - mu) * rs;
      dgamma.at(0, c) += dy.at(r, c) * xhat;
      dbeta.at(0, c) += dy.at(r, c);
    }
  }
}

void ref_softmax(const Tensor& x, Tensor& y) {
  const int R = x.rows(), C = x.cols();
  for (int r = 0; r < R; ++r) {
    float mx = x.at(r, 0);
    for (int c = 1; c < C; ++c) mx = std::max(mx, x.at(r, c));
    float sum = 0.0f;
    for (int c = 0; c < C; ++c) {
      const float e = std::exp(x.at(r, c) - mx);
      y.at(r, c) = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (int c = 0; c < C; ++c) y.at(r, c) *= inv;
  }
}

float ref_cross_entropy(const Tensor& logits, const std::vector<int>& targets,
                        Tensor& dlogits, float loss_scale) {
  const int R = logits.rows(), V = logits.cols();
  const float k = loss_scale / R;
  ref_softmax(logits, dlogits);
  float loss = 0.0f;
  for (int r = 0; r < R; ++r) {
    const int t = targets[r];
    loss -= std::log(std::max(dlogits.at(r, t), 1e-20f));
    for (int c = 0; c < V; ++c) dlogits.at(r, c) *= k;
    dlogits.at(r, t) -= k;
  }
  return loss / R;
}

TEST(KernelTier, BiasOpsBitwiseMatchReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(27);
  for (auto [r, c] : {std::pair{1, 1}, {3, 5}, {17, 31}, {64, 768}}) {
    const Tensor y0 = random_tensor(r, c, rng);
    const Tensor bias = random_tensor(1, c, rng);
    const Tensor dy = random_tensor(r, c, rng);
    const Tensor db0 = random_tensor(1, c, rng, 0.5f);
    Tensor want_y = y0;
    ref_add_bias(want_y, bias);
    Tensor want_db = db0;
    ref_bias_backward(dy, want_db);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      set_kernel_policy(p);
      Tensor y = y0;
      add_bias(y, bias);
      expect_bitwise(y, want_y);
      Tensor db = db0;
      bias_backward(dy, db);
      expect_bitwise(db, want_db);
    }
  }
}

TEST(KernelTier, GeluToleranceAgainstReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(28);
  const Tensor x = random_tensor(13, 37, rng, 2.0f);
  const Tensor dy = random_tensor(13, 37, rng);
  Tensor want_y(13, 37), want_dx(13, 37);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    want_y[i] = detail::gelu_eval(x[i]);
    want_dx[i] = dy[i] * detail::gelu_grad_eval(x[i]);
  }
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor y(13, 37), dx(13, 37);
    gelu_forward(x, y);
    gelu_backward(x, dy, dx);
    if (active_kernel_tier() == KernelTier::kScalar) {
      expect_bitwise(y, want_y);
      expect_bitwise(dx, want_dx);
    } else {
      for (std::size_t i = 0; i < x.numel(); ++i) {
        ASSERT_NEAR(y[i], want_y[i], 1e-5f) << "element " << i;
        ASSERT_NEAR(dx[i], want_dx[i], 1e-5f) << "element " << i;
      }
    }
  }
}

TEST(KernelTier, GeluIsBitwisePositionStableInEveryTier) {
  // Each output must depend only on its own input element — never on the
  // element's position, the tensor shape, or the shard split (within a
  // tier). Decode-path single rows then match training-path full batches.
  PolicyGuard guard;
  Rng rng(29);
  const int m = 9, n = 53;
  const Tensor x = random_tensor(m, n, rng, 2.0f);
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor full(m, n);
    gelu_forward(x, full);
    for (int r : {0, 4, 8}) {
      Tensor xrow(1, n), yrow(1, n);
      for (int c = 0; c < n; ++c) xrow.at(0, c) = x.at(r, c);
      gelu_forward(xrow, yrow);
      for (int c = 0; c < n; ++c)
        ASSERT_EQ(yrow.at(0, c), full.at(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(KernelTier, LayerNormForwardToleranceInEveryTier) {
  PolicyGuard guard;
  Rng rng(30);
  for (int h : {1, 7, 64, 192}) {
    const Tensor x = random_tensor(11, h, rng);
    const Tensor gamma = random_tensor(1, h, rng);
    const Tensor beta = random_tensor(1, h, rng);
    Tensor want_y(11, h), want_mu(11, 1), want_rs(11, 1);
    ref_layernorm_forward(x, gamma, beta, want_y, want_mu, want_rs);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("h=" + std::to_string(h));
      set_kernel_policy(p);
      Tensor y(11, h), mu(11, 1), rs(11, 1);
      layernorm_forward(x, gamma, beta, y, mu, rs);
      if (active_kernel_tier() == KernelTier::kScalar) {
        expect_bitwise(y, want_y);
        expect_bitwise(mu, want_mu);
        expect_bitwise(rs, want_rs);
      } else {
        for (std::size_t i = 0; i < y.numel(); ++i)
          ASSERT_NEAR(y[i], want_y[i], 1e-4f) << "element " << i;
      }
    }
  }
}

TEST(KernelTier, LayerNormBackwardParamGradsBitwiseInEveryTier) {
  // Given the same (mean, rstd), dgamma/dbeta accumulate rows in ascending
  // order in both tiers — bitwise; dx reduces per-row dots across lanes in
  // the fast tier — tolerance.
  PolicyGuard guard;
  Rng rng(31);
  const int R = 19, H = 96;
  const Tensor x = random_tensor(R, H, rng);
  const Tensor gamma = random_tensor(1, H, rng);
  const Tensor beta = random_tensor(1, H, rng);
  const Tensor dy = random_tensor(R, H, rng);
  Tensor y(R, H), mu(R, 1), rs(R, 1);
  ref_layernorm_forward(x, gamma, beta, y, mu, rs);
  Tensor want_dx(R, H), want_dg(1, H), want_db(1, H);
  ref_layernorm_backward(x, gamma, mu, rs, dy, want_dx, want_dg, want_db);
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor dx(R, H), dg(1, H), db(1, H);
    layernorm_backward(x, gamma, mu, rs, dy, dx, dg, db);
    expect_bitwise(dg, want_dg);
    expect_bitwise(db, want_db);
    if (active_kernel_tier() == KernelTier::kScalar) {
      expect_bitwise(dx, want_dx);
    } else {
      for (std::size_t i = 0; i < dx.numel(); ++i)
        ASSERT_NEAR(dx[i], want_dx[i], 1e-4f) << "element " << i;
    }
  }
}

TEST(KernelTier, SoftmaxToleranceAgainstReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(32);
  for (int c : {1, 5, 8, 64, 131}) {
    const Tensor x = random_tensor(9, c, rng, 3.0f);
    Tensor want(9, c);
    ref_softmax(x, want);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("c=" + std::to_string(c));
      set_kernel_policy(p);
      Tensor y(9, c);
      softmax_rows(x, y);
      if (active_kernel_tier() == KernelTier::kScalar) {
        expect_bitwise(y, want);
      } else {
        for (std::size_t i = 0; i < y.numel(); ++i)
          ASSERT_NEAR(y[i], want[i], 1e-6f) << "element " << i;
      }
    }
  }
}

TEST(KernelTier, SoftmaxMaskedPaddingIsZeroExtensionStableInEveryTier) {
  // The decode contract: extending a row with masked (−1e9) columns must
  // yield bitwise the same live prefix as the unextended row, and exact
  // 0.0f probabilities on the padding — in every tier (the fast tier's
  // vector exp flushes to exact zero and its lane sum zero-extends).
  PolicyGuard guard;
  Rng rng(33);
  for (int live : {3, 8, 21}) {
    const int padded = live + 13;
    Tensor x(5, live), xp(5, padded);
    x.randn(rng, 2.0f);
    for (int r = 0; r < 5; ++r)
      for (int c = 0; c < padded; ++c)
        xp.at(r, c) = c < live ? x.at(r, c) : -1e9f;
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("live=" + std::to_string(live));
      set_kernel_policy(p);
      Tensor y(5, live), yp(5, padded);
      softmax_rows(x, y);
      softmax_rows(xp, yp);
      for (int r = 0; r < 5; ++r) {
        for (int c = 0; c < live; ++c)
          ASSERT_EQ(yp.at(r, c), y.at(r, c)) << "row " << r << " col " << c;
        for (int c = live; c < padded; ++c)
          ASSERT_EQ(yp.at(r, c), 0.0f) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(KernelTier, ExpClampEdgesInEveryTier) {
  // The fast tier's vector exp (AVX2 hosts) flushes arguments below
  // −87.33654475 (its kExpLo, where exp turns subnormal) to exact 0.0f —
  // zeroing the lane's argument first so the discarded evaluation stays off
  // the slow subnormal path — and evaluates every argument from the clamp
  // up. Softmax row r is {0, x_r × 8}: the row max is 0, so each x_r
  // reaches the exp unchanged, seven times in a full vector and once in the
  // masked tail. GELU saturates: from v ≈ −10 on, the exp argument 2u is
  // flushed, tanh is exactly −1 and gelu(v) is −0.0f, as libm's tanh gives
  // in the reference. Where the scalar reference runs (the scalar tier, or
  // the fast tier without AVX2), both match it bitwise.
  PolicyGuard guard;
  constexpr float kExpLo = -87.33654475f;
  const float xs[] = {kExpLo, std::nextafter(kExpLo, -1e30f),
                      std::nextafter(kExpLo, 0.0f), -88.0f, -1e9f, -87.0f,
                      -80.0f};
  const int R = static_cast<int>(std::size(xs)), C = 9;
  Tensor x(R, C);
  for (int r = 0; r < R; ++r)
    for (int c = 0; c < C; ++c) x.at(r, c) = c == 0 ? 0.0f : xs[r];
  Tensor want(R, C);
  ref_softmax(x, want);
  const float vs[] = {-9.5f, -10.5f, -12.0f, -88.0f, -1e9f, -3.0f, 0.0f};
  Tensor v(1, static_cast<int>(std::size(vs)));
  for (std::size_t i = 0; i < std::size(vs); ++i) v[i] = vs[i];
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    for (KernelPolicy p : testable_policies()) {
      set_kernel_policy(p);
      const bool vector_exp = active_kernel_tier() == KernelTier::kFast &&
                              simd::cpu_supports_avx2_fma();
      Tensor y(R, C);
      softmax_rows(x, y);
      for (int r = 0; r < R; ++r) {
        SCOPED_TRACE("x=" + std::to_string(xs[r]));
        if (!vector_exp) {
          for (int c = 0; c < C; ++c) ASSERT_EQ(y.at(r, c), want.at(r, c));
          continue;
        }
        ASSERT_EQ(y.at(r, 0), 1.0f);
        for (int c = 1; c < C; ++c) {
          if (xs[r] < kExpLo) {
            ASSERT_EQ(y.at(r, c), 0.0f) << "col " << c;
            ASSERT_FALSE(std::signbit(y.at(r, c))) << "col " << c;
          } else {
            ASSERT_NEAR(y.at(r, c), std::exp(xs[r]),
                        1e-5f * std::exp(xs[r]))
                << "col " << c;
          }
        }
      }
      Tensor g(v.rows(), v.cols());
      gelu_forward(v, g);
      for (std::size_t i = 0; i < std::size(vs); ++i) {
        SCOPED_TRACE("v=" + std::to_string(vs[i]));
        const float ref = detail::gelu_eval(vs[i]);
        if (!vector_exp) {
          ASSERT_EQ(g[i], ref);
        } else if (vs[i] <= -9.5f) {
          ASSERT_EQ(g[i], 0.0f);
          ASSERT_EQ(std::signbit(g[i]), std::signbit(ref));
        } else {
          ASSERT_NEAR(g[i], ref, 1e-5f);
        }
      }
    }
  }
}

TEST(KernelTier, CrossEntropyToleranceAgainstReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(34);
  const int R = 12, V = 97;
  const Tensor logits = random_tensor(R, V, rng, 2.0f);
  std::vector<int> targets(R);
  for (int r = 0; r < R; ++r)
    targets[r] = static_cast<int>(rng.next_below(V));
  Tensor want_d(R, V);
  const float want_loss = ref_cross_entropy(logits, targets, want_d, 0.7f);
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor d(R, V);
    const float loss = cross_entropy(logits, targets, d, 0.7f);
    if (active_kernel_tier() == KernelTier::kScalar) {
      EXPECT_EQ(loss, want_loss);
      expect_bitwise(d, want_d);
    } else {
      EXPECT_NEAR(loss, want_loss, 1e-5f);
      for (std::size_t i = 0; i < d.numel(); ++i)
        ASSERT_NEAR(d[i], want_d[i], 1e-6f) << "element " << i;
    }
  }
}

TEST(KernelTier, CommOpsBitwiseMatchReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(35);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{1003}}) {
    const Tensor src = random_tensor(1, static_cast<int>(n), rng);
    const Tensor dst0 = random_tensor(1, static_cast<int>(n), rng);
    Tensor want_add = dst0;
    for (std::size_t i = 0; i < n; ++i) want_add[i] += src[i];
    float want_max = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
      want_max = std::max(want_max, std::abs(src[i]));
    const float scale = want_max > 0.0f ? want_max : 1.0f;
    std::vector<float> want_a(n), want_fa(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_a[i] = std::abs(src[i]) / scale * 7.0f;
      want_fa[i] = std::floor(want_a[i]);
    }
    std::vector<std::int8_t> q(n);
    for (std::size_t i = 0; i < n; ++i)
      q[i] = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    Tensor want_dq = dst0;
    for (std::size_t i = 0; i < n; ++i)
      want_dq[i] += 0.125f * static_cast<float>(q[i]);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("n=" + std::to_string(n));
      set_kernel_policy(p);
      Tensor d = dst0;
      vector_add(d.data(), src.data(), n);
      expect_bitwise(d, want_add);
      EXPECT_EQ(max_abs(src.data(), n), want_max);
      std::vector<float> a(n), fa(n);
      quantize_prep(src.data(), n, scale, 7.0f, a.data(), fa.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i], want_a[i]) << "element " << i;
        ASSERT_EQ(fa[i], want_fa[i]) << "element " << i;
      }
      Tensor dq = dst0;
      dequant_add_int8(q.data(), n, 0.125f, dq.data());
      expect_bitwise(dq, want_dq);
    }
  }
}

TEST(KernelTier, PooledNonGemmOpsBitwiseMatchSerialInEveryTier) {
  // helpers=0 vs helpers=4 for every vectorized non-GEMM op, per tier.
  // Shapes large enough that plan_shards genuinely splits.
  PolicyGuard guard;
  Rng rng(36);
  const int R = 64, H = 192, V = 768;
  const Tensor xv = random_tensor(R, V, rng);
  const Tensor dyv = random_tensor(R, V, rng);
  const Tensor bias = random_tensor(1, V, rng);
  const Tensor xh = random_tensor(R, H, rng);
  const Tensor gamma = random_tensor(1, H, rng);
  const Tensor beta = random_tensor(1, H, rng);
  const Tensor dyh = random_tensor(R, H, rng);
  std::vector<int> targets(R);
  for (int r = 0; r < R; ++r)
    targets[r] = static_cast<int>(rng.next_below(V));
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    struct Out {
      Tensor y{64, 768}, db{1, 768}, g{64, 768}, dg{64, 768};
      Tensor ln{64, 192}, mu{64, 1}, rs{64, 1};
      Tensor dx{64, 192}, dgamma{1, 192}, dbeta{1, 192};
      Tensor sm{64, 768}, ce{64, 768};
      float loss = 0.0f;
    };
    Out outs[2];
    for (int h : {0, 1}) {
      ComputePool::instance().set_helpers(h == 0 ? 0 : 4);
      Out& o = outs[h];
      o.y = xv;
      add_bias(o.y, bias);
      bias_backward(dyv, o.db);
      gelu_forward(xv, o.g);
      gelu_backward(xv, dyv, o.dg);
      layernorm_forward(xh, gamma, beta, o.ln, o.mu, o.rs);
      layernorm_backward(xh, gamma, o.mu, o.rs, dyh, o.dx, o.dgamma, o.dbeta);
      softmax_rows(xv, o.sm);
      o.loss = cross_entropy(xv, targets, o.ce);
    }
    ComputePool::instance().set_helpers(0);
    expect_bitwise(outs[1].y, outs[0].y);
    expect_bitwise(outs[1].db, outs[0].db);
    expect_bitwise(outs[1].g, outs[0].g);
    expect_bitwise(outs[1].dg, outs[0].dg);
    expect_bitwise(outs[1].ln, outs[0].ln);
    expect_bitwise(outs[1].mu, outs[0].mu);
    expect_bitwise(outs[1].rs, outs[0].rs);
    expect_bitwise(outs[1].dx, outs[0].dx);
    expect_bitwise(outs[1].dgamma, outs[0].dgamma);
    expect_bitwise(outs[1].dbeta, outs[0].dbeta);
    expect_bitwise(outs[1].sm, outs[0].sm);
    expect_bitwise(outs[1].ce, outs[0].ce);
    EXPECT_EQ(outs[1].loss, outs[0].loss);
  }
}

TEST(KernelTier, PooledShardsBitwiseMatchSerialInEveryTier) {
  // Shard-split independence of the fast tier: gemm/gemm_tn shard over
  // 16-column panels, and each shard packs its panels into the running
  // thread's own buffer (m above the tile's rows) or reads B in place (m
  // within them); gemm_nt and gemm_nt_panel shard 4-column dot groups.
  // Shapes large enough that plan_shards genuinely splits at the default
  // grain, so helpers > 0 runs shards — and packs — on the helper threads
  // too.
  PolicyGuard guard;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    SCOPED_TRACE(std::string("isa=") + simd::isa_name(isa));
    Rng rng(26);
    for (auto [m, k, n] : {std::tuple{130, 70, 90}, std::tuple{4, 192, 768}}) {
      const Tensor a = random_tensor(m, k, rng);
      const Tensor b = random_tensor(k, n, rng);
      const Tensor bt = random_tensor(n, k, rng);
      const Tensor at = random_tensor(k, m, rng);
      const Tensor bias = random_tensor(1, n, rng);
      Tensor bp, btp;
      pack_panels(b, bp);
      pack_panels(bt, btp);
      for (KernelPolicy p : testable_policies()) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        set_kernel_policy(p);
        struct Out {
          Tensor nn, tn, nt, ntp, y, g;
        };
        Out outs[2];
        for (int h : {0, 1}) {
          ComputePool::instance().set_helpers(h == 0 ? 0 : 4);
          Out& o = outs[h];
          o = {Tensor(m, n), Tensor(m, n), Tensor(m, n), Tensor(m, n),
               Tensor(m, n), Tensor(m, n)};
          gemm(a, b, o.nn);
          gemm_tn(at, b, o.tn);
          gemm_nt(a, bt, o.nt);
          gemm_nt_panel(a, btp, o.ntp);
          gemm_bias_gelu_panel(a, bp, bias, o.y, o.g);
        }
        ComputePool::instance().set_helpers(0);
        expect_bitwise(outs[1].nn, outs[0].nn);
        expect_bitwise(outs[1].tn, outs[0].tn);
        expect_bitwise(outs[1].nt, outs[0].nt);
        expect_bitwise(outs[1].ntp, outs[0].ntp);
        expect_bitwise(outs[1].y, outs[0].y);
        expect_bitwise(outs[1].g, outs[0].g);
      }
    }
  }
}

// The composed attention path the fused driver replaced: per (batch, head)
// gather → gemm_nt → scale → −1e9 causal mask → softmax_rows → gemm, and
// the matching backward, all through the dispatching kernels so it runs in
// the active tier. Probs are per (batch, head) [s, s] matrices.
void composed_attention_forward(const Tensor& qkv, int S, int heads,
                                bool causal, Tensor& merged,
                                std::vector<Tensor>& probs) {
  const int hidden = qkv.cols() / 3, dk = hidden / heads;
  const int batch = qkv.rows() / S;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor q(S, dk), k(S, dk), v(S, dk), scores(S, S), context(S, dk);
  probs.assign(static_cast<std::size_t>(batch) * heads, Tensor(S, S));
  for (int b = 0; b < batch; ++b)
    for (int h = 0; h < heads; ++h) {
      for (int t = 0; t < S; ++t)
        for (int i = 0; i < dk; ++i) {
          q.at(t, i) = qkv.at(b * S + t, h * dk + i);
          k.at(t, i) = qkv.at(b * S + t, hidden + h * dk + i);
          v.at(t, i) = qkv.at(b * S + t, 2 * hidden + h * dk + i);
        }
      gemm_nt(q, k, scores);
      scores.scale(scale);
      if (causal)
        for (int i = 0; i < S; ++i)
          for (int j = i + 1; j < S; ++j) scores.at(i, j) = -1e9f;
      Tensor& p = probs[static_cast<std::size_t>(b) * heads + h];
      softmax_rows(scores, p);
      gemm(p, v, context);
      for (int t = 0; t < S; ++t)
        for (int i = 0; i < dk; ++i)
          merged.at(b * S + t, h * dk + i) = context.at(t, i);
    }
}

void composed_attention_backward(const Tensor& qkv,
                                 const std::vector<Tensor>& probs,
                                 const Tensor& dmerged, int S, int heads,
                                 Tensor& dqkv) {
  const int hidden = qkv.cols() / 3, dk = hidden / heads;
  const int batch = qkv.rows() / S;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor q(S, dk), k(S, dk), v(S, dk), dctx(S, dk), dprobs(S, S), ds(S, S);
  Tensor dq(S, dk), dkg(S, dk), dv(S, dk);
  dqkv.zero();
  for (int b = 0; b < batch; ++b)
    for (int h = 0; h < heads; ++h) {
      for (int t = 0; t < S; ++t)
        for (int i = 0; i < dk; ++i) {
          q.at(t, i) = qkv.at(b * S + t, h * dk + i);
          k.at(t, i) = qkv.at(b * S + t, hidden + h * dk + i);
          v.at(t, i) = qkv.at(b * S + t, 2 * hidden + h * dk + i);
          dctx.at(t, i) = dmerged.at(b * S + t, h * dk + i);
        }
      const Tensor& p = probs[static_cast<std::size_t>(b) * heads + h];
      gemm_nt(dctx, v, dprobs);
      gemm_tn(p, dctx, dv);
      for (int i = 0; i < S; ++i) {
        float dot = 0.0f;
        for (int j = 0; j < S; ++j) dot += dprobs.at(i, j) * p.at(i, j);
        for (int j = 0; j < S; ++j)
          ds.at(i, j) = p.at(i, j) * (dprobs.at(i, j) - dot);
      }
      ds.scale(scale);
      gemm(ds, k, dq);
      gemm_tn(ds, q, dkg);
      for (int t = 0; t < S; ++t)
        for (int i = 0; i < dk; ++i) {
          dqkv.at(b * S + t, h * dk + i) += dq.at(t, i);
          dqkv.at(b * S + t, hidden + h * dk + i) += dkg.at(t, i);
          dqkv.at(b * S + t, 2 * hidden + h * dk + i) += dv.at(t, i);
        }
    }
}

/// Bit-pattern equality: unlike ==, tells +0.0f from −0.0f.
void expect_same_bits(const float* got, const float* want, std::size_t n,
                      const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t g, w;
    std::memcpy(&g, got + i, sizeof g);
    std::memcpy(&w, want + i, sizeof w);
    ASSERT_EQ(g, w) << what << " element " << i << ": " << got[i] << " vs "
                    << want[i];
  }
}

void expect_same_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  expect_same_bits(got.data(), want.data(), got.numel(), what);
}

TEST(KernelTier, AttentionBitwiseMatchesComposedOpsInEveryTier) {
  // The fused attention driver computes only each row's key prefix and
  // reads Q/K/V in place; the composed ops add exact ±0 terms past it, so
  // MultiHeadAttention's output, probs, dx and weight grads must carry the
  // composed path's bit patterns in every tier, pooled or serial. dk = 10
  // exercises the dot products' serial tail; S spans the 8-lane and
  // 4-row dot-group edges. Decode over the same keys, split into pages of
  // 1, 3 and 5 rows, must reproduce the forward's context rows.
  PolicyGuard guard;
  for (KernelPolicy pol : testable_policies()) {
    set_kernel_policy(pol);
    for (int helpers : {0, 4}) {
      ComputePool::instance().set_helpers(helpers);
      for (bool causal : {true, false})
        for (int S : {1, 2, 5, 7, 8, 9, 17, 33, 64})
          for (int batch : {1, 3})
            for (int dk : {24, 10}) {
              SCOPED_TRACE(std::string(causal ? "causal" : "full") +
                           " S=" + std::to_string(S) + " batch=" +
                           std::to_string(batch) + " dk=" +
                           std::to_string(dk) + " helpers=" +
                           std::to_string(helpers));
              const int heads = 2, hidden = heads * dk, rows = batch * S;
              Rng rng(400 + S * 4 + batch * 2 + dk + causal);
              nn::MultiHeadAttention attn("attn", hidden, heads, S, causal,
                                          rng);
              const Tensor x = random_tensor(rows, hidden, rng);
              const Tensor dy = random_tensor(rows, hidden, rng);
              nn::MultiHeadAttention::Ctx ctx;
              // A recycled stash: forward must overwrite every prob, the
              // zeros past each causal prefix included.
              ctx.probs = Tensor(batch * heads * S, S);
              ctx.probs.fill(std::nanf(""));
              const Tensor y = attn.forward(x, ctx);
              const Tensor dx = attn.backward(dy, ctx);
              std::vector<const nn::Param*> ps;  // qkv.w, qkv.b, proj.w, .b
              attn.collect(ps);
              ASSERT_EQ(ps.size(), 4u);

              Tensor merged(rows, hidden);
              std::vector<Tensor> probs;
              composed_attention_forward(ctx.qkv, S, heads, causal, merged,
                                         probs);
              // The kernel's own outputs too: a signed zero in merged or
              // dqkv would vanish in the projections' sums.
              Tensor fused_probs, fused_merged, fused_dqkv;
              attention_forward(ctx.qkv, S, heads, causal, fused_probs,
                                fused_merged);
              expect_same_bits(fused_merged, merged, "merged");
              Tensor y_ref(rows, hidden);
              gemm_bias_panel(merged, ps[2]->value, ps[3]->value, y_ref);
              expect_same_bits(y, y_ref, "output");
              ASSERT_EQ(ctx.probs.rows(), batch * heads * S);
              for (std::size_t u = 0; u < probs.size(); ++u)
                expect_same_bits(ctx.probs.data() + u * S * S,
                                 probs[u].data(),
                                 static_cast<std::size_t>(S) * S, "probs");

              // Linear's weights and their gradients are panel-layout.
              Tensor gpw(panel_rows(hidden, hidden), kPanelWidth);
              Tensor gqw(panel_rows(hidden, 3 * hidden), kPanelWidth);
              Tensor gpb(1, hidden), gqb(1, 3 * hidden);
              gemm_tn_panel(merged, dy, gpw);
              bias_backward(dy, gpb);
              Tensor dmerged(rows, hidden), dqkv(rows, 3 * hidden);
              gemm_nt_panel(dy, ps[2]->value, dmerged);
              composed_attention_backward(ctx.qkv, probs, dmerged, S, heads,
                                          dqkv);
              attention_backward(ctx.qkv, fused_probs, dmerged, S, heads,
                                 causal, fused_dqkv);
              expect_same_bits(fused_dqkv, dqkv, "dqkv");
              gemm_tn_panel(x, dqkv, gqw);
              bias_backward(dqkv, gqb);
              Tensor dx_ref(rows, hidden);
              gemm_nt_panel(dqkv, ps[0]->value, dx_ref);
              expect_same_bits(dx, dx_ref, "dx");
              expect_same_bits(ps[0]->grad, gqw, "qkv.w grad");
              expect_same_bits(ps[1]->grad, gqb, "qkv.b grad");
              expect_same_bits(ps[2]->grad, gpw, "proj.w grad");
              expect_same_bits(ps[3]->grad, gpb, "proj.b grad");

              if (!causal) continue;
              const std::size_t ld = 3 * static_cast<std::size_t>(hidden);
              for (int page : {1, 3, 5}) {
                std::vector<KvRun> runs;
                std::vector<int> row_runs{0};
                for (int b = 0; b < batch; ++b)
                  for (int i = 0; i < S; ++i) {
                    for (int p0 = 0; p0 <= i; p0 += page) {
                      const float* row =
                          ctx.qkv.data() + (b * S + p0) * ld;
                      runs.push_back({row + hidden, row + 2 * hidden,
                                      std::min(page, i + 1 - p0)});
                    }
                    row_runs.push_back(static_cast<int>(runs.size()));
                  }
                Tensor decoded;
                attention_decode(ctx.qkv, heads, runs, row_runs, ld, decoded);
                expect_same_bits(decoded, merged, "decode context");
              }
            }
    }
  }
  ComputePool::instance().set_helpers(0);
}

TEST(KernelTier, VectorIsasAgreeBitwise) {
  // The AVX-512 GELU is the AVX2 one widened instruction for instruction,
  // the 12- and 6-row tiles keep each element's order, and the 6- and
  // 3-row dot blocks each element's dot, so the fast tier gives the same
  // bits on either ISA. x·I + 0 reproduces x exactly, so
  // with x a fine ramp over [−12, 12) the fused epilogue and gelu_forward
  // see every GELU regime: the curved middle, where a reordered product
  // shows, and the exp's flush below ≈ −10. n = 120 leaves a tail panel.
  PolicyGuard guard;
  if (env_pin() == EnvPin::kScalar || simd::active_isa() < simd::Isa::kAvx512)
    GTEST_SKIP() << "needs the fast tier on an AVX-512 host";
  set_kernel_policy(KernelPolicy::kFast);
  const int m = 137, n = 120;
  Tensor x(m, n), eye(n, n), bias(1, n);
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = -12.0f + 24.0f * static_cast<float>(i) / x.numel();
  for (int j = 0; j < n; ++j) eye.at(j, j) = 1.0f;
  Tensor wp;
  pack_panels(eye, wp);
  // dX = x·Wᵀ through the 6-row (AVX-512) and 3-row (AVX2) dot blocks: a
  // random W [37, n] makes every dot's rounding count, and 137 rows and 37
  // columns mix two block heights and end in a 1-column group on both ISAs.
  Rng rng(38);
  const Tensor w = random_tensor(37, n, rng);
  Tensor wtp;
  pack_panels(w, wtp);
  Tensor y[2], g[2], gf[2], dx[2];
  for (int i = 0; i < 2; ++i) {
    simd::ScopedIsaCap cap(i == 0 ? simd::Isa::kAvx2 : simd::Isa::kAvx512);
    y[i] = Tensor(m, n);
    g[i] = Tensor(m, n);
    gf[i] = Tensor(m, n);
    dx[i] = Tensor(m, 37);
    gemm_bias_gelu_panel(x, wp, bias, y[i], g[i]);
    gelu_forward(x, gf[i]);
    gemm_nt_panel(x, wtp, dx[i]);
  }
  expect_same_bits(y[0], x, "y");
  expect_same_bits(y[1], x, "y");
  expect_same_bits(g[1], g[0], "g");
  expect_same_bits(gf[1], gf[0], "gelu_forward");
  expect_same_bits(dx[1], dx[0], "gemm_nt_panel");
}

/// Uniform on [−scale, scale) from the generator's integer stream alone, so
/// the data's bits never depend on libm.
Tensor exact_tensor(int r, int c, Rng& rng, float scale = 1.0f) {
  Tensor t(r, c);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = scale * static_cast<float>(
                       static_cast<std::int32_t>(rng.next_u64() >> 40) -
                       (1 << 23)) *
           0x1p-23f;
  return t;
}

/// FNV-1a over the bit patterns of a sequence of tensors.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const Tensor& t) {
    for (std::size_t i = 0; i < t.numel(); ++i) {
      std::uint32_t u;
      std::memcpy(&u, t.data() + i, sizeof u);
      h = (h ^ u) * 0x100000001b3ull;
    }
  }
};

TEST(KernelTier, ShapeSweepBitsMatchGolden) {
  // Pins every GEMM form's and the vector GELU/softmax's exact output bits
  // to hashes recorded from these kernels, so a kernel rewrite meant to be
  // bitwise neutral — a new tile, a new ISA, one source in place of three —
  // must reproduce them under every tier pin and ISA cap. Rows span the
  // in-place and packed tile paths of every ISA (≤ 6 / ≤ 12, balanced
  // multi-tile heights at 13, 19, 25 and 130) and every dot block height;
  // k ∈ {1, 7, 24, 33, 72} covers the serial dot tail alone, a 16 + 8
  // chunk pair, full chunks plus a tail, and a longer reduction; n covers
  // lone tail panels, an exact panel, a tail behind full panels and every
  // dot group width. Helpers 0 and 3 put shards on the pool. Columns: the
  // fast tier on AVX2/AVX-512 (which agree bitwise), the fast tier under
  // the portable cap, and the scalar tier; 0 marks a path whose bits come
  // from libm (std::exp/std::tanh) and are not pinned. Every fma-chain row
  // (gemm, gemm_tn and their panel forms) carries one hash in all three
  // columns, and gemm_nt's portable dot is its vector dot.
  struct Golden {
    const char* op;
    std::uint64_t vector, portable, scalar;
  };
  static constexpr Golden kGolden[] = {
      {"gemm", 0x598805e04b9a04b0, 0x598805e04b9a04b0, 0x598805e04b9a04b0},
      {"gemm acc", 0xf8917c6712972103, 0xf8917c6712972103, 0xf8917c6712972103},
      {"gemm_tn", 0xc3cd3cfdd0e6424e, 0xc3cd3cfdd0e6424e, 0xc3cd3cfdd0e6424e},
      {"gemm_tn acc", 0x21f15dae65aafa9c, 0x21f15dae65aafa9c,
       0x21f15dae65aafa9c},
      {"gemm_nt", 0x43950b3ab8eac5a4, 0x43950b3ab8eac5a4, 0x9fd3fdca5bd1caca},
      {"gemm_nt acc", 0x3c6b51beb46c696b, 0x3c6b51beb46c696b,
       0xb82d5499e8b24c0b},
      {"gemm_bias_panel", 0x9d5a9df3bd789ec0, 0x9d5a9df3bd789ec0,
       0x9d5a9df3bd789ec0},
      {"gemm_bias_gelu_panel y", 0x9d5a9df3bd789ec0, 0x9d5a9df3bd789ec0,
       0x9d5a9df3bd789ec0},
      {"gemm_bias_gelu_panel g", 0x8543887c83747d0a, 0, 0},
      {"gemm_nt_panel", 0x43950b3ab8eac5a4, 0x43950b3ab8eac5a4,
       0x9fd3fdca5bd1caca},
      {"gemm_tn_panel", 0x6ae55a6233e15b54, 0x6ae55a6233e15b54,
       0x6ae55a6233e15b54},
      {"softmax_rows masked", 0x6deb9c76ac311e1a, 0, 0},
      {"gelu_forward std 14", 0xca2732d0c173c223, 0, 0},
  };
  constexpr int kOps = static_cast<int>(std::size(kGolden));
  const int kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 11, 12,
                       13, 16, 19, 24, 25, 64, 130};
  const int kDepths[] = {1, 7, 24, 33, 72};
  const int kCols[] = {1, 8, 15, 16, 17, 30, 40};
  PolicyGuard guard;
  bool scalar_done = false;
  for (simd::Isa isa : host_isas()) {
    simd::ScopedIsaCap cap(isa);
    for (KernelPolicy p : testable_policies()) {
      set_kernel_policy(p);
      const bool scalar = active_kernel_tier() == KernelTier::kScalar;
      if (scalar && scalar_done) continue;  // the scalar tier has no ISA
      scalar_done |= scalar;
      SCOPED_TRACE(scalar ? std::string("scalar tier")
                          : std::string("fast tier, isa=") +
                                simd::isa_name(isa));
      BitHash hash[kOps];
      Rng rng(41);
      for (int helpers : {0, 3}) {
        ComputePool::instance().set_helpers(helpers);
        for (int m : kRows)
          for (int n : kCols) {
            for (int k : kDepths) {
              const Tensor a = exact_tensor(m, k, rng);
              const Tensor at = exact_tensor(k, m, rng);
              const Tensor b = exact_tensor(k, n, rng);
              const Tensor bt = exact_tensor(n, k, rng);
              const Tensor c0 = exact_tensor(m, n, rng);
              const Tensor bias = exact_tensor(1, n, rng);
              Tensor bp, btp;
              pack_panels(b, bp);
              pack_panels(bt, btp);
              Tensor c(m, n), g(m, n);
              for (bool acc : {false, true}) {
                const int base = acc ? 1 : 0;
                c = acc ? c0 : Tensor(m, n);
                gemm(a, b, c, acc);
                hash[base].add(c);
                c = acc ? c0 : Tensor(m, n);
                gemm_tn(at, b, c, acc);
                hash[2 + base].add(c);
                c = acc ? c0 : Tensor(m, n);
                gemm_nt(a, bt, c, acc);
                hash[4 + base].add(c);
              }
              gemm_bias_panel(a, bp, bias, c);
              hash[6].add(c);
              gemm_bias_gelu_panel(a, bp, bias, c, g);
              hash[7].add(c);
              hash[8].add(g);
              gemm_nt_panel(a, btp, c);
              hash[9].add(c);
              Tensor dwp;
              pack_panels(c0, dwp);
              gemm_tn_panel(at, b, dwp);
              hash[10].add(dwp);
            }
            // Causal −1e9 mask: row i keeps columns j ≤ i.
            Tensor s = exact_tensor(m, n, rng, 4.0f), y(m, n);
            for (int i = 0; i < m; ++i)
              for (int j = i + 1; j < n; ++j) s.at(i, j) = -1e9f;
            softmax_rows(s, y);
            hash[11].add(y);
            // Uniform ±24 (std ≈ 14): the GELU's curve, saturation and flush.
            gelu_forward(exact_tensor(m, n, rng, 24.0f), y);
            hash[12].add(y);
          }
      }
      ComputePool::instance().set_helpers(0);
      for (int op = 0; op < kOps; ++op) {
        const Golden& want = kGolden[op];
        const std::uint64_t pinned =
            scalar ? want.scalar
            : isa == simd::Isa::kPortable ? want.portable
                                          : want.vector;
        if (pinned == 0) continue;
        EXPECT_EQ(hash[op].h, pinned)
            << want.op << ": got 0x" << std::hex << hash[op].h;
      }
    }
  }
}

}  // namespace
}  // namespace chimera
