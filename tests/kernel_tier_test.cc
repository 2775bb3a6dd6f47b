// The kernel-tier contract (DESIGN.md §2 item 18).
//
// gemm / gemm_tn must be BITWISE identical across tiers: the fast tier's
// microkernels keep every output element's serial ascending reduction over
// the contraction dimension and never contract mul+add into FMA. gemm_nt's
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
// orders (kernels.cc): ascending l for gemm/gemm_tn, ascending kBlock
// partial dots for gemm_nt. Plain mul+add — like the reference, these are
// compiled for baseline x86-64 where no FMA contraction exists.
constexpr int kRefBlock = 48;

void ref_gemm(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l = 0; l < a.cols(); ++l) s += a.at(i, l) * b.at(l, j);
      c.at(i, j) = s;
    }
}

void ref_gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  for (int i = 0; i < a.cols(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l = 0; l < a.rows(); ++l) s += a.at(l, i) * b.at(l, j);
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

/// Shapes deliberately off the 6×16 tile and 48 block grids (plus exact
/// multiples and degenerate edges), as {m, k, n}. The fast gemm/gemm_tn
/// tier reads B in place for m ≤ 6 and packs it per panel above that, so
/// m ∈ {1, 2, 4, 6, 7} covers both sides; n ∈ {1, 8, 15, 17, 24} puts 1-,
/// 8-, 15-column tail panels behind zero or one full panel; k = 1 is the
/// shortest reduction.
const std::tuple<int, int, int> kShapes[] = {
    {1, 1, 1},    {3, 5, 7},    {6, 16, 32},  {13, 48, 33},
    {17, 31, 9},  {48, 64, 96}, {7, 129, 65}, {65, 7, 130},
    {1, 40, 17},  {2, 33, 8},   {4, 64, 15},  {6, 1, 24},
    {7, 20, 17},  {7, 1, 1},    {2, 300, 24}, {13, 1, 15}};

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

TEST(KernelTier, GemmBitwiseMatchesReferenceInEveryTier) {
  PolicyGuard guard;
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

TEST(KernelTier, GemmTnBitwiseMatchesReferenceInEveryTier) {
  PolicyGuard guard;
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

TEST(KernelTier, GemmNtToleranceAgainstReference) {
  PolicyGuard guard;
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

/// The fast tier's documented gemm_nt order for one output element: eight
/// strided lane partials over the k/8·8 prefix (lane t takes l ≡ t mod 8;
/// fused multiply-add on AVX2+FMA hosts, separate mul+add on the portable
/// path), the fixed ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)) combine tree, a
/// serial mul+add tail, and finally C + sum.
float model_gemm_nt_element(const float* a, const float* b, int k, float c,
                            bool fused) {
  float lane[8] = {};
  int l = 0;
  for (; l + 8 <= k; l += 8)
    for (int t = 0; t < 8; ++t)
      lane[t] = fused ? std::fmaf(a[l + t], b[l + t], lane[t])
                      : lane[t] + a[l + t] * b[l + t];
  float sum = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
              ((lane[1] + lane[5]) + (lane[3] + lane[7]));
  for (; l < k; ++l) sum += a[l] * b[l];
  return c + sum;
}

TEST(KernelTier, GemmNtFastTierBitwiseMatchesOrderModel) {
  // Tolerance alone would let a reordering of the fast tier's reduction
  // pass silently; this pins the order itself.
  PolicyGuard guard;
  Rng rng(37);
  const bool fused = simd::cpu_supports_avx2_fma();
  bool checked = false;
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
              accumulate ? seed.at(i, j) : 0.0f, fused);
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
  if (!checked) GTEST_SKIP() << "fast tier not reachable under this pin";
}

TEST(KernelTier, GemmNtRowsAreBitwiseStableInRowCount) {
  // The decode contract: a [1, k] query row must produce bitwise the same
  // scores whether computed alone (decode_step) or as one row of the full
  // [m, k] forward — in every tier, the per-element result depends only on
  // k and the data, never on m or the shard split.
  PolicyGuard guard;
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
        ASSERT_EQ(crow.at(0, j), full.at(i, j)) << "row " << i << " col " << j;
    }
  }
}

TEST(KernelTier, FusedBiasGeluBitwiseMatchesUnfused) {
  PolicyGuard guard;
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

      Tensor y1(m, n);
      gemm_bias(x, w, bias, y1);
      expect_bitwise(y1, want_y);

      Tensor y2(m, n), g2(m, n);
      gemm_bias_gelu(x, w, bias, y2, g2);
      expect_bitwise(y2, want_y);
      expect_bitwise(g2, want_g);
    }
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
  // thread's own buffer (m > 6) or reads B in place (m ≤ 6); gemm_nt shards
  // rows. Shapes large enough that plan_shards genuinely splits at the
  // default grain, so helpers > 0 runs shards — and packs — on the helper
  // threads too.
  PolicyGuard guard;
  Rng rng(26);
  for (auto [m, k, n] : {std::tuple{130, 70, 90}, std::tuple{4, 192, 768}}) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(k, n, rng);
    const Tensor bt = random_tensor(n, k, rng);
    const Tensor at = random_tensor(k, m, rng);
    const Tensor bias = random_tensor(1, n, rng);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                   std::to_string(n));
      set_kernel_policy(p);
      struct Out {
        Tensor nn, tn, nt, y, g;
      };
      Out outs[2];
      for (int h : {0, 1}) {
        ComputePool::instance().set_helpers(h == 0 ? 0 : 4);
        Out& o = outs[h];
        o = {Tensor(m, n), Tensor(m, n), Tensor(m, n), Tensor(m, n),
             Tensor(m, n)};
        gemm(a, b, o.nn);
        gemm_tn(at, b, o.tn);
        gemm_nt(a, bt, o.nt);
        gemm_bias_gelu(a, b, bias, o.y, o.g);
      }
      ComputePool::instance().set_helpers(0);
      expect_bitwise(outs[1].nn, outs[0].nn);
      expect_bitwise(outs[1].tn, outs[0].tn);
      expect_bitwise(outs[1].nt, outs[0].nt);
      expect_bitwise(outs[1].y, outs[0].y);
      expect_bitwise(outs[1].g, outs[0].g);
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
              gemm_bias(merged, ps[2]->value, ps[3]->value, y_ref);
              expect_same_bits(y, y_ref, "output");
              ASSERT_EQ(ctx.probs.rows(), batch * heads * S);
              for (std::size_t u = 0; u < probs.size(); ++u)
                expect_same_bits(ctx.probs.data() + u * S * S,
                                 probs[u].data(),
                                 static_cast<std::size_t>(S) * S, "probs");

              Tensor gpw(hidden, hidden), gpb(1, hidden);
              Tensor gqw(hidden, 3 * hidden), gqb(1, 3 * hidden);
              gemm_tn(merged, dy, gpw, /*accumulate=*/true);
              bias_backward(dy, gpb);
              Tensor dmerged(rows, hidden), dqkv(rows, 3 * hidden);
              gemm_nt(dy, ps[2]->value, dmerged);
              composed_attention_backward(ctx.qkv, probs, dmerged, S, heads,
                                          dqkv);
              attention_backward(ctx.qkv, fused_probs, dmerged, S, heads,
                                 causal, fused_dqkv);
              expect_same_bits(fused_dqkv, dqkv, "dqkv");
              gemm_tn(x, dqkv, gqw, /*accumulate=*/true);
              bias_backward(dqkv, gqb);
              Tensor dx_ref(rows, hidden);
              gemm_nt(dqkv, ps[0]->value, dx_ref);
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

}  // namespace
}  // namespace chimera
