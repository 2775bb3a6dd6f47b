#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/compute_pool.h"
#include "tensor/kernels_simd.h"

namespace chimera {
namespace {

/// Blocked inner kernel shared by the GEMM variants. Index lambdas map
/// logical (row, col) of each operand to storage.
constexpr int kBlock = 48;

std::atomic<KernelPolicy> g_kernel_policy{KernelPolicy::kAuto};

enum class EnvPin { kNone, kScalar, kFast };

/// CHIMERA_KERNEL_TIER, read once at first kernel dispatch (tests and CI
/// pin a tier for a whole process run; mutating the environment mid-run is
/// not a supported way to switch tiers).
EnvPin env_pin() {
  static const EnvPin pin = [] {
    const char* v = std::getenv("CHIMERA_KERNEL_TIER");
    if (v == nullptr || *v == '\0') return EnvPin::kNone;
    if (std::strcmp(v, "scalar") == 0) return EnvPin::kScalar;
    if (std::strcmp(v, "fast") == 0) return EnvPin::kFast;
    CHIMERA_CHECK(false && "CHIMERA_KERNEL_TIER must be 'scalar' or 'fast'");
    return EnvPin::kNone;
  }();
  return pin;
}

/// Env pin ▸ policy ▸ CPU capability (kAuto). kFast forces the fast tier
/// even without AVX2 — the portable mirror runs there.
bool use_fast_tier() {
  switch (env_pin()) {
    case EnvPin::kScalar: return false;
    case EnvPin::kFast: return true;
    case EnvPin::kNone: break;
  }
  switch (g_kernel_policy.load(std::memory_order_relaxed)) {
    case KernelPolicy::kScalarReference: return false;
    case KernelPolicy::kFast: return true;
    case KernelPolicy::kAuto: break;
  }
  return simd::cpu_supports_avx2_fma();
}

/// The non-GEMM ops have no portable fast mirror (the scalar reference is
/// already their fallback); their fast tier exists only on AVX2 hosts.
bool use_fast_nongemm() {
  return use_fast_tier() && simd::cpu_supports_avx2_fma();
}

/// The scalar reference of one softmax_rows row; x and y may alias.
void softmax_row_ref(const float* x, float* y, int C) {
  float mx = x[0];
  for (int c = 1; c < C; ++c) mx = std::max(mx, x[c]);
  float sum = 0.0f;
  for (int c = 0; c < C; ++c) {
    const float e = std::exp(x[c] - mx);
    y[c] = e;
    sum += e;
  }
  const float inv = 1.0f / sum;
  for (int c = 0; c < C; ++c) y[c] *= inv;
}

}  // namespace

void set_kernel_policy(KernelPolicy policy) {
  g_kernel_policy.store(policy, std::memory_order_relaxed);
}

KernelPolicy kernel_policy() {
  return g_kernel_policy.load(std::memory_order_relaxed);
}

KernelTier active_kernel_tier() {
  return use_fast_tier() ? KernelTier::kFast : KernelTier::kScalar;
}

const char* kernel_policy_name(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kScalarReference: return "scalar_reference";
    case KernelPolicy::kFast: return "fast";
    case KernelPolicy::kAuto: break;
  }
  return "auto";
}

const char* kernel_tier_name(KernelTier tier) {
  return tier == KernelTier::kFast ? "fast" : "scalar";
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  if (use_fast_tier()) {
    simd::gemm_fast(a, b, c, accumulate);
    return;
  }
  const int m = a.rows(), k = a.cols(), n = b.cols();
  CHIMERA_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  if (!accumulate) c.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Shards split the output rows; the kBlock×kBlock cache blocking runs
  // *inside* each shard. Per output element the accumulation order over l
  // (l0 blocks ascending, l ascending) is unchanged — bitwise ≡ serial.
  const int shards = plan_shards(m, static_cast<std::size_t>(k) * n);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(m, shards, s);
    const int r1 = shard_begin(m, shards, s + 1);
    for (int i0 = r0; i0 < r1; i0 += kBlock) {
      const int i1 = std::min(r1, i0 + kBlock);
      for (int l0 = 0; l0 < k; l0 += kBlock) {
        const int l1 = std::min(k, l0 + kBlock);
        for (int i = i0; i < i1; ++i) {
          for (int l = l0; l < l1; ++l) {
            const float av = pa[static_cast<std::size_t>(i) * k + l];
            const float* brow = pb + static_cast<std::size_t>(l) * n;
            float* crow = pc + static_cast<std::size_t>(i) * n;
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  });
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  if (use_fast_tier()) {
    simd::gemm_tn_fast(a, b, c, accumulate);
    return;
  }
  const int k = a.rows(), m = a.cols(), n = b.cols();
  CHIMERA_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  if (!accumulate) c.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Shards split the output rows i (= columns of A); the l loop stays
  // outermost inside each shard, so per element the order over l — and the
  // result — is bitwise ≡ serial.
  const int shards = plan_shards(m, static_cast<std::size_t>(k) * n);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int i0 = shard_begin(m, shards, s);
    const int i1 = shard_begin(m, shards, s + 1);
    for (int l = 0; l < k; ++l) {
      const float* arow = pa + static_cast<std::size_t>(l) * m;
      const float* brow = pb + static_cast<std::size_t>(l) * n;
      for (int i = i0; i < i1; ++i) {
        const float av = arow[i];
        float* crow = pc + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  if (use_fast_tier()) {
    simd::gemm_nt_fast(a, b, c, accumulate);
    return;
  }
  const int m = a.rows(), k = a.cols(), n = b.rows();
  CHIMERA_CHECK(b.cols() == k && c.rows() == m && c.cols() == n);
  if (!accumulate) c.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Blocked like gemm/gemm_tn: kBlock×kBlock over (rows, l), so each B
  // column block (n×kBlock values) is reused across the whole row block
  // instead of streaming all of B once per output row. Per element the
  // accumulation is a partial dot per l-block, blocks ascending, added into
  // C in that fixed order — a pure function of the shapes, so pooled runs
  // stay bitwise ≡ serial (and for k ≤ kBlock — every attention dk path —
  // the single block reproduces the old full-dot order exactly).
  const int shards = plan_shards(m, static_cast<std::size_t>(k) * n);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(m, shards, s);
    const int r1 = shard_begin(m, shards, s + 1);
    for (int i0 = r0; i0 < r1; i0 += kBlock) {
      const int i1 = std::min(r1, i0 + kBlock);
      for (int l0 = 0; l0 < k; l0 += kBlock) {
        const int l1 = std::min(k, l0 + kBlock);
        for (int i = i0; i < i1; ++i) {
          const float* arow = pa + static_cast<std::size_t>(i) * k;
          float* crow = pc + static_cast<std::size_t>(i) * n;
          for (int j = 0; j < n; ++j) {
            const float* brow = pb + static_cast<std::size_t>(j) * k;
            float acc = 0.0f;
            for (int l = l0; l < l1; ++l) acc += arow[l] * brow[l];
            crow[j] += acc;
          }
        }
      }
    }
  });
}

void gemm_bias(const Tensor& x, const Tensor& w, const Tensor& bias,
               Tensor& y) {
  if (use_fast_tier()) {
    simd::gemm_bias_act_fast(x, w, bias, y, nullptr);
    return;
  }
  gemm(x, w, y);
  add_bias(y, bias);
}

void gemm_bias_gelu(const Tensor& x, const Tensor& w, const Tensor& bias,
                    Tensor& y, Tensor& g) {
  if (use_fast_tier()) {
    simd::gemm_bias_act_fast(x, w, bias, y, &g);
    return;
  }
  gemm(x, w, y);
  add_bias(y, bias);
  gelu_forward(y, g);
}

void add_bias(Tensor& y, const Tensor& bias) {
  if (use_fast_nongemm()) {
    simd::add_bias_fast(y, bias);
    return;
  }
  CHIMERA_CHECK(bias.cols() == y.cols() && bias.rows() == 1);
  const int R = y.rows(), C = y.cols();
  const int shards = plan_shards(R, static_cast<std::size_t>(C));
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(R, shards, s);
    const int r1 = shard_begin(R, shards, s + 1);
    for (int r = r0; r < r1; ++r)
      for (int c = 0; c < C; ++c) y.at(r, c) += bias.at(0, c);
  });
}

void bias_backward(const Tensor& dy, Tensor& dbias) {
  if (use_fast_nongemm()) {
    simd::bias_backward_fast(dy, dbias);
    return;
  }
  CHIMERA_CHECK(dbias.cols() == dy.cols() && dbias.rows() == 1);
  const int R = dy.rows(), C = dy.cols();
  // Column shards: each dbias element accumulates its rows in ascending
  // order on exactly one shard — bitwise ≡ serial, no partials needed.
  const int shards = plan_shards(C, static_cast<std::size_t>(R));
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int c0 = shard_begin(C, shards, s);
    const int c1 = shard_begin(C, shards, s + 1);
    for (int r = 0; r < R; ++r)
      for (int c = c0; c < c1; ++c) dbias.at(0, c) += dy.at(r, c);
  });
}

void gelu_forward(const Tensor& x, Tensor& y) {
  if (use_fast_nongemm()) {
    simd::gelu_forward_fast(x, y);
    return;
  }
  CHIMERA_CHECK(x.numel() == y.numel());
  const std::size_t n = x.numel();
  const int units = static_cast<int>(n / 256 + 1);  // split in 256-elem units
  const int shards = plan_shards(units, 256 * 8);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const std::size_t i0 = static_cast<std::size_t>(shard_begin(units, shards, s)) * 256;
    const std::size_t i1 =
        std::min(n, static_cast<std::size_t>(shard_begin(units, shards, s + 1)) * 256);
    for (std::size_t i = i0; i < i1; ++i) y[i] = detail::gelu_eval(x[i]);
  });
}

void gelu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  if (use_fast_nongemm()) {
    simd::gelu_backward_fast(x, dy, dx);
    return;
  }
  CHIMERA_CHECK(x.numel() == dy.numel() && x.numel() == dx.numel());
  const std::size_t n = x.numel();
  const int units = static_cast<int>(n / 256 + 1);
  const int shards = plan_shards(units, 256 * 8);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const std::size_t i0 = static_cast<std::size_t>(shard_begin(units, shards, s)) * 256;
    const std::size_t i1 =
        std::min(n, static_cast<std::size_t>(shard_begin(units, shards, s + 1)) * 256);
    for (std::size_t i = i0; i < i1; ++i)
      dx[i] = dy[i] * detail::gelu_grad_eval(x[i]);
  });
}

void layernorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                       Tensor& y, Tensor& mean, Tensor& rstd) {
  if (use_fast_nongemm()) {
    simd::layernorm_forward_fast(x, gamma, beta, y, mean, rstd);
    return;
  }
  const int R = x.rows(), H = x.cols();
  CHIMERA_CHECK(gamma.cols() == H && beta.cols() == H);
  CHIMERA_CHECK(y.rows() == R && mean.rows() == R && rstd.rows() == R);
  const int shards = plan_shards(R, static_cast<std::size_t>(H) * 4);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(R, shards, s);
    const int r1 = shard_begin(R, shards, s + 1);
    for (int r = r0; r < r1; ++r) {
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
  });
}

void layernorm_backward(const Tensor& x, const Tensor& gamma,
                        const Tensor& mean, const Tensor& rstd,
                        const Tensor& dy, Tensor& dx, Tensor& dgamma,
                        Tensor& dbeta) {
  if (use_fast_nongemm()) {
    simd::layernorm_backward_fast(x, gamma, mean, rstd, dy, dx, dgamma, dbeta);
    return;
  }
  const int R = x.rows(), H = x.cols();
  ComputePool& pool = ComputePool::instance();
  // Pass 1, row shards: dx — each row's sums and outputs are self-contained.
  const int row_shards = plan_shards(R, static_cast<std::size_t>(H) * 6);
  pool.parallel_for(row_shards, [&](int s) {
    const int r0 = shard_begin(R, row_shards, s);
    const int r1 = shard_begin(R, row_shards, s + 1);
    for (int r = r0; r < r1; ++r) {
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
  });
  // Pass 2, column shards: dgamma/dbeta — each parameter element accumulates
  // its rows in ascending order on exactly one shard, bitwise ≡ serial.
  const int col_shards = plan_shards(H, static_cast<std::size_t>(R) * 3);
  pool.parallel_for(col_shards, [&](int s) {
    const int c0 = shard_begin(H, col_shards, s);
    const int c1 = shard_begin(H, col_shards, s + 1);
    for (int r = 0; r < R; ++r) {
      const float mu = mean.at(r, 0);
      const float rs = rstd.at(r, 0);
      for (int c = c0; c < c1; ++c) {
        const float xhat = (x.at(r, c) - mu) * rs;
        dgamma.at(0, c) += dy.at(r, c) * xhat;
        dbeta.at(0, c) += dy.at(r, c);
      }
    }
  });
}

void softmax_rows(const Tensor& x, Tensor& y) {
  if (use_fast_nongemm()) {
    simd::softmax_rows_fast(x, y);
    return;
  }
  const int R = x.rows(), C = x.cols();
  CHIMERA_CHECK(y.rows() == R && y.cols() == C);
  const int shards = plan_shards(R, static_cast<std::size_t>(C) * 4);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(R, shards, s);
    const int r1 = shard_begin(R, shards, s + 1);
    for (int r = r0; r < r1; ++r)
      softmax_row_ref(x.data() + static_cast<std::size_t>(r) * C,
                      y.data() + static_cast<std::size_t>(r) * C, C);
  });
}

float cross_entropy(const Tensor& logits, const std::vector<int>& targets,
                    Tensor& dlogits, float loss_scale) {
  const int R = logits.rows(), V = logits.cols();
  CHIMERA_CHECK(static_cast<int>(targets.size()) == R);
  CHIMERA_CHECK(dlogits.rows() == R && dlogits.cols() == V);
  for (int r = 0; r < R; ++r)  // validate before entering the parallel region
    CHIMERA_CHECK(targets[r] >= 0 && targets[r] < V);
  softmax_rows(logits, dlogits);  // reuse dlogits as probability buffer
  const float inv_rows = 1.0f / R;
  // Row shards write a per-row log-prob; the scalar loss is then summed in
  // row order on the caller — the same association as the serial loop.
  // The scratch is the caller's thread_local (kept across calls, so the
  // steady state allocates nothing). The lambda must reach it through an
  // automatic pointer: thread-storage variables are not captured, and every
  // helper shard has to write the *caller's* buffer. The pool join orders
  // those writes before the caller's read.
  static thread_local std::vector<float> logp_scratch;
  logp_scratch.resize(static_cast<std::size_t>(R));
  float* const row_logp = logp_scratch.data();
  if (use_fast_nongemm()) {
    simd::cross_entropy_grad_fast(dlogits, targets, inv_rows * loss_scale,
                                  row_logp);
  } else {
    const int shards = plan_shards(R, static_cast<std::size_t>(V) * 2);
    ComputePool::instance().parallel_for(shards, [&](int s) {
      const int r0 = shard_begin(R, shards, s);
      const int r1 = shard_begin(R, shards, s + 1);
      for (int r = r0; r < r1; ++r) {
        const int t = targets[r];
        row_logp[r] = std::log(std::max(dlogits.at(r, t), 1e-20f));
        for (int c = 0; c < V; ++c) dlogits.at(r, c) *= inv_rows * loss_scale;
        dlogits.at(r, t) -= inv_rows * loss_scale;
      }
    });
  }
  float loss = 0.0f;
  for (int r = 0; r < R; ++r) loss -= row_logp[r];
  return loss * inv_rows;
}

// ---- Fused attention ----------------------------------------------------

namespace {

/// gemm_nt's scalar per-element order for one A row against the n B rows
/// at b + j·ldb: kBlock partial dots added to 0.0f in ascending order.
void dot_rows_ref(const float* a, const float* b, std::size_t ldb, int k,
                  int n, float* out) {
  for (int j = 0; j < n; ++j, b += ldb) {
    float c = 0.0f;
    for (int l0 = 0; l0 < k; l0 += kBlock) {
      const int l1 = std::min(k, l0 + kBlock);
      float acc = 0.0f;
      for (int l = l0; l < l1; ++l) acc += a[l] * b[l];
      c += acc;
    }
    out[j] = c;
  }
}

/// out += Σⱼ w[j]·x_j, j ascending (gemm's per-element order).
void combine_rows_ref(const float* w, int n, const float* x, std::size_t ld,
                      int dk, float* out) {
  for (int j = 0; j < n; ++j, x += ld)
    for (int c = 0; c < dk; ++c) out[c] += w[j] * x[c];
}

/// y_j += w[j]·x (gemm_tn's order when called for ascending query rows).
void outer_rows_ref(const float* w, int n, const float* x, int dk, float* y,
                    std::size_t ld) {
  for (int j = 0; j < n; ++j, y += ld)
    for (int c = 0; c < dk; ++c) y[c] += w[j] * x[c];
}

/// The row primitives the composed attention ops dispatch to in the
/// active tier. combine/outer are bitwise identical across tiers; the
/// fast tier's dots are gemm_nt_fast's (AVX2 or portable) and its softmax
/// row is AVX2-only, like softmax_rows_fast.
struct AttnRowOps {
  void (*dots)(const float*, const float*, std::size_t, int, int, float*);
  void (*softmax)(const float*, float*, int);
  void (*combine)(const float*, int, const float*, std::size_t, int, float*);
  void (*outer)(const float*, int, const float*, int, float*, std::size_t);
};

const AttnRowOps& attn_row_ops() {
  static constexpr AttnRowOps kScalar{dot_rows_ref, softmax_row_ref,
                                      combine_rows_ref, outer_rows_ref};
  static constexpr AttnRowOps kFastPortable{
      simd::dot_rows_fast, softmax_row_ref, combine_rows_ref, outer_rows_ref};
  static constexpr AttnRowOps kFastAvx2{
      simd::dot_rows_fast, simd::softmax_row_fast, simd::combine_rows_fast,
      simd::outer_rows_fast};
  if (!use_fast_tier()) return kScalar;
  return simd::cpu_supports_avx2_fma() ? kFastAvx2 : kFastPortable;
}

/// One query row of one head over the keys of `runs` (L rows in total):
/// p[0..L) = softmax(scale·(q·k_j)), out[0..dk) = Σⱼ p[j]·v_j, both fully
/// written. `off` is the head's column offset inside each K/V row.
void attend_row(const AttnRowOps& ops, const float* q, const KvRun* runs,
                int nruns, std::size_t ld, std::size_t off, int dk,
                float scale, float* p, float* out) {
  int len = 0;
  for (int r = 0; r < nruns; ++r) {
    ops.dots(q, runs[r].k + off, ld, dk, runs[r].rows, p + len);
    len += runs[r].rows;
  }
  for (int j = 0; j < len; ++j) p[j] *= scale;
  ops.softmax(p, p, len);
  std::fill(out, out + dk, 0.0f);
  for (int r = 0, j0 = 0; r < nruns; j0 += runs[r].rows, ++r)
    ops.combine(p + j0, runs[r].rows, runs[r].v + off, ld, dk, out);
}

/// Thread-local grow-only scratch row (each pool thread keeps its own).
float* row_scratch(std::size_t n) {
  static thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace

void attention_forward(const Tensor& qkv, int seq, int heads, bool causal,
                       Tensor& probs, Tensor& merged) {
  const int rows = qkv.rows(), hidden = qkv.cols() / 3;
  CHIMERA_CHECK(qkv.cols() == 3 * hidden && heads > 0 &&
                hidden % heads == 0 && seq > 0 && rows % seq == 0);
  const int dk = hidden / heads, units = rows / seq * heads;
  const std::size_t ld = 3 * static_cast<std::size_t>(hidden);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  probs.reshape(units * seq, seq);
  merged.reshape(rows, hidden);
  const AttnRowOps& ops = attn_row_ops();
  const int shards =
      plan_shards(units, static_cast<std::size_t>(seq) * seq * dk * 2);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int u1 = shard_begin(units, shards, s + 1);
    for (int u = shard_begin(units, shards, s); u < u1; ++u) {
      const int b = u / heads;
      const std::size_t off = static_cast<std::size_t>(u % heads) * dk;
      const float* base = qkv.data() + static_cast<std::size_t>(b) * seq * ld;
      KvRun run{base + hidden, base + 2 * hidden, 0};
      for (int i = 0; i < seq; ++i) {
        run.rows = causal ? i + 1 : seq;
        float* p =
            probs.data() + (static_cast<std::size_t>(u) * seq + i) * seq;
        attend_row(ops, base + i * ld + off, &run, 1, ld, off, dk, scale, p,
                   merged.data() +
                       (static_cast<std::size_t>(b) * seq + i) * hidden + off);
        std::fill(p + run.rows, p + seq, 0.0f);
      }
    }
  });
}

void attention_backward(const Tensor& qkv, const Tensor& probs,
                        const Tensor& dmerged, int seq, int heads,
                        bool causal, Tensor& dqkv) {
  const int rows = qkv.rows(), hidden = qkv.cols() / 3;
  CHIMERA_CHECK(qkv.cols() == 3 * hidden && heads > 0 &&
                hidden % heads == 0 && seq > 0 && rows % seq == 0);
  const int dk = hidden / heads, units = rows / seq * heads;
  CHIMERA_CHECK(probs.rows() == units * seq && probs.cols() == seq);
  CHIMERA_CHECK(dmerged.rows() == rows && dmerged.cols() == hidden);
  const std::size_t ld = 3 * static_cast<std::size_t>(hidden);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  dqkv.reshape(rows, 3 * hidden);
  dqkv.zero();  // dQ/dK/dV accumulate from +0, as the composed gemms did
  const AttnRowOps& ops = attn_row_ops();
  const int shards =
      plan_shards(units, static_cast<std::size_t>(seq) * seq * dk * 4);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    float* dp = row_scratch(2 * static_cast<std::size_t>(seq));
    float* ds = dp + seq;
    const int u1 = shard_begin(units, shards, s + 1);
    for (int u = shard_begin(units, shards, s); u < u1; ++u) {
      const int b = u / heads;
      const std::size_t off = static_cast<std::size_t>(u % heads) * dk;
      const std::size_t row0 = static_cast<std::size_t>(b) * seq;
      // The head's Q, K and V (and their gradients) are the column blocks
      // at q (dq), +hidden and +2·hidden.
      const float* q = qkv.data() + row0 * ld + off;
      const float* dmr = dmerged.data() + row0 * hidden + off;
      float* dq = dqkv.data() + row0 * ld + off;
      // Query rows ascend, so every dK/dV element sums its rows in the
      // ascending order gemm_tn used.
      for (int i = 0; i < seq; ++i) {
        const int len = causal ? i + 1 : seq;
        const float* p =
            probs.data() + (static_cast<std::size_t>(u) * seq + i) * seq;
        const float* dc = dmr + static_cast<std::size_t>(i) * hidden;
        ops.dots(dc, q + 2 * hidden, ld, dk, len, dp);  // dP = dC·Vᵀ
        // Softmax backward: dS = P ⊙ (dP − rowsum(dP ⊙ P)), then the scale.
        float dot = 0.0f;
        for (int j = 0; j < len; ++j) dot += dp[j] * p[j];
        for (int j = 0; j < len; ++j) ds[j] = p[j] * (dp[j] - dot) * scale;
        ops.combine(ds, len, q + hidden, ld, dk, dq + i * ld);  // dQ = dS·K
        ops.outer(ds, len, q + i * ld, dk, dq + hidden, ld);    // dK += dSᵀ·Q
        ops.outer(p, len, dc, dk, dq + 2 * hidden, ld);         // dV += Pᵀ·dC
      }
    }
  });
}

void attention_decode(const Tensor& qkv, int heads,
                      const std::vector<KvRun>& runs,
                      const std::vector<int>& row_runs, std::size_t ld,
                      Tensor& merged) {
  const int rows = qkv.rows(), hidden = qkv.cols() / 3;
  CHIMERA_CHECK(qkv.cols() == 3 * hidden && heads > 0 &&
                hidden % heads == 0 &&
                row_runs.size() == static_cast<std::size_t>(rows) + 1 &&
                row_runs.back() == static_cast<int>(runs.size()));
  const int dk = hidden / heads, units = rows * heads;
  std::size_t keys = 0;
  for (const KvRun& run : runs) keys += run.rows;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  merged.reshape(rows, hidden);
  const AttnRowOps& ops = attn_row_ops();
  const int shards =
      plan_shards(units, keys * dk * 4 / std::max(rows, 1) + 1);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    float* p = row_scratch(keys);
    const int u1 = shard_begin(units, shards, s + 1);
    for (int u = shard_begin(units, shards, s); u < u1; ++u) {
      const int r = u / heads;
      const std::size_t off = static_cast<std::size_t>(u % heads) * dk;
      const float* q = qkv.data() + r * 3 * static_cast<std::size_t>(hidden);
      attend_row(ops, q + off, runs.data() + row_runs[r],
                 row_runs[r + 1] - row_runs[r], ld, off, dk, scale, p,
                 merged.data() + static_cast<std::size_t>(r) * hidden + off);
    }
  });
}

// ---- Comm / codec inner loops (bitwise identical across tiers) ----------
// These run on the comm rank threads, which are already the parallelism
// axis — no pool sharding here, just the lane-widened loop.

void vector_add(float* dst, const float* src, std::size_t n) {
  if (use_fast_nongemm()) {
    simd::vector_add_fast(dst, src, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

float max_abs(const float* x, std::size_t n) {
  if (use_fast_nongemm()) return simd::max_abs_fast(x, n);
  float mx = 0.0f;
  for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, std::abs(x[i]));
  return mx;
}

void quantize_prep(const float* x, std::size_t n, float scale, float levels,
                   float* a, float* floor_a) {
  if (use_fast_nongemm()) {
    simd::quantize_prep_fast(x, n, scale, levels, a, floor_a);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float q = std::abs(x[i]) / scale * levels;
    a[i] = q;
    floor_a[i] = std::floor(q);
  }
}

void dequant_add_int8(const std::int8_t* q, std::size_t n, float unit,
                      float* out) {
  if (use_fast_nongemm()) {
    simd::dequant_add_int8_fast(q, n, unit, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i)
    out[i] += unit * static_cast<float>(q[i]);
}

}  // namespace chimera
