// Minimal dense fp32 matrix used by the functional training runtime.
//
// Everything the pipeline runtime computes is a 2-D row-major matrix; batch
// and sequence dimensions are folded into rows ([B·s, h]). Attention handles
// its head reshapes internally with explicit index arithmetic. The type is a
// plain value (deep copy), which keeps activation stashing and weight
// versioning (PipeDream) trivial and correct.
//
// Storage is recycled through a thread-local arena (tensor/arena.h): after
// warm-up, constructing or destroying a Tensor on the hot path touches a
// freelist instead of the allocator. Semantics are unchanged — a freshly
// constructed Tensor is always zero-filled.
#pragma once

#include <algorithm>
#include <climits>
#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/rng.h"
#include "tensor/arena.h"

namespace chimera {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols)
      : rows_(rows), cols_(cols),
        v_(detail::arena_acquire(static_cast<std::size_t>(rows) * cols)) {
    CHIMERA_CHECK(rows >= 0 && cols >= 0);
    v_.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
  }
  /// 1×n tensor initialized from `src` in a single pass (no zero-fill before
  /// the copy) — the staging constructor of the message-passing hot path.
  Tensor(const float* src, std::size_t n)
      : rows_(1), cols_(static_cast<int>(n)), v_(detail::arena_acquire(n)) {
    CHIMERA_CHECK(n <= static_cast<std::size_t>(INT_MAX));
    v_.assign(src, src + n);
  }

  Tensor(const Tensor& o)
      : rows_(o.rows_), cols_(o.cols_), v_(detail::arena_acquire(o.v_.size())) {
    v_.assign(o.v_.begin(), o.v_.end());
  }
  Tensor& operator=(const Tensor& o) {
    if (this != &o) {
      if (v_.capacity() < o.v_.size()) {
        detail::arena_release(std::move(v_));
        v_ = detail::arena_acquire(o.v_.size());
      }
      v_.assign(o.v_.begin(), o.v_.end());
      rows_ = o.rows_;
      cols_ = o.cols_;
    }
    return *this;
  }
  Tensor(Tensor&& o) noexcept
      : rows_(o.rows_), cols_(o.cols_), v_(std::move(o.v_)) {
    o.rows_ = o.cols_ = 0;
  }
  Tensor& operator=(Tensor&& o) noexcept {
    if (this != &o) {
      detail::arena_release(std::move(v_));
      v_ = std::move(o.v_);
      rows_ = o.rows_;
      cols_ = o.cols_;
      o.rows_ = o.cols_ = 0;
    }
    return *this;
  }
  ~Tensor() { detail::arena_release(std::move(v_)); }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t numel() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  float* data() { return v_.data(); }
  const float* data() const { return v_.data(); }
  float& at(int r, int c) { return v_[static_cast<std::size_t>(r) * cols_ + c]; }
  float at(int r, int c) const { return v_[static_cast<std::size_t>(r) * cols_ + c]; }
  float& operator[](std::size_t i) { return v_[i]; }
  float operator[](std::size_t i) const { return v_[i]; }

  void fill(float x) { std::fill(v_.begin(), v_.end(), x); }
  void zero() { fill(0.0f); }

  /// Re-shapes in place, reusing the existing storage when its capacity
  /// allows, and leaves the contents unspecified — the workspace primitive
  /// of the zero-realloc hot path, only for outputs the next kernel
  /// overwrites in full (gemm with accumulate=false zeroes first,
  /// layernorm/softmax write every element).
  void reshape(int rows, int cols) {
    CHIMERA_CHECK(rows >= 0 && cols >= 0);
    const std::size_t n = static_cast<std::size_t>(rows) * cols;
    if (v_.capacity() < n) {
      detail::arena_release(std::move(v_));
      v_ = detail::arena_acquire(n);
    }
    v_.resize(n);
    rows_ = rows;
    cols_ = cols;
  }

  /// Gaussian init with the given stddev (deterministic given the rng).
  void randn(Rng& rng, float stddev) {
    for (auto& x : v_) x = static_cast<float>(rng.normal()) * stddev;
  }

  /// this += other (shapes must match).
  void add(const Tensor& other) {
    CHIMERA_CHECK(numel() == other.numel());
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += other.v_[i];
  }
  /// this += scale · other.
  void axpy(float scale, const Tensor& other) {
    CHIMERA_CHECK(numel() == other.numel());
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += scale * other.v_[i];
  }
  void scale(float s) {
    for (auto& x : v_) x *= s;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  detail::FloatBuffer v_;
};

}  // namespace chimera
