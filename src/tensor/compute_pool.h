// ComputePool: the process-wide intra-op worker pool the dense kernels
// shard their row loops onto (DESIGN.md §2 item 17).
//
// Determinism contract: a kernel decides its shard split from the problem
// *shape only* (fixed grain constants, never the thread count), and every
// output element is produced by exactly one shard with the same per-element
// accumulation order as the serial loops. Shards therefore commute: whether
// zero, one or many helper threads execute them — and in whichever order —
// the results are bitwise identical to the serial path. Cross-shard
// reductions are not expressed here at all; kernels that need them write
// per-shard partials and combine them in shard order on the calling thread.
//
// The caller always participates: parallel_for runs shards on the calling
// thread too, so helpers == 0 degenerates to an inline serial loop (that
// *is* the serial path the parity tests compare against). Helper sizing is
// the trainer's job: W·D pipeline workers plus `helpers` intra-op threads
// must not oversubscribe hardware_concurrency (see
// rt::PipelineTrainer's sizing rule).
#pragma once

#include <algorithm>
#include <cstddef>

namespace chimera {

class ComputePool {
 public:
  /// The process-wide pool instance every kernel shards onto.
  static ComputePool& instance();

  /// Resizes the helper-thread set (0 = all kernels run inline on their
  /// calling thread). Safe against concurrent parallel_for calls: in-flight
  /// jobs complete on their callers (a caller claims every unfinished shard
  /// itself when the helpers drain), and results are unchanged either way.
  void set_helpers(int helpers);
  int helpers() const;

  /// Runs fn(shard) for every shard in [0, shards), blocking until all have
  /// finished. Shards may run concurrently in any order on the caller and
  /// the helper threads; fn's writes must be disjoint across shards. If a
  /// shard throws, the remaining shards still run and the first exception
  /// is rethrown here once the job has fully drained.
  template <typename F>
  void parallel_for(int shards, F&& fn) {
    if (shards <= 0) return;
    run(shards, [](void* ctx, int shard) { (*static_cast<F*>(ctx))(shard); },
        &fn);
  }

 private:
  ComputePool();
  ~ComputePool();
  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  struct Impl;
  void run(int shards, void (*fn)(void*, int), void* ctx);
  Impl* impl_;
};

/// Contiguous half-open bound of `shard` when `total` units are split into
/// `shards` near-even pieces (the canonical fixed split the kernels use).
inline int shard_begin(int total, int shards, int shard) {
  return static_cast<int>(static_cast<long long>(total) * shard / shards);
}

/// Shape-only shard count: one shard per `grain` units of work, capped by a
/// fixed constant so the split never depends on the machine. `total_units`
/// is the outer-loop extent (the split granularity), `work_per_unit` the
/// cost of one unit in flops-ish terms.
int plan_shards(int total_units, std::size_t work_per_unit,
                std::size_t grain = 1 << 16);

/// Runs range(lo, hi) on each shard of [0, total) that
/// plan_shards(total, work_per_unit) and shard_begin fix — the one split
/// every kernel's outer loop uses.
template <typename F>
void for_shards(int total, std::size_t work_per_unit, const F& range) {
  const int shards = plan_shards(total, work_per_unit);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    range(shard_begin(total, shards, s), shard_begin(total, shards, s + 1));
  });
}

/// for_shards over rows, running row(r) for each.
template <typename F>
void for_rows(int rows, std::size_t work_per_row, const F& row) {
  for_shards(rows, work_per_row, [&](int r0, int r1) {
    for (int r = r0; r < r1; ++r) row(r);
  });
}

/// The elementwise ops' split: for_shards over [0, n) in whole 256-element
/// units, running span(i, len) on each shard's non-empty element range.
template <typename F>
void for_units(std::size_t n, const F& span) {
  const auto at = [n](int unit) {
    return std::min(n, static_cast<std::size_t>(unit) * 256);
  };
  for_shards(static_cast<int>(n / 256 + 1), 256 * 8, [&](int u0, int u1) {
    if (at(u0) < at(u1)) span(at(u0), static_cast<int>(at(u1) - at(u0)));
  });
}

}  // namespace chimera
