// WeightStore: versioned weights behind one interface.
//
// The pipeline schemes differ in *which weight version* a compute op sees:
//   kDirect         synchronous schemes — the live weights, no versions.
//   kStashed        PipeDream weight stashing — the forward of micro-batch m
//                   snapshots the weights; its backward runs against that
//                   snapshot while the live weights keep advancing.
//   kDoubleBuffered PipeDream-2BW — iteration k computes on the one-step-
//                   stale version w_{k−1} while updates apply to the newest.
//
// Executors call the acquire/begin/end hooks at the plan's stash events and
// never branch on the scheme themselves; under kDirect every hook is a
// no-op, so synchronous schemes pay nothing.
//
// Thread-safety: entries are registered up front (register_replica), one per
// replica; worker threads then only touch the entries of replicas they own,
// so no locking is needed.
#pragma once

#include <map>
#include <vector>

#include "core/schedule.h"
#include "runtime/worker_state.h"

namespace chimera::rt {

class WeightStore {
 public:
  enum class Policy { kDirect, kStashed, kDoubleBuffered };

  static Policy policy_for(Scheme scheme);

  explicit WeightStore(Policy policy) : policy_(policy) {}

  Policy policy() const { return policy_; }

  /// Pre-creates the version entry for `r` (must be called for every replica
  /// before the first iteration is dispatched to the worker threads).
  void register_replica(const Replica& r);

  // --- kStashed hooks (no-ops otherwise) --------------------------------

  /// Forward of micro-batch `micro` starts: snapshot the weights it uses.
  void acquire(Replica& r, int micro);

  /// Backward of `micro` starts: swap the stashed version in, remembering
  /// the live weights.
  void begin_backward(Replica& r, int micro);

  /// Backward of `micro` finished (gradients are final): swap the live
  /// weights back and drop the stash — the update applies to the latest.
  void end_backward(Replica& r, int micro);

  /// Stashed versions currently held, counting the live weights as one.
  int versions(const Replica& r) const;

  // --- kDoubleBuffered hooks (no-ops otherwise) -------------------------

  /// Seed the double buffer with the current weights if not yet initialized
  /// (the module then holds w_{t−1}, `latest` holds w_t; both start at w_0).
  void init_double_buffer(Replica& r);

  /// Applies one optimizer step to the *newest* version using the gradients
  /// currently on the module (computed at the stale version), then shifts
  /// the buffer: w_{t+1} = step(w_t), and the module is left holding w_t for
  /// the next iteration's compute.
  void step_double_buffered(Replica& r, double lr_mult);

 private:
  struct Versions {
    std::map<int, std::vector<float>> stash;  ///< kStashed: micro → weights
    std::vector<float> live;                  ///< kStashed: weights during swap
    std::vector<float> latest;                ///< kDoubleBuffered: newest w_t
  };

  Policy policy_;
  std::map<const Replica*, Versions> state_;
};

}  // namespace chimera::rt
