// Per-worker memory model (paper §4.1, Fig. 9, Table 2).
//
// For each worker we account:
//   weights:      12 B/parameter per hosted stage replica (fp32 weights +
//                 gradients + SGD momentum), plus 4 B/parameter for every
//                 extra stashed weight version (PipeDream: one per in-flight
//                 micro-batch; PipeDream-2BW: one double buffer).
//   activations:  exact high-water mark of stashed forward activations,
//                 replayed from the per-worker op order; under activation
//                 recomputation only the stage-boundary tensor is stashed
//                 and one full stage of activations is transiently
//                 rematerialized during backward.
// Activation bytes are scaled by MachineSpec::framework_overhead
// (calibration, DESIGN.md §1).
#pragma once

#include <vector>

#include "core/cost_model.h"
#include "core/exec_config.h"
#include "core/model_spec.h"

namespace chimera {

struct WorkerMemory {
  double weights_bytes = 0.0;
  double activation_bytes = 0.0;
  double total() const { return weights_bytes + activation_bytes; }
};

struct MemoryReport {
  std::vector<WorkerMemory> workers;
  bool recompute = false;

  double peak_bytes() const;
  double min_bytes() const;
  bool fits(const MachineSpec& machine) const {
    return peak_bytes() <= machine.device_mem_bytes;
  }
};

/// Memory consumption of one pipeline-replica group (D workers) under
/// `cfg`. `recompute` overrides cfg.recompute when not kAuto semantics are
/// needed; pass cfg-resolved value.
MemoryReport memory_model(const ExecConfig& cfg, const ModelSpec& model,
                          const MachineSpec& machine, bool recompute);

/// Resolves Recompute::kAuto: returns false if the no-recompute memory fits,
/// true if recomputation is required (and feasible).
bool resolve_recompute(const ExecConfig& cfg, const ModelSpec& model,
                       const MachineSpec& machine);

/// Peak per-worker optimizer-state bytes under `cfg`: `state_slots` fp32
/// values per parameter (optim::state_slots of the update rule; 2 for the
/// Adam family), either replicated on every hosted stage replica or sharded
/// ZeRO-1-style across each stage's replica group of num_pipes·W ranks
/// (paper §2 cites ZeRO as orthogonal — this quantifies the composition:
/// Chimera's 2f weight replicas do NOT multiply the sharded state, because
/// the shard group grows by the same 2f factor).
double optimizer_state_bytes(const ExecConfig& cfg, const ModelSpec& model,
                             int state_slots, bool sharded);

}  // namespace chimera
