// High-level simulation entry point: resolves an ExecConfig against a model
// and machine, replays the plan on a contended machine (synchronous schemes;
// ReplayCosts::network set: serializing α–β out-links, collectives that
// queue on each participant's port, optional deterministic compute jitter)
// or evaluates the bubble-free steady-state model (asynchronous schemes),
// and reports the metrics the paper's evaluation plots: throughput, bubble
// ratio, per-worker memory. It is the "measurement" side of Fig. 13.
#pragma once

#include <string>

#include "core/cost_model.h"
#include "core/exec_config.h"
#include "core/memory_model.h"
#include "core/model_spec.h"
#include "core/schedule_analysis.h"
#include "obs/trace_json.h"

namespace chimera::sim {

struct SimOptions {
  double jitter = 0.0;  ///< compute-duration noise (stddev fraction)
  std::uint64_t seed = 0x5eed;
};

struct SimResult {
  double iteration_seconds = 0.0;
  double throughput = 0.0;   ///< sequences/s
  double bubble_ratio = 0.0;
  bool recompute = false;
  bool feasible = false;     ///< false: OOM even with recomputation
  std::string note;
  MemoryReport memory;
};

/// Simulates one training iteration of `cfg`. For PipeDream/PipeDream-2BW
/// (no pipeline flush) the steady state is evaluated analytically: the
/// pipeline is bubble-free and the relevant costs are the per-update
/// (PipeDream) or per-accumulation (2BW) gradient synchronizations —
/// see DESIGN.md §2 item 14.
SimResult simulate(const ExecConfig& cfg, const ModelSpec& model,
                   const MachineSpec& machine, const SimOptions& opts = {});

/// Convenience evaluator for config_search.
double simulated_throughput(const ExecConfig& cfg, const ModelSpec& model,
                            const MachineSpec& machine);

/// A replay as the obs trace a measured run records, so trace_report reads
/// both: one plan-op span per op on worker w, lane 0, seq = op_index = its
/// position in w's program, times in µs. `meta` names the deployment.
obs::TraceDoc engine_trace(const PipelineSchedule& schedule,
                           const ReplayResult& result, obs::TraceMeta meta);

}  // namespace chimera::sim
