#include "core/memory_model.h"

#include <algorithm>

#include "core/partition.h"
#include "core/schedule_analysis.h"

namespace chimera {

double MemoryReport::peak_bytes() const {
  double m = 0.0;
  for (const auto& w : workers) m = std::max(m, w.total());
  return m;
}

double MemoryReport::min_bytes() const {
  if (workers.empty()) return 0.0;
  double m = workers[0].total();
  for (const auto& w : workers) m = std::min(m, w.total());
  return m;
}

MemoryReport memory_model(const ExecConfig& cfg, const ModelSpec& model,
                          const MachineSpec& machine, bool recompute) {
  const PipelineSchedule sched = build_schedule(cfg.scheme, cfg.schedule_config());
  const Partition part =
      plan_partition(model, cfg.D, cfg.partition, &sched, cfg.B);
  const std::vector<int> inflight = max_inflight_micros(sched);

  MemoryReport report;
  report.recompute = recompute;
  report.workers.resize(cfg.D);

  for (int w = 0; w < cfg.D; ++w) {
    WorkerMemory& mem = report.workers[w];

    // PipeDream never flushes: in steady state worker w (hosting stage w)
    // keeps D−w micro-batches in flight across iteration boundaries — the
    // paper's [Ma, D·Ma] interval and up-to-D weight versions — even when
    // one logical iteration contributes fewer micro-batches.
    const int steady_inflight =
        cfg.scheme == Scheme::kPipeDream ? cfg.D - w : inflight[w];

    // ---- weights, gradients, optimizer state, stashed versions ----------
    for (auto [pipe, stage] : sched.hosted_stages(w)) {
      (void)pipe;
      const double params = static_cast<double>(part.stage_params(stage));
      mem.weights_bytes += 12.0 * params;  // fp32 weights + grads + momentum
      if (cfg.scheme == Scheme::kPipeDream) {
        // One stashed fp32 weight copy per in-flight micro-batch beyond the
        // live version.
        mem.weights_bytes += 4.0 * params * std::max(0, steady_inflight - 1);
      } else if (cfg.scheme == Scheme::kPipeDream2BW) {
        mem.weights_bytes += 4.0 * params;  // double-buffered weights
      }
    }

    // ---- activations: exact high-water from the op order ----------------
    double live = 0.0;
    double high = 0.0;
    double max_stage_act = 0.0;
    for (const Op& op : sched.worker_ops[w]) {
      if (op.kind == OpKind::kForward) {
        const double per_micro =
            recompute ? model.boundary_bytes(cfg.B)
                      : part.stage_activation_bytes(op.stage, cfg.B);
        live += per_micro * op.chunk;
        high = std::max(high, live);
        if (recompute)
          max_stage_act = std::max(
              max_stage_act, part.stage_activation_bytes(op.stage, cfg.B));
      } else if (op.kind == OpKind::kBackward &&
                 op.half_index + 1 == op.half_count) {
        const double per_micro =
            recompute ? model.boundary_bytes(cfg.B)
                      : part.stage_activation_bytes(op.stage, cfg.B);
        live -= per_micro;
      }
    }
    if (cfg.scheme == Scheme::kPipeDream)
      high = std::max(high,
                      steady_inflight *
                          (recompute ? model.boundary_bytes(cfg.B)
                                     : part.stage_activation_bytes(w, cfg.B)));
    // Recomputation transiently rematerializes one micro-batch of full
    // stage activations during each backward.
    mem.activation_bytes = (high + max_stage_act) * machine.framework_overhead;
  }
  return report;
}

double optimizer_state_bytes(const ExecConfig& cfg, const ModelSpec& model,
                             int state_slots, bool sharded) {
  if (state_slots <= 0) return 0.0;
  const PipelineSchedule sched = build_schedule(cfg.scheme, cfg.schedule_config());
  const Partition part =
      plan_partition(model, cfg.D, cfg.partition, &sched, cfg.B);
  const double shard_group =
      sharded ? static_cast<double>(sched.num_pipes) * cfg.W : 1.0;
  double peak = 0.0;
  for (int w = 0; w < cfg.D; ++w) {
    double bytes = 0.0;
    for (auto [pipe, stage] : sched.hosted_stages(w)) {
      (void)pipe;
      bytes += 4.0 * state_slots *
               static_cast<double>(part.stage_params(stage)) / shard_group;
    }
    peak = std::max(peak, bytes);
  }
  return peak;
}

bool resolve_recompute(const ExecConfig& cfg, const ModelSpec& model,
                       const MachineSpec& machine) {
  switch (cfg.recompute) {
    case Recompute::kOff: return false;
    case Recompute::kOn: return true;
    case Recompute::kAuto:
      return !memory_model(cfg, model, machine, /*recompute=*/false)
                  .fits(machine);
  }
  return false;
}

}  // namespace chimera
