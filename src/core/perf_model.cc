#include "core/perf_model.h"

#include <algorithm>

#include "core/execution_plan.h"
#include "core/memory_model.h"
#include "core/partition.h"
#include "core/schedule_analysis.h"

namespace chimera {

PerfBreakdown PerfModel::breakdown(const ExecConfig& cfg) const {
  PerfBreakdown out;
  out.recompute = resolve_recompute(cfg, model_, machine_);

  const Partition part = plan_partition(model_, cfg);
  const double eff = machine_.effective_flops() *
                     machine_.micro_batch_saturation(cfg.B, model_.seq);
  out.Ft = part.max_stage_fwd_flops(cfg.B) / eff;
  out.Bt = (out.recompute ? 3.0 : 2.0) * out.Ft;
  out.p2p = machine_.p2p_seconds(model_.boundary_bytes(cfg.B));

  // --- asynchronous schemes: bubble-free steady state -------------------
  if (cfg.scheme == Scheme::kPipeDream) {
    // Weights are updated (and with W > 1, gradients synchronized) after
    // every micro-batch backward; B̂ is limited to B·W.
    const double ar = machine_.allreduce_seconds(
        cfg.W, 4.0 * static_cast<double>(part.max_stage_params()));
    out.N = 1;
    out.total = out.Ft + out.Bt + ar;
    out.throughput = static_cast<double>(cfg.B) * cfg.W / out.total;
    out.compute_time = out.Ft + out.Bt;
    out.ar_unoverlapped = ar;
    return out;
  }
  out.N = cfg.num_micro();
  if (cfg.scheme == Scheme::kPipeDream2BW) {
    // 1F1B without flushes: the gradient allreduce of one accumulation
    // window overlaps the next window's compute; only the excess shows.
    const double compute = out.N * (out.Ft + out.Bt);
    const double ar = machine_.allreduce_seconds(
        cfg.W, 4.0 * static_cast<double>(part.max_stage_params()));
    out.compute_time = compute;
    out.total = std::max(compute, ar);
    out.ar_unoverlapped = std::max(0.0, ar - compute);
    out.throughput = static_cast<double>(cfg.minibatch) / out.total;
    return out;
  }

  // --- synchronous schemes: dependency replay of the real schedule ------
  const PipelineSchedule sched = build_schedule(cfg.scheme, cfg.schedule_config());
  const ExecutionPlan plan(sched);  // one lowering, replayed with many costs

  // Planned stages are not equal-cost: bill the replay per stage, exactly
  // the durations the simulator's contended replay charges.
  ReplayCosts costs;
  costs.forward_by_stage.resize(cfg.D);
  costs.backward_by_stage.resize(cfg.D);
  for (int st = 0; st < cfg.D; ++st) {
    const double f = part.stage_fwd_flops(st, cfg.B) / eff;
    costs.forward_by_stage[st] = f;
    costs.backward_by_stage[st] = 2.0 * f;
  }
  costs.recompute = out.recompute;
  costs.p2p = out.p2p;

  const double base = replay(plan, costs).compute_makespan;
  out.compute_time = base;

  // Cf/Cb: derivative of the *uniform-cost* makespan w.r.t. Ft and Bt
  // (piecewise linear in both, so a small forward difference recovers the
  // integer critical-path counts of Fig. 6, e.g. Cf=6, Cb=10 for D=N=6).
  {
    ReplayCosts c0;
    c0.forward = out.Ft;
    c0.backward = 2.0 * out.Ft;
    c0.recompute = out.recompute;
    c0.p2p = 0.0;
    const double m0 = replay(plan, c0).compute_makespan;
    const double eps = 1e-7;
    ReplayCosts cf = c0;
    cf.forward = out.Ft * (1.0 + eps);
    // With recomputation every backward also pays one forward; hold the
    // backward cost fixed so the derivative isolates the forward count.
    if (c0.recompute) cf.backward = c0.backward - out.Ft * eps;
    out.Cf = (replay(plan, cf).compute_makespan - m0) / (out.Ft * eps);
    ReplayCosts cb = c0;
    cb.backward = c0.backward * (1.0 + eps);
    out.Cb = (replay(plan, cb).compute_makespan - m0) / (c0.backward * eps);
  }

  // Gradient synchronization with free-region overlap (Fig. 6).
  const int replicas = cfg.allreduce_replicas(sched.num_pipes);
  const PipelineSchedule synced = with_gradient_sync(sched, cfg.sync);
  ReplayCosts sync_costs = costs;
  sync_costs.allreduce_by_stage.resize(cfg.D);
  for (int st = 0; st < cfg.D; ++st)
    sync_costs.allreduce_by_stage[st] = machine_.allreduce_seconds(
        replicas, 4.0 * static_cast<double>(part.stage_params(st)));
  const double with_sync = replay(synced, sync_costs).makespan;

  out.ar_unoverlapped = std::max(0.0, with_sync - base);
  out.total = with_sync;
  out.throughput = static_cast<double>(cfg.minibatch) / out.total;
  return out;
}

}  // namespace chimera
