#include "sim/simulate.h"

#include <algorithm>

#include "core/partition.h"
#include "obs/report.h"

namespace chimera::sim {

SimResult simulate(const ExecConfig& cfg, const ModelSpec& model,
                   const MachineSpec& machine, const SimOptions& opts) {
  SimResult out;

  // ---- memory feasibility + recompute resolution -------------------------
  const bool recompute = resolve_recompute(cfg, model, machine);
  out.memory = memory_model(cfg, model, machine, recompute);
  out.recompute = recompute;
  if (!out.memory.fits(machine)) {
    out.note = "OOM";
    return out;
  }
  out.feasible = true;
  if (recompute) out.note = "R";

  const Partition part = plan_partition(model, cfg);
  const double eff =
      machine.effective_flops() * machine.micro_batch_saturation(cfg.B, model.seq);
  const double bf = recompute ? 3.0 : 2.0;

  // ---- asynchronous schemes: bubble-free steady state --------------------
  if (cfg.scheme == Scheme::kPipeDream) {
    const double ft = part.max_stage_fwd_flops(cfg.B) / eff;
    const double ar = machine.allreduce_seconds(
        cfg.W, 4.0 * static_cast<double>(part.max_stage_params()));
    out.iteration_seconds = ft * (1.0 + bf) + ar;  // one update per micro
    out.throughput = static_cast<double>(cfg.B) * cfg.W / out.iteration_seconds;
    out.bubble_ratio = 0.0;
    return out;
  }
  if (cfg.scheme == Scheme::kPipeDream2BW) {
    // 2BW's two-version scheme requires accumulating over at least D
    // micro-batches (paper section 2: "By using gradient accumulation
    // (N>=D)").
    if (cfg.num_micro() < cfg.D) {
      out.feasible = false;
      out.note = "N<D";
      return out;
    }
    const double ft = part.max_stage_fwd_flops(cfg.B) / eff;
    const double compute = cfg.num_micro() * ft * (1.0 + bf);
    const double ar = machine.allreduce_seconds(
        cfg.W, 4.0 * static_cast<double>(part.max_stage_params()));
    out.iteration_seconds = std::max(compute, ar);
    out.throughput = static_cast<double>(cfg.minibatch) / out.iteration_seconds;
    out.bubble_ratio = 0.0;
    return out;
  }

  // ---- synchronous schemes: replay on the contended machine -------------
  PipelineSchedule sched = build_schedule(cfg.scheme, cfg.schedule_config());
  sched = with_gradient_sync(sched, cfg.sync);

  ReplayCosts costs;
  costs.forward_by_stage.resize(cfg.D);
  costs.backward_by_stage.resize(cfg.D);
  for (int st = 0; st < cfg.D; ++st) {
    const double f = part.stage_fwd_flops(st, cfg.B) / eff;
    costs.forward_by_stage[st] = f;
    costs.backward_by_stage[st] = f * bf;
  }
  // §3.5 method costs: halved backwards lose kernel saturation, doubled
  // forwards gain it.
  const double sat_b = machine.micro_batch_saturation(cfg.B, model.seq);
  costs.half_backward_scale =
      sat_b / machine.micro_batch_saturation(cfg.B / 2.0, model.seq);
  costs.double_forward_scale =
      sat_b / machine.micro_batch_saturation(2.0 * cfg.B, model.seq);
  costs.network = ReplayCosts::Network{
      .alpha = machine.alpha,
      .beta = machine.beta,
      .boundary_bytes = model.boundary_bytes(cfg.B),
      .node_size = machine.node_size,
      .intra_alpha = machine.intra_alpha,
      .intra_beta = machine.intra_beta};
  const int replicas = cfg.allreduce_replicas(sched.num_pipes);
  costs.allreduce_by_stage.resize(cfg.D);
  for (int st = 0; st < cfg.D; ++st)
    costs.allreduce_by_stage[st] = machine.allreduce_seconds(
        replicas, 4.0 * static_cast<double>(part.stage_params(st)));
  costs.begin_cpu_fraction = machine.nonblocking_cpu_fraction;
  costs.jitter = opts.jitter;
  costs.seed = opts.seed;

  const ReplayResult r = replay(sched, costs);
  out.iteration_seconds = r.makespan;
  out.bubble_ratio = r.bubble_ratio();
  out.throughput = static_cast<double>(cfg.minibatch) / out.iteration_seconds;
  return out;
}

double simulated_throughput(const ExecConfig& cfg, const ModelSpec& model,
                            const MachineSpec& machine) {
  const SimResult r = simulate(cfg, model, machine);
  return r.feasible ? r.throughput : 0.0;
}

obs::TraceDoc engine_trace(const PipelineSchedule& schedule,
                           const ReplayResult& result, obs::TraceMeta meta) {
  CHIMERA_CHECK(result.times.size() == schedule.worker_ops.size());
  obs::TraceDoc doc;
  doc.meta = std::move(meta);
  for (int w = 0; w < schedule.depth; ++w) {
    const std::vector<Op>& ops = schedule.worker_ops[w];
    CHIMERA_CHECK(result.times[w].size() == ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
      doc.events.push_back({.kind = obs::op_event_kind(ops[i].kind),
                            .worker = w,
                            .micro = ops[i].micro,
                            .stage = ops[i].stage,
                            .pipe = ops[i].pipe,
                            .op_index = static_cast<int>(i),
                            .t0_us = result.times[w][i].start * 1e6,
                            .t1_us = result.times[w][i].end * 1e6,
                            .seq = i});
  }
  return doc;
}

}  // namespace chimera::sim
