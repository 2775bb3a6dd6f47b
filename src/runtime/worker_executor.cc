#include "runtime/worker_executor.h"

#include "obs/report.h"
#include "obs/trace.h"
#include "runtime/grad_sync.h"

namespace chimera::rt {

WorkerExecutor::WorkerExecutor(TrainDeployment& dep, const TrainerOptions& opts,
                               WeightStore& store, WorkerState& me, int group,
                               int worker, long iteration)
    : dep_(dep), opts_(opts), store_(store), me_(me), group_(group),
      worker_(worker), iteration_(iteration) {}

void WorkerExecutor::run(const nn::MicroBatch& batch, int B,
                         std::vector<double>& losses) {
  const PipelineSchedule& s = dep_.schedule();
  const int D = s.depth;
  const int N = s.num_micro;
  const int rank = group_ * D + worker_;
  const bool per_micro_updates =
      store_.policy() == WeightStore::Policy::kStashed;

  GradSyncEngine sync(dep_, opts_, me_, rank, iteration_);

  // Slice of the mini-batch for (micro m, half h of `halves`).
  auto micro_slice = [&](int m, int h, int halves) {
    const int rows = B / halves;
    return batch.slice((group_ * N + m) * B + h * rows, rows);
  };

  const float sync_scale =
      1.0f / (static_cast<float>(N) * opts_.data_parallel);

  const std::vector<PlannedOp>& wplan = dep_.plan().worker_plan(worker_);
  for (std::size_t opi = 0; opi < wplan.size(); ++opi) {
    const PlannedOp& pop = wplan[opi];
    // One span per executed plan op, keyed (plan worker, op index) so
    // trace_report can replay the trace against the plan 1:1 — and so
    // armed plan times can stamp it straight from a ReplayResult.
    obs::OpSpan op_span(obs::op_event_kind(pop.op.kind), rank, worker_,
                        static_cast<int>(opi), pop.op.micro, pop.op.stage,
                        pop.op.pipe);
    switch (pop.op.kind) {
      case OpKind::kForward: {
        Replica& r = dep_.unit(rank, pop.op.pipe, pop.op.stage);
        for (const MicroUnit& u : pop.units) {
          if (u.acquires_stash) {
            store_.acquire(r, u.micro);
            obs::instant(obs::EventKind::kStashAcquire, rank, u.micro,
                         pop.op.stage, pop.op.pipe, u.stash_key);
          }
          Tensor x;
          if (u.recv_from >= 0) x = dep_.recv(rank, pop.op, u);
          Tensor y = r.module.forward(micro_slice(u.micro, u.half, u.halves),
                                      x, u.stash_key);
          if (u.send_to >= 0) dep_.send(rank, pop.op, u, std::move(y));
        }
        break;
      }
      case OpKind::kBackward: {
        Replica& r = dep_.unit(rank, pop.op.pipe, pop.op.stage);
        const MicroUnit& u = pop.units.front();
        Tensor grad;
        if (u.recv_from >= 0) grad = dep_.recv(rank, pop.op, u);
        // Weight stashing: backward runs against the version the forward of
        // this micro-batch used.
        store_.begin_backward(r, u.micro);
        // PipeDream updates per micro-batch (B̂ = B·W); everything else
        // accumulates the mean over the full mini-batch B·N·W.
        const float scale = per_micro_updates
                                ? 1.0f / (opts_.data_parallel * u.halves)
                                : sync_scale / u.halves;
        Tensor dx = r.module.backward(micro_slice(u.micro, u.half, u.halves),
                                      grad, u.stash_key, scale);
        if (pop.op.stage == D - 1)
          losses[static_cast<std::size_t>(group_ * N + u.micro) * 2 + u.half] =
              r.module.last_loss() / u.halves;
        if (u.send_to >= 0) dep_.send(rank, pop.op, u, std::move(dx));
        if (u.releases_stash)
          obs::instant(obs::EventKind::kStashRelease, rank, u.micro,
                       pop.op.stage, pop.op.pipe, u.stash_key);
        if (per_micro_updates) {
          // Per-micro-batch update: sync gradients across the W replicas of
          // this stage, then apply to the *latest* weights.
          sync.sync_micro(r);
          store_.end_backward(r, u.micro);
          r.opt.step(opts_.lr_schedule.multiplier(iteration_));
          r.module.zero_grads();
        }
        break;
      }
      case OpKind::kAllReduceBegin:
        sync.begin(pop.op.stage);
        break;
      case OpKind::kAllReduceWait:
        sync.wait(pop.op.stage);
        break;
    }
  }

  // Flush: the synchronous optimizer step (identical on every replica).
  if (s.synchronous)
    sync.finalize(opts_.lr_schedule.multiplier(iteration_));
}

}  // namespace chimera::rt
