#include "runtime/trainer.h"

#include <map>
#include <string>

#include "runtime/grad_sync.h"
#include "runtime/worker_executor.h"

namespace chimera::rt {

Partition runtime_partition(const nn::SmallModelConfig& model, int depth,
                            PartitionPolicy policy,
                            const PipelineSchedule* schedule) {
  // One dispatcher for everyone: the runtime plans through the same
  // core planner the analytic models and the simulator use, so the split
  // it trains is the split they priced.
  return plan_partition(model.spec(), depth, policy, schedule);
}

PipelineTrainer::PipelineTrainer(const nn::SmallModelConfig& model,
                                 Scheme scheme, const ScheduleConfig& sched_cfg,
                                 const TrainerOptions& opts)
    : model_(model), scheme_(scheme), opts_(opts) {
  CHIMERA_CHECK_MSG(opts.data_parallel >= 1,
                    "data_parallel must be >= 1, got " << opts.data_parallel);
  PipelineSchedule sched = build_schedule(scheme, sched_cfg);
  CHIMERA_CHECK_MSG(opts.optimizer.clip_norm <= 0.0f || sched.synchronous,
                    "global-norm clipping requires synchronous gradients");
  CHIMERA_CHECK_MSG(!opts.zero_shard || (sched.synchronous &&
                                         opts.optimizer.rule != optim::Rule::kLamb),
                    "ZeRO-1 sharding requires a synchronous scheme and a "
                    "shardable update rule");
  CHIMERA_CHECK_MSG(!opts.zero_shard ||
                        opts.compression == comm::GradCompression::kNone,
                    "gradient compression and ZeRO-1 sharding are exclusive");
  CHIMERA_CHECK_MSG(opts.compression == comm::GradCompression::kNone ||
                        sched.synchronous,
                    "gradient compression targets the synchronous allreduce");
  if (sched.synchronous) {
    CHIMERA_CHECK_MSG(opts.sync != SyncPolicy::kNone ||
                          (opts.data_parallel == 1 && sched.num_pipes == 1),
                      "synchronous schemes with replicas require gradient sync");
    sched = with_gradient_sync(
        sched, opts.sync == SyncPolicy::kNone ? SyncPolicy::kAtEnd : opts.sync);
  }
  store_ = std::make_unique<WeightStore>(WeightStore::policy_for(scheme));

  const int W = opts.data_parallel;
  const int D = sched.depth;
  Partition partition = runtime_partition(model_, D, opts.partition, &sched);
  dep_ = std::make_unique<TrainDeployment>(
      std::move(sched), std::move(partition), W, opts,
      [&](int, int pipe, int stage, StageRange layers) {
        return Replica(model_, pipe, stage, D, layers, opts.recompute,
                       opts.optimizer);
      });
  for (int rank = 0; rank < W * D; ++rank)
    for (const auto& r : dep_->units(rank)) store_->register_replica(*r);
  workers_.resize(static_cast<std::size_t>(W) * D);
  reduce_bufs_.resize(D);
}

PipelineTrainer::~PipelineTrainer() = default;

const Replica& PipelineTrainer::find_replica(int group, int pipe,
                                             int stage) const {
  const int D = schedule().depth;
  return dep_->unit(group * D + schedule().worker_of(pipe, stage), pipe,
                    stage);
}

void PipelineTrainer::run_worker(int group, int w, const nn::MicroBatch& batch,
                                 int B, std::vector<double>& losses) {
  WorkerExecutor exec(*dep_, opts_, *store_,
                      workers_[group * schedule().depth + w], group, w,
                      iteration_);
  exec.run(batch, B, losses);
}

void PipelineTrainer::reduce_2bw_worker(int rank) {
  // 2BW is asynchronous: no allreduce ops exist in the schedule. Reduce the
  // accumulation-window gradient across the W replicas (computed at the
  // stale version w_{t-1}) into an explicit per-stage buffer, then let the
  // store apply it to the newest version and shift the double buffer:
  // w_{t+1} = w_t − lr·g(w_{t-1}). One pool task per stage-hosting worker:
  // group 0's ranks each reduce their worker's stages, the rest idle.
  const int W = opts_.data_parallel;
  const int D = schedule().depth;
  if (rank >= D) return;
  const int w = rank;
  const double mult = opts_.lr_schedule.multiplier(iteration_);
  const std::size_t hosted = dep_->units(w).size();
  reduce_bufs_[w].resize(hosted);
  for (std::size_t ri = 0; ri < hosted; ++ri) {
    auto params0 = dep_->units(w)[ri]->module.params();
    std::vector<float>& buf = reduce_bufs_[w][ri];  // pre-sized after iter 0
    buf.resize(flat_grad_size(params0));
    copy_grads_flat(params0, buf.data());
    // Same summation order as a serial in-place reduction: groups ascending.
    for (int g = 1; g < W; ++g)
      add_grads_flat(dep_->units(g * D + w)[ri]->module.params(), buf.data());
    for (int g = 0; g < W; ++g) {
      Replica& r = *dep_->units(g * D + w)[ri];
      load_grads_flat(r.module.params(), buf.data());
      store_->step_double_buffered(r, mult);
    }
  }
}

IterationResult PipelineTrainer::train_iteration(const nn::MicroBatch& batch) {
  const int W = opts_.data_parallel;
  const int N = schedule().num_micro;
  CHIMERA_CHECK_MSG(batch.batch % (N * W) == 0,
                    "batch size " << batch.batch << " not divisible by N*W");
  const int B = batch.batch / (N * W);
  for (int m = 0; m < N; ++m)
    if (plan().micro_is_halved(m))
      CHIMERA_CHECK_MSG(B % 2 == 0, "backward halving needs even micro-batch");

  // PipeDream-2BW: compute this iteration on the 1-step-stale version. The
  // module holds w_{t-1}; the store's double buffer holds w_t.
  for (int rank = 0; rank < dep_->ranks(); ++rank)
    for (const auto& r : dep_->units(rank)) store_->init_double_buffer(*r);

  for (int rank = 0; rank < dep_->ranks(); ++rank)
    for (const auto& r : dep_->units(rank)) r->module.zero_grads();

  std::vector<double> losses(static_cast<std::size_t>(N) * W * 2, 0.0);
  const int D = schedule().depth;
  dep_->run([this, &batch, B, &losses, D](int rank) {
    run_worker(rank / D, rank % D, batch, B, losses);
  });

  if (scheme_ == Scheme::kPipeDream2BW)
    dep_->run([this](int rank) { reduce_2bw_worker(rank); });

  ++iteration_;
  IterationResult out;
  double total = 0.0;
  for (double l : losses) total += l;
  out.loss = total / (static_cast<double>(N) * W);
  return out;
}

std::vector<float> PipelineTrainer::stage_weights(int group, int pipe,
                                                  int stage) const {
  return find_replica(group, pipe, stage).module.save_weights();
}

int PipelineTrainer::weight_versions(int group, int pipe, int stage) const {
  return store_->versions(find_replica(group, pipe, stage));
}

// ------------------------------------------------------------------------
// SequentialTrainer

SequentialTrainer::SequentialTrainer(const nn::SmallModelConfig& model,
                                     const TrainerOptions& opts)
    : model_(model), opts_(opts),
      module_(std::make_unique<nn::StageModule>(model, 0, 1)),
      opt_(std::make_unique<optim::Optimizer>(module_->params(),
                                              opts.optimizer)) {
  set_kernel_policy(opts.kernel);
}

SequentialTrainer::~SequentialTrainer() = default;

IterationResult SequentialTrainer::train_iteration(const nn::MicroBatch& batch,
                                                   int num_micros) {
  CHIMERA_CHECK(batch.batch % num_micros == 0);
  const int B = batch.batch / num_micros;
  module_->zero_grads();
  double total = 0.0;
  for (int m = 0; m < num_micros; ++m) {
    const nn::MicroBatch mb = batch.slice(m * B, B);
    (void)module_->forward(mb, Tensor(), m);
    (void)module_->backward(mb, Tensor(), m, 1.0f / num_micros);
    total += module_->last_loss();
  }
  const float grad_scale =
      optim::clip_scale(opts_.optimizer.clip_norm, opt_->grad_sq_norm());
  opt_->step(opts_.lr_schedule.multiplier(iteration_++), grad_scale);
  IterationResult out;
  out.loss = total / num_micros;
  return out;
}

std::vector<float> SequentialTrainer::weights() const {
  return module_->save_weights();
}

std::vector<float> SequentialTrainer::stage_weights(int stage, int depth) const {
  // Match parameters by name against a module shaped like the pipeline's
  // replica of `stage`: plan the same policy the pipeline trainer plans.
  // kBalancedMemory's plan depends on the schedule, which this trainer
  // does not have — refuse rather than silently shape a different split.
  CHIMERA_CHECK_MSG(opts_.partition != PartitionPolicy::kBalancedMemory,
                    "kBalancedMemory plans are schedule-dependent; compare "
                    "against PipelineTrainer::partition() ranges instead");
  const Partition part = runtime_partition(model_, depth, opts_.partition);
  nn::StageModule shape(model_, stage, depth, part.range(stage));
  const nn::StageModule& mine = *module_;
  std::map<std::string, const nn::Param*> by_name;
  for (const nn::Param* p : mine.params()) by_name[p->name] = p;
  std::vector<float> out;
  for (nn::Param* p : shape.params()) {
    auto it = by_name.find(p->name);
    CHIMERA_CHECK_MSG(it != by_name.end(), "no parameter named " << p->name);
    const Tensor& v = it->second->value;
    out.insert(out.end(), v.data(), v.data() + v.numel());
  }
  return out;
}

}  // namespace chimera::rt
