#include "runtime/grad_sync.h"

#include <algorithm>
#include <cstring>

#include "comm/compression.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "tensor/kernels.h"

namespace chimera::rt {

void add_grads(const std::vector<nn::Param*>& to,
               const std::vector<nn::Param*>& from) {
  CHIMERA_CHECK(to.size() == from.size());
  for (std::size_t i = 0; i < to.size(); ++i) {
    CHIMERA_CHECK(to[i]->grad.numel() == from[i]->grad.numel());
    vector_add(to[i]->grad.data(), from[i]->grad.data(), to[i]->grad.numel());
  }
}

void copy_grads(const std::vector<nn::Param*>& to,
                const std::vector<nn::Param*>& from) {
  CHIMERA_CHECK(to.size() == from.size());
  for (std::size_t i = 0; i < to.size(); ++i) to[i]->grad = from[i]->grad;
}

namespace {

/// The gradients (or values) of `params`, in order, as one flat view.
comm::FlatView flat_view(const std::vector<nn::Param*>& params, bool values) {
  comm::FlatView v;
  for (nn::Param* p : params) {
    Tensor& t = values ? p->value : p->grad;
    v.append(t.data(), t.numel());
  }
  return v;
}

}  // namespace

GradSyncEngine::GradSyncEngine(TrainDeployment& dep, const TrainerOptions& opts,
                               WorkerState& me, int rank, long iteration)
    : plan_(dep.plan()), opts_(opts), comm_(dep.comm(rank)),
      replicas_(dep.units(rank)), me_(me), rank_(rank),
      iteration_(iteration),
      shardable_(opts.compression == comm::GradCompression::kNone &&
                 opts.allreduce == comm::AllreduceAlgo::kRing &&
                 opts.optimizer.rule != optim::Rule::kLamb) {}

GradSyncEngine::~GradSyncEngine() = default;

void GradSyncEngine::combine_local(int stage, StageSync& sync) {
  // All local replicas of `stage`, in hosting order.
  for (const auto& r : replicas_)
    if (r->stage == stage) sync.local.push_back(r.get());
  CHIMERA_CHECK_MSG(!sync.local.empty(), "sync for unhosted stage " << stage);
  const std::vector<nn::Param*> first = sync.local[0]->module.params();
  // GEMS with odd depth can host the same stage twice on one worker;
  // their contributions combine locally before the collective.
  for (std::size_t li = 1; li < sync.local.size(); ++li)
    add_grads(first, sync.local[li]->module.params());
  sync.grads = flat_view(first, /*values=*/false);
  // The stage's replica group: its workers in every data-parallel group.
  const int D = plan_.schedule().depth;
  for (int g = 0; g < opts_.data_parallel; ++g)
    for (int w : plan_.allreduce_group(stage)) sync.ranks.push_back(g * D + w);
  std::sort(sync.ranks.begin(), sync.ranks.end());
  sync.sharded = shardable_ && sync.ranks.size() > 1;
  const auto me = std::find(sync.ranks.begin(), sync.ranks.end(), rank_);
  CHIMERA_CHECK_MSG(me != sync.ranks.end(), "rank not in stage replica group");
  const int idx = static_cast<int>(me - sync.ranks.begin());
  const int g = static_cast<int>(sync.ranks.size());
  sync.lo = comm::segment_begin(sync.grads.size(), g, idx);
  sync.hi = comm::segment_begin(sync.grads.size(), g, idx + 1);
}

void GradSyncEngine::exchange_compressed(int stage, StageSync& sync) {
  // The codecs work on one contiguous vector: pack the view around them.
  Tensor flat = sync.grads.pack(0, sync.grads.size());
  if (opts_.compression == comm::GradCompression::kTopK) {
    comm::TopKSparsifier sp(opts_.topk_fraction);
    comm::allreduce_topk(comm_, flat.data(), flat.numel(), sync.ranks, stage,
                         sp, me_.topk_residual[stage]);
  } else {
    comm::Quantizer q(opts_.compression == comm::GradCompression::kInt8 ? 8
                                                                         : 4);
    // Deterministic per (iteration, rank, stage): runs reproduce.
    Rng rng(Rng(0x9bc0ffee ^ static_cast<std::uint64_t>(iteration_))
                .split(static_cast<std::uint64_t>(rank_) * 131 + stage));
    comm::allreduce_quantized(comm_, flat.data(), flat.numel(), sync.ranks,
                              stage, q, rng);
  }
  sync.grads.unpack(0, flat);
}

void GradSyncEngine::begin(int stage) {
  StageSync& sync = syncs_[stage];
  if (sync.local.empty()) combine_local(stage, sync);
  if (!opts_.overlap || opts_.compression != comm::GradCompression::kNone)
    return;
  // Nonblocking launch: the collective progresses while the ops after this
  // one compute (paper §3.2 eager sync); no op before the matching Wait
  // touches this stage's gradients. The request lives in `syncs_` until
  // then.
  sync.request =
      sync.sharded
          ? comm_.ireduce_scatter_segment(sync.grads, sync.ranks, stage,
                                          &sync.own)
          : comm_.iallreduce_sum(sync.grads, sync.ranks, stage,
                                 opts_.allreduce);
}

void GradSyncEngine::wait(int stage) {
  auto it = syncs_.find(stage);
  CHIMERA_CHECK_MSG(it != syncs_.end(),
                    "Wait without Begin for stage " << stage);
  StageSync& sync = it->second;
  if (opts_.compression != comm::GradCompression::kNone)
    exchange_compressed(stage, sync);
  else if (opts_.overlap)
    sync.request.wait();
  else if (sync.sharded)
    sync.own = comm_.reduce_scatter_segment(sync.grads, sync.ranks, stage);
  else
    comm_.allreduce_sum(sync.grads, sync.ranks, stage, opts_.allreduce);
  if (sync.sharded) return;
  const std::vector<nn::Param*> first = sync.local[0]->module.params();
  for (std::size_t li = 1; li < sync.local.size(); ++li)
    copy_grads(sync.local[li]->module.params(), first);
  syncs_.erase(it);
}

void GradSyncEngine::sync_micro(Replica& r) {
  obs::Span span(obs::EventKind::kGradSync, rank_, -1, r.stage, r.pipe);
  const int D = plan_.schedule().depth;
  std::vector<int> ranks;
  for (int g = 0; g < opts_.data_parallel; ++g)
    ranks.push_back(g * D + rank_ % D);
  for (nn::Param* p : r.module.params())
    comm_.allreduce_sum(p->grad.data(), p->grad.numel(), ranks, r.stage,
                        opts_.allreduce);
}

float GradSyncEngine::local_sq_norm() const {
  // A sharded stage's group ranks own disjoint fully-reduced segments, so
  // their segment norms sum to the stage norm with no double counting.
  // After a replicated exchange all num_pipes·W replicas of a stage hold
  // identical gradients: each contributes its norm divided by that count.
  const double replicas_per_stage =
      static_cast<double>(plan_.schedule().num_pipes) * opts_.data_parallel;
  float local = 0.0f;
  for (const auto& r : replicas_)
    if (syncs_.count(r->stage) == 0)
      local += static_cast<float>(r->opt.grad_sq_norm() / replicas_per_stage);
  for (const auto& [stage, sync] : syncs_)
    local += static_cast<float>(
        optim::sq_norm(sync.own.data(), sync.own.numel()));
  return local;
}

void GradSyncEngine::update_segment(int stage, StageSync& sync,
                                    double lr_mult, float grad_scale) {
  // Refresh this rank's segment of the stage's parameters in place; the
  // rule is elementwise, so piece by piece is bitwise the flat update. Each
  // piece's new values then overwrite the gradient sums they consumed in
  // `own`, while those lines are still cached: `own` becomes this rank's
  // allgather message without a cold pack.
  const int slots = optim::state_slots(opts_.optimizer.rule);
  auto& state = me_.shard_state[stage];
  if (state.empty() && slots > 0)
    state.assign(slots, std::vector<float>(sync.hi - sync.lo, 0.0f));
  sync.values = flat_view(sync.local[0]->module.params(), /*values=*/true);
  float* own = sync.own.data();
  sync.values.for_each_piece(
      sync.lo, sync.hi, [&](std::size_t k, std::size_t off, std::size_t at,
                            std::size_t len) {
        float* w = sync.values.piece_data(k) + off;
        optim::apply_flat(opts_.optimizer, iteration_ + 1, lr_mult,
                          grad_scale, w, own + at,
                          slots > 0 ? state[0].data() + at : nullptr,
                          slots > 1 ? state[1].data() + at : nullptr, len);
        std::memcpy(own + at, w, len * sizeof(float));
      });
}

void GradSyncEngine::finalize(double lr_mult) {
  {
    obs::Span span(obs::EventKind::kOptimStep, rank_);
    float grad_scale = 1.0f;
    if (opts_.optimizer.clip_norm > 0.0f) {
      float local = local_sq_norm();
      const int world = opts_.data_parallel * plan_.schedule().depth;
      std::vector<int> everyone(static_cast<std::size_t>(world));
      for (std::size_t i = 0; i < everyone.size(); ++i)
        everyone[i] = static_cast<int>(i);
      comm_.allreduce_sum(&local, 1, everyone, /*context=*/(1ll << 20),
                          opts_.allreduce);
      grad_scale = optim::clip_scale(opts_.optimizer.clip_norm, local);
    }
    // The entries left in `syncs_` are the sharded stages.
    for (const auto& r : replicas_)
      if (syncs_.count(r->stage) == 0) r->opt.step(lr_mult, grad_scale);
    for (auto& [stage, sync] : syncs_)
      update_segment(stage, sync, lr_mult, grad_scale);
  }
  // Every local update is done before the first blocking allgather, and
  // `syncs_` iterates in ascending stage order on every worker, keeping the
  // allgathers deadlock-free across shared groups.
  for (auto& [stage, sync] : syncs_) {
    obs::Span span(obs::EventKind::kGradSync, rank_, -1, stage);
    comm_.allgather(sync.values, sync.ranks, stage, std::move(sync.own));
    const std::vector<nn::Param*> first = sync.local[0]->module.params();
    for (std::size_t li = 1; li < sync.local.size(); ++li) {
      const std::vector<nn::Param*> to = sync.local[li]->module.params();
      for (std::size_t i = 0; i < to.size(); ++i)
        to[i]->value = first[i]->value;
    }
  }
  syncs_.clear();
}

}  // namespace chimera::rt
