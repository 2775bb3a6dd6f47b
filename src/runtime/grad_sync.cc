#include "runtime/grad_sync.h"

#include <algorithm>

#include "comm/compression.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "tensor/kernels.h"

namespace chimera::rt {

std::size_t flat_grad_size(const std::vector<nn::Param*>& params) {
  std::size_t total = 0;
  for (const nn::Param* p : params) total += p->grad.numel();
  return total;
}

void copy_grads_flat(const std::vector<nn::Param*>& params, float* buf) {
  for (const nn::Param* p : params) {
    std::copy(p->grad.data(), p->grad.data() + p->grad.numel(), buf);
    buf += p->grad.numel();
  }
}

void add_grads_flat(const std::vector<nn::Param*>& params, float* buf) {
  for (const nn::Param* p : params) {
    // Elementwise adds — bitwise ≡ the scalar loop in every kernel tier, so
    // the replica contribution order of the grad-sync contract is unchanged.
    vector_add(buf, p->grad.data(), p->grad.numel());
    buf += p->grad.numel();
  }
}

void load_grads_flat(const std::vector<nn::Param*>& params, const float* buf) {
  for (nn::Param* p : params) {
    std::copy(buf, buf + p->grad.numel(), p->grad.data());
    buf += p->grad.numel();
  }
}

// ------------------------------------------------------------------------
// Strategy interface

class GradSyncEngine::Strategy {
 public:
  virtual ~Strategy() = default;

  /// AllReduceBegin hook; the bucket is already filled.
  virtual void begin(GradSyncEngine& e, int stage, StageSync& sync) {}

  /// AllReduceWait hook. Returns true when the bucket holds the final
  /// gradients and should be drained back to the replicas and retired;
  /// false when the entry must survive until the flush (ZeRO-1).
  virtual bool wait(GradSyncEngine& e, int stage, StageSync& sync) = 0;

  /// This rank's contribution to the global squared gradient norm.
  virtual float local_sq_norm(const GradSyncEngine& e) const {
    // After the per-stage sync, all num_pipes·W replicas of a stage hold
    // identical gradients; dividing each replica's squared norm by that
    // count and summing over the whole world yields the model-wide norm.
    const double replicas_per_stage =
        static_cast<double>(e.plan_.schedule().num_pipes) *
        e.opts_.data_parallel;
    float local = 0.0f;
    for (const auto& r : e.replicas_)
      local += static_cast<float>(r->opt.grad_sq_norm() / replicas_per_stage);
    return local;
  }

  /// The flush-time optimizer update (identical on every replica).
  virtual void apply_update(GradSyncEngine& e, double lr_mult,
                            float grad_scale) {
    for (const auto& r : e.replicas_) r->opt.step(lr_mult, grad_scale);
  }
};

class GradSyncEngine::BlockingStrategy : public Strategy {
 public:
  bool wait(GradSyncEngine& e, int stage, StageSync& sync) override {
    e.comm_.allreduce_sum(sync.bucket.data(), sync.bucket.size(),
                          e.allreduce_ranks(stage), stage, e.opts_.allreduce);
    return true;
  }
};

class GradSyncEngine::OverlapStrategy : public Strategy {
 public:
  void begin(GradSyncEngine& e, int stage, StageSync& sync) override {
    // Nonblocking launch: the collective progresses while the ops after
    // this one compute (paper §3.2 eager sync). The bucket and request live
    // in `syncs_` until the matching Wait.
    sync.request =
        e.comm_.iallreduce_sum(sync.bucket.data(), sync.bucket.size(),
                               e.allreduce_ranks(stage), stage,
                               e.opts_.allreduce);
  }
  bool wait(GradSyncEngine&, int, StageSync& sync) override {
    sync.request.wait();
    return true;
  }
};

class GradSyncEngine::ZeroShardStrategy : public Strategy {
 public:
  bool wait(GradSyncEngine& e, int stage, StageSync& sync) override {
    // Only the reduce-scatter half runs here; the entry stays in `syncs_`
    // so the flush can update this rank's shard and allgather the refreshed
    // parameters.
    e.comm_.reduce_scatter_sum(sync.bucket.data(), sync.bucket.size(),
                               e.allreduce_ranks(stage), stage);
    return false;
  }

  float local_sq_norm(const GradSyncEngine& e) const override {
    // Each rank owns a disjoint fully-reduced segment per hosted stage, so
    // summing segment norms over the world gives the exact global norm with
    // no double counting.
    float local = 0.0f;
    for (const auto& [stage, sync] : e.syncs_) {
      const auto [lo, hi] = e.zero_segment(stage, sync.bucket.size());
      for (std::size_t i = lo; i < hi; ++i)
        local += sync.bucket[i] * sync.bucket[i];
    }
    return local;
  }

  void apply_update(GradSyncEngine& e, double lr_mult,
                    float grad_scale) override {
    // ZeRO-1 sharded update: refresh my shard of each hosted stage's
    // flattened parameters, then allgather the full parameter vector.
    // `syncs_` iterates in ascending stage order on every worker, keeping
    // the blocking allgathers deadlock-free across shared groups.
    const int slots = optim::state_slots(e.opts_.optimizer.rule);
    for (auto& [stage, sync] : e.syncs_) {
      const std::vector<int> ranks = e.allreduce_ranks(stage);
      const std::size_t n = sync.bucket.size();
      const auto [lo, hi] = e.zero_segment(stage, n);
      auto& shard = e.me_.zero_state[stage];
      if (shard.empty() && slots > 0)
        shard.assign(slots, std::vector<float>(hi - lo, 0.0f));
      std::vector<float> wbuf(n);
      std::size_t off = 0;
      for (nn::Param* p : sync.local[0]->module.params()) {
        std::copy(p->value.data(), p->value.data() + p->value.numel(),
                  wbuf.begin() + off);
        off += p->value.numel();
      }
      optim::apply_flat(e.opts_.optimizer, e.iteration_ + 1, lr_mult,
                        grad_scale, wbuf.data() + lo, sync.bucket.data() + lo,
                        slots > 0 ? shard[0].data() : nullptr,
                        slots > 1 ? shard[1].data() : nullptr, hi - lo);
      e.comm_.allgather(wbuf.data(), n, ranks, stage);
      for (Replica* r : sync.local) {
        off = 0;
        for (nn::Param* p : r->module.params()) {
          std::copy(wbuf.begin() + off, wbuf.begin() + off + p->value.numel(),
                    p->value.data());
          off += p->value.numel();
        }
      }
    }
    e.syncs_.clear();
  }
};

class GradSyncEngine::CompressedStrategy : public Strategy {
 public:
  bool wait(GradSyncEngine& e, int stage, StageSync& sync) override {
    const std::vector<int> ranks = e.allreduce_ranks(stage);
    if (e.opts_.compression == comm::GradCompression::kTopK) {
      comm::TopKSparsifier sp(e.opts_.topk_fraction);
      comm::allreduce_topk(e.comm_, sync.bucket.data(), sync.bucket.size(),
                           ranks, stage, sp, e.me_.topk_residual[stage]);
    } else {
      comm::Quantizer q(
          e.opts_.compression == comm::GradCompression::kInt8 ? 8 : 4);
      // Deterministic per (iteration, rank, stage): runs reproduce.
      Rng rng(Rng(0x9bc0ffee ^ static_cast<std::uint64_t>(e.iteration_))
                  .split(static_cast<std::uint64_t>(e.rank_) * 131 + stage));
      comm::allreduce_quantized(e.comm_, sync.bucket.data(),
                                sync.bucket.size(), ranks, stage, q, rng);
    }
    return true;
  }
};

// ------------------------------------------------------------------------
// Engine

GradSyncEngine::GradSyncEngine(TrainDeployment& dep, const TrainerOptions& opts,
                               WorkerState& me, int rank, long iteration)
    : plan_(dep.plan()), opts_(opts), comm_(dep.comm(rank)),
      replicas_(dep.units(rank)), me_(me), rank_(rank),
      iteration_(iteration) {
  if (opts.zero_shard)
    strategy_ = std::make_unique<ZeroShardStrategy>();
  else if (opts.compression != comm::GradCompression::kNone)
    strategy_ = std::make_unique<CompressedStrategy>();
  else if (opts.overlap)
    strategy_ = std::make_unique<OverlapStrategy>();
  else
    strategy_ = std::make_unique<BlockingStrategy>();
}

GradSyncEngine::~GradSyncEngine() = default;

std::vector<int> GradSyncEngine::allreduce_ranks(int stage) const {
  const int D = plan_.schedule().depth;
  std::vector<int> ranks;
  for (int g = 0; g < opts_.data_parallel; ++g)
    for (int w : plan_.allreduce_group(stage)) ranks.push_back(g * D + w);
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

std::pair<std::size_t, std::size_t> GradSyncEngine::zero_segment(
    int stage, std::size_t n) const {
  const std::vector<int> ranks = allreduce_ranks(stage);
  int idx = -1;
  for (std::size_t i = 0; i < ranks.size(); ++i)
    if (ranks[i] == rank_) idx = static_cast<int>(i);
  CHIMERA_CHECK_MSG(idx >= 0, "rank not in stage replica group");
  const int gsize = static_cast<int>(ranks.size());
  return {comm::segment_begin(n, gsize, idx),
          comm::segment_begin(n, gsize, idx + 1)};
}

void GradSyncEngine::fill_bucket(int stage, StageSync& sync) {
  // All local replicas of `stage`, in hosting order.
  for (const auto& r : replicas_)
    if (r->stage == stage) sync.local.push_back(r.get());
  CHIMERA_CHECK_MSG(!sync.local.empty(), "sync for unhosted stage " << stage);
  auto first = sync.local[0]->module.params();
  sync.bucket.resize(flat_grad_size(first));
  copy_grads_flat(first, sync.bucket.data());
  // GEMS with odd depth can host the same stage twice on one worker;
  // their contributions combine locally before the collective.
  for (std::size_t li = 1; li < sync.local.size(); ++li)
    add_grads_flat(sync.local[li]->module.params(), sync.bucket.data());
}

void GradSyncEngine::drain_bucket(StageSync& sync) {
  for (Replica* r : sync.local)
    load_grads_flat(r->module.params(), sync.bucket.data());
}

void GradSyncEngine::begin(int stage) {
  StageSync& sync = syncs_[stage];
  if (sync.local.empty()) fill_bucket(stage, sync);
  strategy_->begin(*this, stage, sync);
}

void GradSyncEngine::wait(int stage) {
  auto it = syncs_.find(stage);
  CHIMERA_CHECK_MSG(it != syncs_.end(),
                    "Wait without Begin for stage " << stage);
  if (strategy_->wait(*this, stage, it->second)) {
    drain_bucket(it->second);
    syncs_.erase(it);
  }
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

void GradSyncEngine::finalize(double lr_mult) {
  obs::Span span(obs::EventKind::kOptimStep, rank_);
  float grad_scale = 1.0f;
  if (opts_.optimizer.clip_norm > 0.0f) {
    float local = strategy_->local_sq_norm(*this);
    const int world =
        opts_.data_parallel * plan_.schedule().depth;
    std::vector<int> everyone(static_cast<std::size_t>(world));
    for (std::size_t i = 0; i < everyone.size(); ++i)
      everyone[i] = static_cast<int>(i);
    comm_.allreduce_sum(&local, 1, everyone, /*context=*/(1ll << 20),
                        opts_.allreduce);
    grad_scale = optim::clip_scale(opts_.optimizer.clip_norm, local);
  }
  strategy_->apply_update(*this, lr_mult, grad_scale);
}

}  // namespace chimera::rt
