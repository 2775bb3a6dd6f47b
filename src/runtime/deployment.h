// Deployment: the hosting layer every engine runs on.
//
// Chimera fixes one stage→worker map: worker w hosts down-stage w and
// up-stage D−1−w (paper §3). PipelineTrainer, ServingEngine and
// DecodeEngine all execute that map the same way, so one object builds and
// owns the whole chain:
//
//   schedule → partition (cover CHECK) → ExecutionPlan → comm::World →
//   one Communicator per rank → the stage units each rank hosts →
//   intra-op ComputePool sizing and kernel tier → WorkerPool
//
// Ranks are W groups of D: rank g·D + w is worker w of data-parallel group
// g (serving and decode run W = 1). The engine injects only what varies —
// its Unit type (a training Replica, a bare StageModule, a module plus its
// KV cache) and a factory building one unit per hosted (pipe, stage) — and
// keeps its op handler and admission policy. This is SPMD hosting with the
// variable part injected (bulk's hub<Provider>, SNIPPETS.md snippet 1).
//
// Lifetime: the pool is the last member, so its destructor joins the rank
// threads while the units and communicators they touch are still alive. An
// engine declares its Deployment as its own last member for the same
// reason: round state the rank threads touch outlives the join.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "comm/world.h"
#include "core/execution_plan.h"
#include "core/partition.h"
#include "obs/trace.h"
#include "runtime/options.h"
#include "runtime/worker_pool.h"
#include "support/check.h"
#include "tensor/compute_pool.h"

namespace chimera::rt {

template <class Unit>
class Deployment {
 public:
  /// Hosts `schedule` on `groups`·D ranks. `make_unit(rank, pipe, stage,
  /// layers)` returns the unit of one hosted stage replica by value and is
  /// called in rank order, then in hosted_stages() order. `partition` must
  /// split all of its model's layers across the schedule's D stages.
  template <class MakeUnit>
  Deployment(PipelineSchedule schedule, Partition partition, int groups,
             const EngineOptions& opts, MakeUnit make_unit)
      : schedule_(std::move(schedule)),
        partition_(std::move(partition)),
        plan_(schedule_),
        world_(groups * schedule_.depth) {
    const int D = schedule_.depth;
    CHIMERA_CHECK_MSG(opts.intra_op >= -1,
                      "intra_op must be >= -1 (-1 = auto), got "
                          << opts.intra_op);
    // The engine executes exactly the planned split: the ranges must cover
    // all layers exactly once. Partition's constructor enforces a contiguous
    // in-order cover, so checking the endpoints closes the contract.
    CHIMERA_CHECK_MSG(partition_.depth() == D &&
                          partition_.range(0).begin == 0 &&
                          partition_.ranges().back().end ==
                              partition_.model().layers,
                      "partition covers [" << partition_.range(0).begin
                          << ", " << partition_.ranges().back().end << ") of "
                          << partition_.model().layers << " layers across "
                          << partition_.depth() << " stages (want " << D
                          << ")");
    const int R = ranks();
    const std::size_t per_rank =
        static_cast<std::size_t>(schedule_.num_pipes) * D;
    comms_.reserve(R);
    units_.resize(R);
    index_.assign(R * per_rank, nullptr);
    for (int rank = 0; rank < R; ++rank) {
      comms_.emplace_back(world_, rank);
      for (auto [pipe, stage] : schedule_.hosted_stages(rank % D)) {
        // Direct-initialized from the factory's prvalue: Units need not be
        // movable (a Replica's optimizer points into its own module).
        std::unique_ptr<Unit> u(
            new Unit(make_unit(rank, pipe, stage, partition_.range(stage))));
        index_[rank * per_rank + pipe * D + stage] = u.get();
        units_[rank].push_back(std::move(u));
      }
    }
    // Threading model (DESIGN.md §2 item 17): the ranks plus the shared
    // intra-op kernel helpers never oversubscribe the host. The kernels'
    // fixed split points keep results bitwise identical at any helper count.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    ComputePool::instance().set_helpers(
        opts.intra_op >= 0 ? opts.intra_op : std::max(0, hw - R));
    set_kernel_policy(opts.kernel);
    // The rank threads start only once the units exist: spawning them
    // first raised perfbench's peak RSS by about 5% (train_chimera,
    // decode_mixed) at identical outputs.
    pool_ = std::make_unique<WorkerPool>(R);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const PipelineSchedule& schedule() const { return schedule_; }
  const ExecutionPlan& plan() const { return plan_; }
  const Partition& partition() const { return partition_; }
  int ranks() const { return world_.size(); }

  /// Rank `rank`'s endpoint, owned by that rank's pool thread.
  comm::Communicator& comm(int rank) { return comms_.at(rank); }

  /// The units `rank` hosts, in hosted_stages() order.
  const std::vector<std::unique_ptr<Unit>>& units(int rank) const {
    return units_.at(rank);
  }

  /// The unit of (pipe, stage) on `rank`; throws CheckError naming the
  /// worker, pipe and stage when that rank does not host it.
  Unit& unit(int rank, int pipe, int stage) const {
    const int D = schedule_.depth;
    Unit* u = nullptr;
    if (rank >= 0 && rank < ranks() && pipe >= 0 &&
        pipe < schedule_.num_pipes && stage >= 0 && stage < D)
      u = index_[(static_cast<std::size_t>(rank) * schedule_.num_pipes +
                  pipe) * D + stage];
    CHIMERA_CHECK_MSG(u != nullptr, "stage not hosted: worker "
                                        << rank % D << " (rank " << rank
                                        << ") pipe " << pipe << " stage "
                                        << stage);
    return *u;
  }

  /// Runs job(rank) on every rank's persistent thread; see WorkerPool::run.
  void run(const std::function<void(int)>& job) { pool_->run(job); }

  /// Receives `u`'s input from its plan producer in `rank`'s group, traced
  /// as a kRecv span. `tag_offset` moves the transfer into its own tag band
  /// when several jobs flow through one plan op.
  Tensor recv(int rank, const Op& op, const MicroUnit& u,
              std::int64_t tag_offset = 0) {
    const std::int64_t tag = u.recv_tag + tag_offset;
    obs::Span span(obs::EventKind::kRecv, rank, u.micro, op.stage, op.pipe,
                   static_cast<long>(tag));
    return comm(rank).recv(group_base(rank) + u.recv_from, tag);
  }

  /// Sends `y` to `u`'s plan consumer in `rank`'s group, traced as a kSend
  /// span; `tag_offset` as for recv().
  void send(int rank, const Op& op, const MicroUnit& u, Tensor y,
            std::int64_t tag_offset = 0) {
    const std::int64_t tag = u.send_tag + tag_offset;
    obs::Span span(obs::EventKind::kSend, rank, u.micro, op.stage, op.pipe,
                   static_cast<long>(tag));
    comm(rank).send(group_base(rank) + u.send_to, tag, std::move(y));
  }

 private:
  int group_base(int rank) const { return rank - rank % schedule_.depth; }

  PipelineSchedule schedule_;
  Partition partition_;
  ExecutionPlan plan_;  ///< points into schedule_
  comm::World world_;
  std::vector<comm::Communicator> comms_;            ///< [rank]
  std::vector<std::vector<std::unique_ptr<Unit>>> units_;  ///< [rank]
  std::vector<Unit*> index_;  ///< [rank][pipe][stage], null = not hosted
  /// Last member: joins the rank threads before anything above is freed.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace chimera::rt
