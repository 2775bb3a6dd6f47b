#include "core/execution_plan.h"

#include <algorithm>

#include "support/rng.h"

namespace chimera {

std::int64_t ExecutionPlan::p2p_tag(OpKind kind, int pipe, int stage,
                                    int micro, int half) {
  const std::int64_t k = kind == OpKind::kForward ? 0 : 1;
  return ((((k * 64 + pipe) * 64 + stage) * 8192 + micro) * 4 + half);
}

ExecutionPlan::ExecutionPlan(const PipelineSchedule& s)
    : sched_(&s), index_(s) {
  halved_micro_.assign(std::max(0, s.num_micro), false);
  for (const auto& ops : s.worker_ops)
    for (const Op& op : ops)
      if (op.kind == OpKind::kBackward && op.half_count == 2)
        halved_micro_[op.micro] = true;

  const int D = s.depth;
  plan_.resize(D);
  for (int w = 0; w < D; ++w) {
    plan_[w].resize(s.worker_ops[w].size());
    for (int i = 0; i < static_cast<int>(s.worker_ops[w].size()); ++i) {
      const Op& op = s.worker_ops[w][i];
      PlannedOp& p = plan_[w][i];
      p.op = op;
      p.ref = OpRef{w, i};
      index_.dependencies(p.ref, p.deps);
      switch (op.kind) {
        case OpKind::kForward:
          for (int m = op.micro; m < op.micro + op.chunk; ++m) {
            const int halves = halved_micro_[m] ? 2 : 1;
            for (int h = 0; h < halves; ++h) {
              MicroUnit u;
              u.micro = m;
              u.half = h;
              u.halves = halves;
              u.stash_key = static_cast<long>(m) * 4 + h;
              if (op.stage > 0) {
                u.recv_from = s.worker_of(op.pipe, op.stage - 1);
                u.recv_tag = p2p_tag(OpKind::kForward, op.pipe, op.stage, m, h);
              }
              if (op.stage + 1 < D) {
                u.send_to = s.worker_of(op.pipe, op.stage + 1);
                u.send_tag =
                    p2p_tag(OpKind::kForward, op.pipe, op.stage + 1, m, h);
              }
              // One stash per micro-batch — except in forward-only serving
              // plans, where no backward will ever consume (or release) it.
              u.acquires_stash = !s.forward_only && h == 0;
              // Decode streams instead carry KV-cache state: the step's
              // slot-binding window opens at the stream's head stage
              // (admission) and closes at its tail (sampling/retirement).
              u.acquires_cache_slot = s.decode && op.stage == 0;
              u.releases_cache_slot = s.decode && op.stage == D - 1;
              p.units.push_back(u);
            }
          }
          break;
        case OpKind::kBackward: {
          MicroUnit u;
          u.micro = op.micro;
          u.half = op.half_index;
          u.halves = op.half_count;
          u.stash_key = static_cast<long>(op.micro) * 4 + op.half_index;
          if (op.stage + 1 < D) {
            u.recv_from = s.worker_of(op.pipe, op.stage + 1);
            u.recv_tag = p2p_tag(OpKind::kBackward, op.pipe, op.stage,
                                 op.micro, op.half_index);
          }
          if (op.stage > 0) {
            u.send_to = s.worker_of(op.pipe, op.stage - 1);
            u.send_tag = p2p_tag(OpKind::kBackward, op.pipe, op.stage - 1,
                                 op.micro, op.half_index);
          }
          u.releases_stash = op.half_index + 1 == op.half_count;
          p.units.push_back(u);
          break;
        }
        case OpKind::kAllReduceBegin:
        case OpKind::kAllReduceWait:
          break;
      }
    }
  }
}

namespace {

inline double op_cost(const Op& op, const ReplayCosts& c) {
  switch (op.kind) {
    case OpKind::kForward:
      return c.forward_cost(op.stage) * op.chunk *
             (op.chunk > 1 ? c.double_forward_scale : 1.0);
    case OpKind::kBackward: {
      double t = c.backward_cost(op.stage) / op.half_count *
                 (op.half_count > 1 ? c.half_backward_scale : 1.0);
      if (c.recompute) t += c.forward_cost(op.stage) / op.half_count;
      return t;
    }
    case OpKind::kAllReduceBegin:
      return c.begin_cpu_fraction * c.allreduce_cost(op.stage);
    case OpKind::kAllReduceWait:
      return 0.0;
  }
  return 0.0;
}

/// Deterministic multiplicative noise on the duration of compute op i of
/// worker w.
double jitter(const ReplayCosts& c, int w, int i) {
  Rng rng = Rng(c.seed).split(static_cast<std::uint64_t>(w) * 1000003u + i);
  return std::max(0.2, 1.0 + c.jitter * rng.normal());
}

/// Volume factor of a p2p transfer feeding `op` (micro-batches moved).
double p2p_volume(const Op& op) {
  if (op.kind == OpKind::kForward) return op.chunk;
  if (op.kind == OpKind::kBackward) return 1.0 / op.half_count;
  return 0.0;
}

/// The replay, compiled once per case so the uncontended scan — the
/// analyzer's and the performance model's hot path — carries none of the
/// network's bookkeeping.
template <bool kNetwork>
ReplayResult execute(const ExecutionPlan& plan, const ReplayCosts& costs) {
  const PipelineSchedule& s = plan.schedule();
  const int D = s.depth;
  const ReplayCosts::Network* net = kNetwork ? &*costs.network : nullptr;
  ReplayResult r;
  r.times.resize(D);
  r.busy.assign(D, 0.0);
  r.bubble.assign(D, 0.0);
  // Each op's jitter factor (1 without jitter) waits in its end time until
  // the op runs: a libm call, or one more table, inside the loop below
  // would cost every op of the scan its registers.
  for (int w = 0; w < D; ++w) {
    r.times[w].assign(s.worker_ops[w].size(), OpTiming{0.0, 1.0});
    if (costs.jitter > 0.0)
      for (int i = 0; i < static_cast<int>(s.worker_ops[w].size()); ++i)
        if (s.worker_ops[w][i].is_compute())
          r.times[w][i].end = jitter(costs, w, i);
  }

  std::vector<int> next(D, 0);  // next op index per worker
  std::vector<double> free_at(D, 0.0);
  // Per-stage gradient allreduce: Begins still to run (one per group
  // member), the latest Begin's end, and the completion time once the last
  // Begin has run.
  std::vector<int> ar_missing(D);
  std::vector<double> ar_launch(D, 0.0), ar_done(D, 0.0);
  for (int st = 0; st < D; ++st)
    ar_missing[st] = static_cast<int>(plan.allreduce_group(st).size());

  // Network only: each worker's sends in the order they queue on its
  // out-link — by producing op, then by consumer (worker, index) — how many
  // have gone, and each op's latest message arrival.
  std::vector<std::vector<std::pair<int, OpRef>>> sends(net ? D : 0);
  std::vector<std::size_t> sent(net ? D : 0, 0);
  std::vector<std::vector<double>> arrival(net ? D : 0);
  std::vector<double> link_free(net ? D : 0, 0.0), port_free = link_free;
  if (net) {
    for (int w = 0; w < D; ++w) {
      arrival[w].assign(s.worker_ops[w].size(), 0.0);
      for (const PlannedOp& pop : plan.worker_plan(w))
        for (const OpRef& d : pop.deps)
          if (d.worker != w && pop.op.is_compute())
            sends[d.worker].push_back({d.index, pop.ref});
    }
    for (auto& q : sends)
      std::stable_sort(q.begin(), q.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
  }

  // Hoisted: the loop's stores to doubles could otherwise alias them.
  const double p2p = costs.p2p;

  // Start time of worker w's next op, or false while it has none or a
  // dependency is still unexecuted. Forced inline into both selection
  // loops below: an outlined call here doubles the scan's cost.
  const auto ready = [&](int w, double& start) __attribute__((always_inline)) {
    if (next[w] == static_cast<int>(s.worker_ops[w].size())) return false;
    const PlannedOp& pop = plan.worker_plan(w)[next[w]];
    const Op& op = pop.op;
    start = free_at[w];
    for (const OpRef& d : pop.deps) {
      if (d.index >= next[d.worker]) return false;
      double avail = r.times[d.worker][d.index].end;
      if (d.worker != w && !net) avail += p2p * p2p_volume(op);
      start = std::max(start, avail);
    }
    if (net && op.is_compute()) start = std::max(start, arrival[w][next[w]]);
    if (op.kind == OpKind::kAllReduceWait)
      start = std::max(start, ar_done[op.stage]);
    return true;
  };

  for (std::size_t remaining = s.total_ops(); remaining > 0;) {
    // The selection rule is the one place the two cases differ.
    // Uncontended, any ASAP order gives the same times: drain every ready
    // op of each worker in scan order, which keeps the scan count
    // proportional to the makespan. Contended, shared links and ports make
    // order matter: run only the earliest-starting ready op, ties to the
    // highest worker (PlanExecutor.SweepBitsMatchGolden pins this order).
    int lo = 0, hi = D;
    if (net) {
      double earliest = 0.0;
      lo = hi = 0;  // nothing ready: deadlock, reported below
      for (int w = 0; w < D; ++w) {
        double start;
        if (ready(w, start) && (hi == 0 || start <= earliest)) {
          lo = w;
          hi = w + 1;
          earliest = start;
        }
      }
    }
    bool progress = false;
    for (int w = lo; w < hi; ++w) {
      double start;
      while (ready(w, start)) {
        const int i = next[w];
        const Op& op = s.worker_ops[w][i];
        const double dur = op_cost(op, costs) * r.times[w][i].end;
        const double end = start + dur;
        r.times[w][i] = OpTiming{start, end};
        free_at[w] = end;
        if (op.is_compute()) {
          r.busy[w] += dur;
          r.compute_makespan = std::max(r.compute_makespan, end);
        }
        r.makespan = std::max(r.makespan, end);

        if (op.kind == OpKind::kAllReduceBegin) {
          ar_launch[op.stage] = std::max(ar_launch[op.stage], end);
          if (--ar_missing[op.stage] == 0) {
            // With a network, a collective occupies the port of every
            // participant, so collectives sharing a worker serialize (the
            // host-based GLOO reality). Eager placement exploits this:
            // early stages' allreduces drain during bubbles instead of
            // queueing together after the flush.
            double t = ar_launch[op.stage];
            if (net)
              for (int g : plan.allreduce_group(op.stage))
                t = std::max(t, port_free[g]);
            ar_done[op.stage] = t + costs.allreduce_cost(op.stage);
            if (net)
              for (int g : plan.allreduce_group(op.stage))
                port_free[g] = ar_done[op.stage];
          }
        }
        for (; net && sent[w] < sends[w].size() &&
               sends[w][sent[w]].first == i;
             ++sent[w]) {
          const OpRef c = sends[w][sent[w]].second;
          const bool intra = net->node_size > 0 &&
                             w / net->node_size == c.worker / net->node_size;
          const double bytes = net->boundary_bytes * p2p_volume(s.op(c));
          link_free[w] = std::max(link_free[w], end) +
                         (intra ? net->intra_beta : net->beta) * bytes;
          double& a = arrival[c.worker][c.index];
          a = std::max(a, link_free[w] +
                              (intra ? net->intra_alpha : net->alpha));
        }
        ++next[w];
        --remaining;
        progress = true;
        if (net) break;
      }
    }
    CHIMERA_CHECK_MSG(progress, "schedule deadlocked: circular wait between "
                                "worker order and data dependencies");
  }
  for (int w = 0; w < D; ++w) r.bubble[w] = r.compute_makespan - r.busy[w];
  return r;
}

}  // namespace

ReplayResult replay(const ExecutionPlan& plan, const ReplayCosts& costs) {
  return costs.network ? execute<true>(plan, costs)
                       : execute<false>(plan, costs);
}

std::vector<int> max_live_cache_bindings(const ExecutionPlan& plan) {
  const PipelineSchedule& s = plan.schedule();
  std::vector<int> bindings(s.depth, 0);
  if (!s.decode) return bindings;
  // Event sanity: every decode stream opens its slot-binding window exactly
  // once, at its head stage, and closes it exactly once, at its tail.
  for (int m = 0; m < s.num_micro; ++m) {
    const int p = s.pipe_of_micro[m];
    for (int st = 0; st < s.depth; ++st) {
      const PlannedOp& pop = plan.planned(plan.index().forward(p, st, m));
      CHIMERA_CHECK(pop.units.size() == 1);
      const MicroUnit& u = pop.units.front();
      CHIMERA_CHECK_MSG(
          u.acquires_cache_slot == (st == 0) &&
              u.releases_cache_slot == (st == s.depth - 1),
          "decode stream " << m << " has malformed cache-slot events at stage "
                           << st);
    }
  }
  // Capacity: every stage replica a worker hosts carries the KV state of
  // all of its pipe's streams — multiply by the engine's per-stream session
  // batch for the worker's cache-slot count.
  std::vector<int> streams_on_pipe(s.num_pipes, 0);
  for (int m = 0; m < s.num_micro; ++m) ++streams_on_pipe[s.pipe_of_micro[m]];
  for (int w = 0; w < s.depth; ++w)
    for (auto [pipe, stage] : s.hosted_stages(w)) {
      (void)stage;
      bindings[w] += streams_on_pipe[pipe];
    }
  return bindings;
}

std::vector<int> kv_page_budget(const ExecutionPlan& plan,
                                const KvPageGeometry& g) {
  const PipelineSchedule& s = plan.schedule();
  CHIMERA_CHECK_MSG(g.page_size >= 1 && g.max_seq >= g.page_size &&
                        g.max_batch >= 1 && g.pool_pages >= 0,
                    "invalid KV page geometry: page_size "
                        << g.page_size << " max_seq " << g.max_seq
                        << " max_batch " << g.max_batch << " pool_pages "
                        << g.pool_pages);
  // Runs the cache-slot event verification even though the binding counts
  // themselves are recomputed per replica below (a fixed pool_pages breaks
  // the worker-total proportionality bindings alone would give).
  (void)max_live_cache_bindings(plan);
  std::vector<int> budget(s.depth, 0);
  if (!s.decode) return budget;
  std::vector<int> streams_on_pipe(s.num_pipes, 0);
  for (int m = 0; m < s.num_micro; ++m) ++streams_on_pipe[s.pipe_of_micro[m]];
  for (int w = 0; w < s.depth; ++w)
    for (auto [pipe, stage] : s.hosted_stages(w)) {
      (void)stage;
      // A streamless pipe's replicas still carry a minimal pool (one
      // never-claimed lane), mirroring the engine's uniform construction.
      const int lanes = std::max(1, streams_on_pipe[pipe] * g.max_batch);
      budget[w] += g.pool_pages > 0 ? g.pool_pages
                                    : lanes * g.pages_per_session();
    }
  return budget;
}

std::vector<int> max_inflight_micros(const ExecutionPlan& plan) {
  const PipelineSchedule& s = plan.schedule();
  std::vector<int> high(s.depth, 0);
  for (int w = 0; w < s.depth; ++w) {
    int live = 0;
    for (const PlannedOp& pop : plan.worker_plan(w)) {
      for (const MicroUnit& u : pop.units) {
        if (u.acquires_stash) {
          ++live;
          high[w] = std::max(high[w], live);
        }
        if (u.releases_stash) --live;
      }
    }
    CHIMERA_CHECK_MSG(live == 0, "worker " << w << " ends iteration with "
                                           << live << " live stashes");
  }
  return high;
}

}  // namespace chimera
