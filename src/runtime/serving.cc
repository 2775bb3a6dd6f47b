#include "runtime/serving.h"

#include <algorithm>

#include "obs/trace.h"

namespace chimera::rt {

Round form_round(std::deque<PendingRequest>& queue, int max_batch,
                 int num_slots) {
  CHIMERA_CHECK(max_batch >= 1 && num_slots >= 1);
  Round round;
  while (static_cast<int>(round.slots.size()) < num_slots && !queue.empty()) {
    std::vector<PendingRequest> slot;
    for (int r = 0; r < max_batch && !queue.empty(); ++r) {
      slot.push_back(std::move(queue.front()));
      queue.pop_front();
    }
    round.slots.push_back(std::move(slot));
  }
  return round;
}

obs::MetricsRegistry ServingStats::metrics() const {
  obs::MetricsRegistry reg;
  reg.set_counter("requests", static_cast<double>(requests));
  reg.set_counter("rounds", static_cast<double>(rounds));
  reg.set_counter("padded_rows", static_cast<double>(padded_rows));
  reg.set_gauge("queue_depth", static_cast<double>(queue_depth));
  reg.set_gauge("max_queue_depth", static_cast<double>(max_queue_depth));
  reg.set_histogram("latency_us", latencies);
  return reg;
}

ServingEngine::ServingEngine(const nn::SmallModelConfig& model, Scheme scheme,
                             const ScheduleConfig& sched_cfg,
                             const ServeOptions& opts)
    : model_(model), opts_(opts), clock_(opts.clock) {
  CHIMERA_CHECK_MSG(opts.max_batch >= 1, "max_batch must be positive");
  PipelineSchedule sched = build_inference_schedule(scheme, sched_cfg);
  const int D = sched.depth;
  round_inputs_.resize(sched.num_micro);
  round_logits_.resize(sched.num_micro);
  // Forward-only execution stashes nothing, so kBalancedMemory gets the
  // flat profile (no schedule): it degenerates to balancing weight bytes.
  Partition partition = plan_partition(model_.spec(), D, opts.partition);
  dep_ = std::make_unique<Deployment<nn::StageModule>>(
      std::move(sched), std::move(partition), /*groups=*/1, opts_,
      [&](int, int, int stage, StageRange layers) {
        return nn::StageModule(model_, stage, D, layers);
      });
}

std::uint64_t ServingEngine::submit(std::vector<int> tokens) {
  // Reject malformed requests here, where only the caller is affected — a
  // bad token id reaching a rank thread mid-round would take the whole
  // engine (and every co-batched request) down with it. RequestError is
  // recoverable by design: catch, fix the request, keep submitting.
  validate_tokens(tokens, model_.seq, model_.seq, model_.vocab);
  std::lock_guard<std::mutex> lock(mutex_);
  // Admission control: the intake is bounded. A producer sustained above
  // round throughput gets an error it can back off on, not unbounded queue
  // growth and unbounded latency.
  if (queue_.size() >= kMaxQueuedRequests)
    throw RequestError("request queue full (" +
                       std::to_string(queue_.size()) +
                       ") — back off and retry");
  const std::uint64_t id = next_id_++;
  queue_.push_back(PendingRequest{id, std::move(tokens), clock_.now_us()});
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth, static_cast<long>(queue_.size()));
  return id;
}

void ServingEngine::run_worker(int w) {
  Deployment<nn::StageModule>& dep = *dep_;
  const int D = dep.schedule().depth;
  const std::vector<PlannedOp>& wplan = dep.plan().worker_plan(w);
  for (std::size_t opi = 0; opi < wplan.size(); ++opi) {
    const PlannedOp& pop = wplan[opi];
    const MicroUnit& u = pop.units.front();
    // Slots beyond the round's dispatched count carry no requests: skip
    // their ops entirely. Micro-batch slots never interact (each has its
    // own dependency chain and tags), and every worker computes the same
    // cutoff, so sends and recvs stay matched. Skipped ops record no span —
    // the trace shows only what ran.
    if (u.micro >= round_active_slots_) continue;
    obs::OpSpan op_span(obs::EventKind::kForward, w, w,
                        static_cast<int>(opi), pop.op.micro, pop.op.stage,
                        pop.op.pipe);
    nn::StageModule& module = dep.unit(w, pop.op.pipe, pop.op.stage);
    Tensor x;
    if (u.recv_from >= 0) x = dep.recv(w, pop.op, u);
    Tensor y = module.infer(round_inputs_[u.micro], x);
    if (u.send_to >= 0)
      dep.send(w, pop.op, u, std::move(y));
    else if (pop.op.stage == D - 1)
      round_logits_[u.micro] = std::move(y);
  }
}

std::vector<ServeResult> ServingEngine::execute_round(Round round) {
  const int N = dep_->schedule().num_micro;
  const int B = opts_.max_batch;
  const int seq = model_.seq;
  const int active = static_cast<int>(round.slots.size());
  CHIMERA_CHECK(active >= 1 && active <= N);

  // Materialize the dispatched slots' padded micro-batches (tail rows pad
  // with token 0); the workers skip the remaining slots' ops outright, so
  // a lightly-loaded round costs only what it carries.
  for (int m = 0; m < active; ++m) {
    nn::MicroBatch& mb = round_inputs_[m];
    mb.batch = B;
    mb.seq = seq;
    mb.tokens.assign(static_cast<std::size_t>(B) * seq, 0);
    mb.targets.clear();  // infer() never reads targets
    for (std::size_t r = 0; r < round.slots[m].size(); ++r)
      std::copy(round.slots[m][r].tokens.begin(),
                round.slots[m][r].tokens.end(),
                mb.tokens.begin() + static_cast<std::ptrdiff_t>(r) * seq);
  }

  round_active_slots_ = active;
  {
    // One span per serving round on the dispatching thread; micro
    // carries the active slot count, tag the coalesced request count.
    obs::Span round_span(obs::EventKind::kServeRound, obs::thread_worker(),
                         active, -1, -1, round.requests());
    dep_->run([this](int rank) { run_worker(rank); });
  }
  const long done = clock_.now_us();

  std::vector<ServeResult> results;
  for (std::size_t m = 0; m < round.slots.size(); ++m) {
    const Tensor& logits = round_logits_[m];
    CHIMERA_CHECK(logits.rows() == B * seq && logits.cols() == model_.vocab);
    for (std::size_t r = 0; r < round.slots[m].size(); ++r) {
      ServeResult res;
      res.id = round.slots[m][r].id;
      res.enqueue_us = round.slots[m][r].enqueue_us;
      res.done_us = done;
      res.logits.reshape(seq, model_.vocab);
      std::copy(logits.data() + r * static_cast<std::size_t>(seq) * model_.vocab,
                logits.data() + (r + 1) * static_cast<std::size_t>(seq) * model_.vocab,
                res.logits.data());
      results.push_back(std::move(res));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.rounds += 1;
    stats_.requests += round.requests();
    stats_.padded_rows += static_cast<long>(active) * B - round.requests();
    for (const ServeResult& r : results) stats_.latencies.add(r.latency_us());
  }
  return results;
}

std::vector<ServeResult> ServingEngine::serve_pending() {
  std::vector<ServeResult> out;
  for (;;) {
    Round round;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) break;
      round = form_round(queue_, opts_.max_batch, dep_->schedule().num_micro);
    }
    std::vector<ServeResult> served = execute_round(std::move(round));
    for (auto& r : served) out.push_back(std::move(r));
  }
  return out;
}

ServingStats ServingEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServingStats out = stats_;
  out.queue_depth = static_cast<long>(queue_.size());
  return out;
}

}  // namespace chimera::rt
