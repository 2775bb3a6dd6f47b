#include "runtime/serving.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/trace.h"

namespace chimera::rt {

Round form_round(std::deque<PendingRequest>& queue, const BatchPolicy& policy,
                 int num_slots, long now_us) {
  CHIMERA_CHECK(policy.max_batch >= 1 && num_slots >= 1);
  Round round;
  const int B = policy.max_batch;
  while (static_cast<int>(round.slots.size()) < num_slots && !queue.empty()) {
    if (static_cast<int>(queue.size()) < B &&
        !policy.should_flush(static_cast<int>(queue.size()),
                             queue.front().enqueue_us, now_us))
      break;  // partial tail still inside its deadline — leave it queued
    std::vector<PendingRequest> slot;
    for (int r = 0; r < B && !queue.empty(); ++r) {
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
  reg.set_counter("dropped_results", static_cast<double>(dropped_results));
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
  CHIMERA_CHECK_MSG(opts.batch_deadline_us >= 0, "deadline must be >= 0");
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

ServingEngine::~ServingEngine() {
  if (!driver_running_) return;
  // Unlike an explicit stop(), destruction must not rethrow a stored
  // driver error — throwing out of a destructor std::terminates.
  try {
    stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ServingEngine: dropping serving-loop error during "
                         "destruction: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "ServingEngine: dropping serving-loop error during "
                         "destruction\n");
  }
}

std::uint64_t ServingEngine::submit(std::vector<int> tokens) {
  // Reject malformed requests here, where only the caller is affected — a
  // bad token id reaching a rank thread mid-round would take the whole
  // engine (and every co-batched request) down with it. RequestError is
  // recoverable by design: catch, fix the request, keep submitting.
  validate_tokens(tokens, model_.seq, model_.seq, model_.vocab);
  std::lock_guard<std::mutex> lock(mutex_);
  // Fail fast once the serving loop has died — accepting requests a dead
  // loop will never serve would turn the engine into a silent black hole.
  if (driver_error_) std::rethrow_exception(driver_error_);
  // Admission control: the intake side is bounded like the output side. A
  // producer sustained above round throughput gets an error it can back
  // off on, not unbounded queue growth and unbounded latency.
  if (queue_.size() >= kMaxQueuedRequests)
    throw RequestError("request queue full (" +
                       std::to_string(queue_.size()) +
                       ") — back off and retry");
  const std::uint64_t id = next_id_++;
  queue_.push_back(PendingRequest{id, std::move(tokens), clock_.now_us()});
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth, static_cast<long>(queue_.size()));
  cv_.notify_all();
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
    // One span per serving round on the dispatching (driver) thread; micro
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
  CHIMERA_CHECK_MSG(!driver_running_,
                    "serve_pending() while the background loop is running");
  std::vector<ServeResult> out;
  const BatchPolicy drain{opts_.max_batch, 0};  // a drain never waits
  for (;;) {
    Round round;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) break;
      round = form_round(queue_, drain, dep_->schedule().num_micro,
                         clock_.now_us());
    }
    std::vector<ServeResult> served = execute_round(std::move(round));
    for (auto& r : served) out.push_back(std::move(r));
  }
  return out;
}

void ServingEngine::start() {
  CHIMERA_CHECK_MSG(!driver_running_, "serving loop already running");
  stopping_ = false;
  driver_running_ = true;
  driver_ = std::thread([this] { driver_main(); });
}

void ServingEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    cv_.notify_all();
  }
  if (driver_.joinable()) driver_.join();
  driver_running_ = false;
  if (driver_error_) {
    std::exception_ptr e = driver_error_;
    driver_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ServingEngine::driver_main() {
  try {
    driver_loop();
  } catch (...) {
    // Surface the failure on stop() instead of std::terminate-ing the
    // process from a detached context (the training path likewise rethrows
    // rank exceptions on the caller).
    std::lock_guard<std::mutex> lock(mutex_);
    driver_error_ = std::current_exception();
  }
}

void ServingEngine::driver_loop() {
  const BatchPolicy policy{opts_.max_batch, opts_.batch_deadline_us};
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Hold until the flush rule fires: a full batch is always dispatchable,
    // a partial one waits out the *remainder* of the oldest request's
    // deadline; stop() flushes immediately. The deadline sleep is real time
    // — a fake opts_.clock only steers flush *decisions* and stamps.
    if (!stopping_ &&
        !policy.should_flush(static_cast<int>(queue_.size()),
                             queue_.front().enqueue_us, clock_.now_us())) {
      const long waited = clock_.now_us() - queue_.front().enqueue_us;
      const long remaining =
          std::max<long>(0, opts_.batch_deadline_us - waited);
      cv_.wait_for(lock, std::chrono::microseconds(remaining), [&] {
        return stopping_ ||
               static_cast<int>(queue_.size()) >= policy.max_batch;
      });
      if (queue_.empty()) continue;
    }
    const BatchPolicy now_policy =
        stopping_ ? BatchPolicy{opts_.max_batch, 0} : policy;
    Round round = form_round(queue_, now_policy, dep_->schedule().num_micro,
                             clock_.now_us());
    if (round.slots.empty()) continue;  // deadline not yet reached
    lock.unlock();
    std::vector<ServeResult> served = execute_round(std::move(round));
    lock.lock();
    for (auto& r : served) {
      completed_.push_back(std::move(r));
      if (completed_.size() > ServingStats::kMaxCompletedResults) {
        completed_.pop_front();
        ++stats_.dropped_results;
      }
    }
  }
}

std::vector<ServeResult> ServingEngine::take_completed() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Surface a dead serving loop to the poller instead of returning empty
  // results forever (stop() clears the error after rethrowing it).
  if (driver_error_ && completed_.empty())
    std::rethrow_exception(driver_error_);
  std::vector<ServeResult> out;
  out.reserve(completed_.size());
  for (auto& r : completed_) out.push_back(std::move(r));
  completed_.clear();
  return out;
}

ServingStats ServingEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServingStats out = stats_;
  out.queue_depth = static_cast<long>(queue_.size());
  return out;
}

}  // namespace chimera::rt
