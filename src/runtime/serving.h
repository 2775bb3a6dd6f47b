// Pipelined inference serving over bidirectional pipelines — the first
// non-training workload on the execution stack (ROADMAP: "serves heavy
// traffic"). The engine reuses the training machinery end to end:
//
//   core/inference_schedule — forward-only schedule: f down + f up
//                             independent request streams for Chimera, the
//                             plain forward pipeline for GPipe/DAPPLE/1F1B
//   core/execution_plan     — the same lowering the trainer executes:
//                             per-op deps, p2p endpoints + tags (no stash
//                             events — nothing ever consumes a stash)
//   runtime/deployment      — the same hosting layer: stage modules on
//                             persistent rank threads; one serving round =
//                             one pool dispatch over the plan
//   nn::StageModule::infer  — logits-only head path (no loss, no dlogits)
//
// Request flow: submit() enqueues token sequences on a thread-safe FIFO;
// the micro-batcher (form_round) coalesces up to max_batch requests per
// micro-batch slot — padding the dispatched tail batch — and a round
// executes the plan's num_micro slots across the pipes. Each request is
// stamped at enqueue and again when its round's logits land, so the engine
// reports true enqueue→logits latency. serve_pending() drains the queue
// synchronously; start()/stop() run the steady-state loop on a driver
// thread, dispatching a round whenever a full round is pending or the
// oldest request has waited out the batch deadline.
//
// Why the bidirectional geometry wins at serving: per-stage forward costs
// are imbalanced (the LM head ≈ several transformer layers at GPT
// vocabulary sizes), so a single-direction pipeline is clocked by its head
// worker while the rest idle. Chimera's pairing runs down-stage w and
// up-stage D−1−w on the same worker — head-heavy and embedding-light
// stages land together and every worker carries ≈ the same load, at the
// same per-worker weights footprint training Chimera already held (2f
// stage replicas, zero activation stash). DESIGN.md §5.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/inference_schedule.h"
#include "nn/stage.h"
#include "obs/metrics.h"
#include "runtime/deployment.h"
#include "runtime/options.h"
#include "runtime/request.h"

namespace chimera::rt {

/// One request waiting in the queue. `tokens` has exactly model.seq ids.
struct PendingRequest {
  std::uint64_t id = 0;
  std::vector<int> tokens;
  long enqueue_us = 0;
};

/// One served request: per-position next-token logits plus the
/// enqueue→logits latency stamps.
struct ServeResult {
  std::uint64_t id = 0;
  Tensor logits;  ///< [seq, vocab]
  long enqueue_us = 0;
  long done_us = 0;
  long latency_us() const { return done_us - enqueue_us; }
};

/// The micro-batcher's flush rule (DESIGN.md §5), pure so it is
/// unit-testable under a fake clock: a full batch is always dispatchable; a
/// partial batch is dispatched once its oldest request has waited
/// deadline_us (0 = immediately).
struct BatchPolicy {
  int max_batch = 1;
  long deadline_us = 0;

  bool should_flush(int pending, long oldest_enqueue_us, long now_us) const {
    if (pending <= 0) return false;
    if (pending >= max_batch) return true;
    return now_us - oldest_enqueue_us >= deadline_us;
  }
};

/// Batches formed for one serving round: slots[i] holds the requests
/// coalesced into micro-batch slot i (≤ max_batch each). Slots beyond
/// slots.size() run as pure padding when the round executes.
struct Round {
  std::vector<std::vector<PendingRequest>> slots;
  int requests() const {
    int n = 0;
    for (const auto& s : slots) n += static_cast<int>(s.size());
    return n;
  }
};

/// Deterministic round formation — the micro-batcher. Takes requests off
/// the front of `queue` in FIFO order into up to `num_slots` slots of
/// `policy.max_batch`; a trailing partial batch is taken only if
/// policy.should_flush allows it at `now_us`. Pure given (queue, now): the
/// fake-clock unit of tests/serving_test.cc.
Round form_round(std::deque<PendingRequest>& queue, const BatchPolicy& policy,
                 int num_slots, long now_us);

/// Cumulative accounting of one engine.
struct ServingStats {
  /// Latency reservoir bound: long-running loops keep the most recent
  /// samples (overwritten ring-style) instead of growing without limit.
  static constexpr std::size_t kMaxLatencySamples = 1 << 16;
  /// Background-loop back-pressure: results not drained by
  /// take_completed() are retained up to this many; beyond it the oldest
  /// are dropped (counted in dropped_results) — a stalled consumer must
  /// not OOM the engine (each result holds a seq×vocab logits tensor).
  static constexpr std::size_t kMaxCompletedResults = 4096;

  long requests = 0;         ///< completed requests
  long rounds = 0;           ///< pool dispatches
  long padded_rows = 0;      ///< padding request-rows computed and discarded
  long dropped_results = 0;  ///< results evicted before take_completed()
  /// Batcher-efficiency counters (emitted into BENCH_*.json): requests
  /// waiting at the moment stats() was taken, and the high-water mark over
  /// the engine's lifetime — a max_queue_depth near kMaxQueuedRequests
  /// means producers outrun round throughput.
  long queue_depth = 0;
  long max_queue_depth = 0;
  /// Enqueue→logits reservoir, at most kMaxLatencySamples most-recent.
  obs::Histogram latencies{kMaxLatencySamples};

  /// Nearest-rank percentile of the recorded latencies (p in [0, 100]).
  long percentile_us(double p) const { return latencies.percentile(p); }

  /// Every counter plus the latency histogram as one registry — the single
  /// emission path the benches flatten into BENCH_*.json extras.
  obs::MetricsRegistry metrics() const;
};

class ServingEngine {
 public:
  /// Builds the forward-only schedule of `scheme` (`sched_cfg.num_micro`
  /// micro-batch slots per round, `pipes_f` Chimera pairs), plans the layer
  /// partition, and hosts the stage modules on persistent rank threads.
  /// Weights are the model's seeded initialization — identical across
  /// replicas of a stage, exactly as a deployment would broadcast them.
  ServingEngine(const nn::SmallModelConfig& model, Scheme scheme,
                const ScheduleConfig& sched_cfg, const ServeOptions& opts);
  ~ServingEngine();

  const PipelineSchedule& schedule() const { return dep_->schedule(); }
  const ExecutionPlan& plan() const { return dep_->plan(); }
  const Partition& partition() const { return dep_->partition(); }

  /// Thread-safe: enqueues one request. `tokens.size()` must equal
  /// model.seq (the batcher pads the *batch* dimension, not the sequence)
  /// and every token must be inside the model's vocabulary — violations
  /// throw RequestError (runtime/request.h), which is recoverable: the
  /// engine and every other request are unaffected. RequestError is also
  /// thrown when the queue holds kMaxQueuedRequests (admission control —
  /// back off and retry). A background loop that died of an internal error
  /// rethrows its stored exception instead. Returns the request id results
  /// are keyed by.
  std::uint64_t submit(std::vector<int> tokens);

  /// Intake bound enforced by submit(); pairs with
  /// ServingStats::kMaxCompletedResults on the output side.
  static constexpr std::size_t kMaxQueuedRequests = 1 << 16;

  /// Synchronously serves everything queued at call time (and whatever
  /// arrives while rounds run): forms rounds ignoring the batch deadline —
  /// a drain never holds a request back — and executes them on the worker
  /// pool until the queue is empty. Returns the results this call
  /// completed. Must not be called while the background loop is running.
  std::vector<ServeResult> serve_pending();

  /// Steady-state serving loop on a driver thread: a round is dispatched
  /// as soon as a full batch (max_batch requests) is pending or the oldest
  /// request has waited out opts.batch_deadline_us. Results accumulate for
  /// take_completed().
  void start();
  /// Drains the queue, then stops and joins the driver thread. If a round
  /// failed inside the loop (a rank threw), the first exception is
  /// rethrown here — the serving counterpart of WorkerPool::run's
  /// rethrow-on-caller contract.
  void stop();

  /// Removes and returns all results completed by the background loop.
  /// The engine retains at most ServingStats::kMaxCompletedResults
  /// undrained results (oldest dropped first, counted in
  /// stats().dropped_results) — poll faster than that under sustained
  /// load.
  std::vector<ServeResult> take_completed();

  ServingStats stats() const;

 private:
  std::vector<ServeResult> execute_round(Round round);
  void run_worker(int worker);
  void driver_main();
  void driver_loop();

  nn::SmallModelConfig model_;
  ServeOptions opts_;
  EngineClock clock_;

  /// Round state shared with the rank threads during one pool dispatch; the
  /// dispatch barrier orders every access. Slots ≥ round_active_slots_
  /// carry no requests and their ops are skipped wholesale.
  std::vector<nn::MicroBatch> round_inputs_;  ///< [slot], padded to max_batch
  std::vector<Tensor> round_logits_;          ///< [slot], written by last stages
  int round_active_slots_ = 0;

  mutable std::mutex mutex_;  ///< guards queue_/completed_/stats_/next_id_
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  std::deque<ServeResult> completed_;  ///< bounded; see kMaxCompletedResults
  ServingStats stats_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  /// Atomic so the serve_pending()/start() mutual-exclusion CHECK is a
  /// reliable fail-fast even when callers misuse the API across threads.
  std::atomic<bool> driver_running_{false};
  std::exception_ptr driver_error_;  ///< set by driver_main, rethrown by stop()
  std::thread driver_;
  /// Last member: its pool parks and joins the rank threads while the state
  /// above is still alive (same contract as PipelineTrainer).
  std::unique_ptr<Deployment<nn::StageModule>> dep_;
};

}  // namespace chimera::rt
