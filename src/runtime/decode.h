// Autoregressive generation over bidirectional pipelines — the first
// workload with cross-round state (DESIGN.md §6, §8).
//
// PR 4's ServingEngine serves one-shot full-sequence logits; generation is
// the opposite regime: repeated seq-1 decode steps whose per-step compute is
// tiny, so pipeline utilization is everything. The engine reuses the stack
// end to end:
//
//   core/decode_schedule  — the steady-state step schedule: Chimera keeps
//                           f down + f up *independent decode streams*;
//                           GPipe/DAPPLE/1F1B collapse to single-direction
//   core/execution_plan   — the same lowering, now with cache-slot
//                           acquire/release events bracketing each stream's
//                           step (admission at the head, retirement at the
//                           tail) — the decode analogue of stash events —
//                           and kv_page_budget() turning those events into
//                           the per-worker page capacity the engine
//                           cross-checks at construction
//   nn/kv_cache           — paged per-session K/V state: page-table
//                           indirection over a refcounted KvPagePool, so
//                           memory tracks the tokens sessions actually hold
//   nn::StageModule       — decode_step() is the one extend path: it appends
//                           every row's K/V and attends, whether a row is a
//                           decoded token or part of an admitted prompt
//   runtime/deployment    — the shared hosting layer: every stage replica's
//                           module and cache on persistent rank threads;
//                           every round is one pool dispatch
//
// Continuous batching: a session table admits queued requests into free
// lanes *mid-flight* — finished sequences (EOS or max_new_tokens) retire the
// moment their last token is sampled and their lanes refill at the next
// step's admission; there is no round barrier between unrelated requests.
// Each step runs (1) an admission pass (resumes first, then fresh requests)
// that reserves the pages of each admitted prompt's uncached suffix, (2)
// page growth for the sessions already decoding, and (3) one decode round.
// Per stream the round carries every decoding session's current token at
// its position, followed by each admitted session's suffix rows
// [skip, T) — same slot, consecutive positions. An admitted session's first
// token comes from its last row; it decodes from the next step on.
//
// Paged admission and preemption (DESIGN.md §8): admission reserves the
// pages a prompt needs before dispatch — under pressure it unpins prefix-
// registry entries (LRU) and otherwise requeues the request; it never
// preempts running sessions. Decode growth (one page at a page boundary, or
// a COW split of a shared page) is what preempts: when a session's next
// position cannot be backed, the engine parks the lowest-priority session
// on the pipe (the grower itself as last resort) — its lanes and pages are
// released, and it resumes later by a deterministic re-prefill over
// prompt+generated whose final-row logits seed the next token with the
// preserved RNG stream. A victim admitted this step is parked before the
// round is built, so its rows never run. The pool always holds at least
// one full-length session, so a sole session can never deadlock.
//
// Prefix sharing: after a fresh prompt's rows run, its pages are pinned in a
// per-pipe registry; later prompts sharing a ≥page_size token prefix adopt
// those pages copy-on-write and their rows start after the shared positions,
// which cost no compute (by causality the cached rows are bitwise what a
// recompute would produce). A prompt the registry covers in full still
// recomputes its final position — into a private or COW-split page, never
// into a shared one — because that row's logits seed its first token.
//
// Determinism contract (tests/decode_test.cc, tests/paged_kv_test.cc): each
// decode step's logits row is bitwise equal to the final-position logits of
// a full re-forward over that session's token prefix, for every scheme —
// the kernels' fixed accumulation orders make the incremental path exact,
// and paging/sharing/evict-resume only change *where* K/V rows live, never
// their values. Sampling is deterministic too: greedy, or top-k driven by a
// per-session support/rng stream that survives preemption.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/decode_schedule.h"
#include "nn/kv_cache.h"
#include "nn/stage.h"
#include "obs/metrics.h"
#include "runtime/deployment.h"
#include "runtime/options.h"
#include "runtime/request.h"

namespace chimera::rt {

/// One generated token, streamed to the on_token callback the moment it is
/// sampled (time-to-first-token is observable per request, not per batch).
struct TokenEvent {
  std::uint64_t id = 0;  ///< request id
  int token = 0;
  int index = 0;         ///< 0-based position within the generated sequence
  bool is_last = false;  ///< the session retired with this token
  long time_us = 0;
  /// The [1, vocab] logits the token was sampled from — only populated
  /// under DecodeOptions::capture_logits (the parity-test hook).
  Tensor logits;
};

/// One finished request: the generated sequence plus its latency stamps.
struct DecodeResult {
  std::uint64_t id = 0;
  std::vector<int> prompt;
  std::vector<int> tokens;  ///< generated (includes the EOS token if hit)
  long enqueue_us = 0;
  long first_token_us = 0;
  long done_us = 0;
  long ttft_us() const { return first_token_us - enqueue_us; }
};

/// Cumulative accounting of one decode engine.
struct DecodeStats {
  static constexpr std::size_t kMaxLatencySamples = 1 << 16;

  long steps = 0;           ///< scheduler ticks
  long decode_rounds = 0;   ///< pool dispatches (one per step with work)
  long tokens = 0;          ///< generated tokens
  long admitted = 0;        ///< fresh sessions admitted into lanes
  long retired = 0;         ///< sessions completed (lanes freed)
  /// Batcher efficiency (the decode analogue of ServingStats::padded_rows):
  /// lane-steps a dispatched decode stream ran below its max_batch width —
  /// capacity the continuous batcher could not fill from the queue.
  long idle_lane_steps = 0;
  /// Lane-steps actually carrying a session — decoding, or admitted and
  /// carried by the round as prompt rows.
  long occupied_lane_steps = 0;
  long queue_depth = 0;          ///< waiting requests when stats() was taken
  long max_queue_depth = 0;      ///< intake high-water mark
  long dropped_results = 0;      ///< results evicted before take_completed()
  // ---- paged KV accounting (DESIGN.md §8). Logical counts: one stage
  // replica per pipe is sampled (all replicas of a pipe behave identically)
  // and pipes are summed.
  long pool_pages = 0;          ///< total page capacity across pipes
  long pages_in_use_peak = 0;   ///< high-water mark of claimed pages
  long cow_splits = 0;          ///< copy-on-write page splits
  long prefix_hits = 0;         ///< admissions that adopted registry pages
  long evictions = 0;           ///< sessions parked under page pressure
  long resumes = 0;             ///< parked sessions re-admitted
  long resume_prefill_tokens = 0;  ///< positions recomputed by resumes
  long prefill_rows = 0;        ///< prompt rows run by admissions + resumes
  long prefix_rows_skipped = 0; ///< prompt rows served by shared pages
  long parked = 0;              ///< sessions parked when stats() was taken
  /// Bounded most-recent reservoirs (ring overwrite past kMaxLatencySamples).
  obs::Histogram ttft_us{kMaxLatencySamples};  ///< enqueue→first-token
  obs::Histogram inter_token_us{kMaxLatencySamples};  ///< token-to-token

  /// Every counter plus both latency histograms as one registry — the
  /// single emission path the benches flatten into BENCH_*.json extras.
  obs::MetricsRegistry metrics() const;
};

class DecodeEngine {
 public:
  /// Builds the steady-state decode schedule of `scheme`
  /// (`sched_cfg.num_micro` decode streams, `pipes_f` Chimera pairs), plans
  /// the partition, sizes one PagedKvCache per hosted stage replica
  /// (streams-on-pipe × max_batch lanes; kv_pool_pages pages, 0 = the
  /// arena-equivalent lanes × pages-per-session) and hosts the modules on
  /// persistent rank threads. The constructed pools are cross-checked
  /// against the plan's kv_page_budget().
  DecodeEngine(const nn::SmallModelConfig& model, Scheme scheme,
               const ScheduleConfig& sched_cfg, const DecodeOptions& opts);

  const PipelineSchedule& schedule() const { return dep_->schedule(); }
  const ExecutionPlan& plan() const { return dep_->plan(); }
  const Partition& partition() const { return dep_->partition(); }

  /// The pipe's representative KV cache (its stage-0 replica's) — every
  /// replica of a pipe holds identical paging state, so policy decisions
  /// read this one and mutations go to all through for_each_cache.
  const nn::PagedKvCache& pipe_cache(int pipe) const {
    return dep_->unit(schedule().worker_of(pipe, 0), pipe, 0).cache;
  }

  /// Concurrent-session capacity: decode streams × max_batch. With a
  /// shrunken pool (kv_pool_pages > 0) this is the lane count, not a
  /// memory guarantee — page pressure parks the excess.
  int session_capacity() const { return capacity_; }
  /// Total KV page-pool bytes reserved across every stage replica.
  std::size_t cache_bytes() const { return cache_bytes_; }
  /// The page geometry the engine planned with (for plan_json exports and
  /// bench reporting).
  const KvPageGeometry& page_geometry() const { return geometry_; }
  /// Serialized plan + kv_pages claim (core/plan_json.h) — what the
  /// standalone verifier's kPageBudget check consumes.
  std::string plan_json() const;

  /// Per-token stream callback, fired outside the engine lock in sampling
  /// order. Not thread-safe against a concurrent step() — set it before
  /// generating.
  void set_on_token(std::function<void(const TokenEvent&)> cb) {
    on_token_ = std::move(cb);
  }

  /// Thread-safe: enqueues one generation request. The prompt may be any
  /// length in [1, model.seq] with in-vocabulary ids — violations throw
  /// the recoverable RequestError (same validation as serving, variable
  /// lengths; runtime/request.h). `max_new_tokens` 0 uses the engine
  /// default; either way generation is capped so positions stay inside the
  /// learned embeddings. Higher `priority` sessions are parked last under
  /// page pressure (ties: newer ids park first). Returns the request id.
  std::uint64_t submit(std::vector<int> prompt, int max_new_tokens = 0,
                       int priority = 0);

  static constexpr std::size_t kMaxQueuedRequests = 1 << 16;
  static constexpr std::size_t kMaxCompletedResults = 1 << 16;
  /// Prefix-registry entries kept per pipe (LRU beyond this).
  static constexpr std::size_t kMaxPrefixEntries = 8;

  /// One scheduler tick: resume/admission with page reservation, page
  /// growth/preemption for decoding sessions, then one decode round that
  /// also carries the (re-)admitted sessions' prompt rows. Returns the
  /// number of tokens emitted. Not reentrant; drive it from one thread
  /// (submit() may race freely).
  int step();

  /// True when no request is queued, no session is in flight and none is
  /// parked awaiting resume.
  bool idle() const;

  /// Steps until idle, then returns every completed result (the synchronous
  /// drain — the decode counterpart of ServingEngine::serve_pending).
  std::vector<DecodeResult> run_until_drained();

  /// Removes and returns accumulated results (bounded by
  /// kMaxCompletedResults; oldest dropped first into dropped_results).
  std::vector<DecodeResult> take_completed();

  DecodeStats stats() const;

 private:
  /// One hosted stage replica: its module and its pipe's KV pages.
  struct StageUnit {
    nn::StageModule module;
    nn::PagedKvCache cache;
  };
  struct PendingDecode {
    std::uint64_t id = 0;
    std::vector<int> prompt;
    int max_new = 0;
    int priority = 0;
    long enqueue_us = 0;
  };
  struct Session {
    std::uint64_t id = 0;
    std::vector<int> prompt;
    std::vector<int> generated;
    int max_new = 0;  ///< effective cap (position-limited)
    int priority = 0;
    int micro = 0, lane = 0, pipe = 0, slot = 0;
    /// ≥ 0 while (re-)admitted this step: the round carries its rows
    /// [extend_from, T) instead of one decode row; positions below are
    /// served by adopted prefix pages.
    int extend_from = -1;
    long enqueue_us = 0, first_token_us = 0, last_token_us = 0;
    Rng rng;  ///< per-session sampling stream (survives preemption)
  };
  /// One pinned prompt in a pipe's prefix registry: sessions admitted later
  /// with a matching token prefix adopt `pages` copy-on-write. Page ids are
  /// valid for every stage replica of the pipe (deterministic allocator +
  /// identical op sequence), so one vector serves all of them.
  struct PrefixEntry {
    std::uint64_t id = 0;      ///< donor session id (diagnostics)
    std::vector<int> tokens;   ///< the donor's prompt
    int valid_len = 0;         ///< positions of `pages` holding prefix rows
    std::vector<int> pages;    ///< pinned page ids, position order
    long last_used_step = 0;   ///< LRU stamp (admission match refreshes)
  };

  void run_worker(int w);
  int sample_token(const float* row, Rng& rng);
  /// Emits one sampled token for `s`: stamps, reservoirs, TokenEvent, and
  /// either retires the session (lanes released, result queued) or keeps it
  /// active. Caller holds the lock. Returns true if the session retired.
  bool emit_token(Session& s, int token, long now, const float* logits_row,
                  std::vector<TokenEvent>& events);
  /// Calls fn(cache) for every stage replica of `pipe`, in stage order.
  template <class Fn>
  void for_each_cache(int pipe, Fn fn) {
    for (int stage = 0; stage < schedule().depth; ++stage)
      fn(dep_->unit(schedule().worker_of(pipe, stage), pipe, stage).cache);
  }
  /// Unpins and removes the least-recently-used prefix entry of `pipe`
  /// (lowest last_used_step, oldest id on ties). Returns false when the
  /// registry is empty.
  bool unpin_lru_prefix(int pipe);
  /// Parks session `sid`: lanes and pages released, state moved to the
  /// resume queue, stats updated. Caller holds the lock.
  void park_session(std::uint64_t sid);
  /// Frees pages on `pipe` until `need` can be allocated: unpins registry
  /// entries LRU-first, then parks the lowest-priority active session
  /// repeatedly — except `protect`, which is only parked by the caller.
  /// Returns true once free_pages ≥ need, false when only `protect` is left
  /// to take pages from.
  bool free_pipe_pages(int pipe, int need, std::uint64_t protect);
  /// Best prefix-registry match for `tokens` on `pipe`: sets `skip` to the
  /// positions whose rows need no compute (the match, ≥ page_size, capped
  /// at tokens.size() − 1 so the final row still runs; 0 on a miss) and
  /// returns the entry, or nullptr. Refreshes the entry's LRU stamp.
  PrefixEntry* match_prefix(int pipe, const std::vector<int>& tokens,
                            int* skip);
  /// Pins the just-computed prompt pages of `s` into the pipe's registry
  /// (capped LRU). Caller: fresh sessions that adopted no prefix.
  void register_prefix(const Session& s);

  nn::SmallModelConfig model_;
  DecodeOptions opts_;
  EngineClock clock_;
  KvPageGeometry geometry_;
  std::vector<int> stream_pos_;   ///< [micro] position within its pipe
  int capacity_ = 0;
  std::size_t cache_bytes_ = 0;

  /// Round state shared with the rank threads during one pool dispatch; the
  /// dispatch barrier orders every access. Streams with slot_active_[m]
  /// false are skipped wholesale by every worker.
  std::vector<char> slot_active_;                    ///< [micro]
  std::vector<std::vector<int>> rd_tokens_, rd_slots_, rd_positions_;
  std::vector<Tensor> round_logits_;  ///< [micro], written by tail stages
  /// [micro][lane]: the logits row a lane's next token is sampled from (its
  /// only decode row, or its prompt's last row); engine thread only.
  std::vector<std::vector<int>> rd_last_row_;

  mutable std::mutex mutex_;  ///< guards queue_/sessions_/completed_/stats_
  std::deque<PendingDecode> queue_;
  std::map<std::uint64_t, Session> sessions_;
  std::vector<std::vector<std::uint64_t>> lanes_;  ///< [micro][lane]: 0 = free
  /// Sessions parked by preemption, in park order; resumed FIFO ahead of
  /// fresh admissions.
  std::deque<Session> parked_;
  std::vector<std::vector<PrefixEntry>> registry_;  ///< [pipe]
  std::deque<DecodeResult> completed_;
  DecodeStats stats_;
  std::uint64_t next_id_ = 1;
  /// Top-k sampling scratch (candidate ids + softmax weights), hoisted out
  /// of the per-token hot loop; only touched under the step lock.
  std::vector<int> topk_idx_;
  std::vector<double> topk_weight_;
  std::atomic<bool> in_step_{false};
  std::function<void(const TokenEvent&)> on_token_;
  /// Last member: its pool parks and joins the rank threads while the state
  /// above is still alive.
  std::unique_ptr<Deployment<StageUnit>> dep_;
};

}  // namespace chimera::rt
