#include "runtime/decode.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/plan_json.h"
#include "obs/trace.h"

namespace chimera::rt {

DecodeEngine::DecodeEngine(const nn::SmallModelConfig& model, Scheme scheme,
                           const ScheduleConfig& sched_cfg,
                           const DecodeOptions& opts)
    : model_(model), opts_(opts), clock_(opts.clock) {
  CHIMERA_CHECK_MSG(opts.max_batch >= 1, "max_batch must be positive");
  CHIMERA_CHECK_MSG(opts.max_new_tokens >= 1, "max_new_tokens must be >= 1");
  CHIMERA_CHECK_MSG(opts.top_k >= 1, "top_k must be >= 1");
  CHIMERA_CHECK_MSG(opts.eos_token >= -1 && opts.eos_token < model.vocab,
                    "eos_token outside the vocabulary");
  CHIMERA_CHECK_MSG(model.causal, "decoding requires a causal LM");
  CHIMERA_CHECK_MSG(opts.kv_page_size >= 1 && opts.kv_page_size <= model.seq,
                    "kv_page_size must be in [1, model.seq]");
  CHIMERA_CHECK_MSG(opts.kv_pool_pages >= 0,
                    "kv_pool_pages must be >= 0 (0 = arena-equivalent)");
  PipelineSchedule sched = build_decode_schedule(scheme, sched_cfg);
  geometry_ = KvPageGeometry{opts.kv_page_size, model.seq, opts.max_batch,
                             opts.kv_pool_pages};

  const int D = sched.depth;
  const int N = sched.num_micro;
  const int P = sched.num_pipes;
  // Stream geometry: micro slot m is the stream_pos_[m]-th stream of its
  // pipe; its sessions' cache indices are stream_pos_[m]·max_batch + lane in
  // every stage replica of that pipe.
  std::vector<int> streams_on_pipe(P, 0);
  stream_pos_.resize(N);
  for (int m = 0; m < N; ++m)
    stream_pos_[m] = streams_on_pipe[sched.pipe_of_micro[m]]++;

  Partition partition = plan_partition(model_.spec(), D, opts.partition);
  dep_ = std::make_unique<Deployment<StageUnit>>(
      std::move(sched), std::move(partition), /*groups=*/1, opts_,
      [&](int, int pipe, int stage, StageRange layers) {
        // A streamless pipe (N < num_pipes) still hosts replicas; give its
        // caches one never-claimed lane so construction stays uniform.
        const int lanes = std::max(1, streams_on_pipe[pipe] * opts_.max_batch);
        const int pool_pages = opts_.kv_pool_pages > 0
                                   ? opts_.kv_pool_pages
                                   : lanes * geometry_.pages_per_session();
        return StageUnit{nn::StageModule(model_, stage, D, layers),
                         nn::PagedKvCache(layers.size(), lanes, model_.seq,
                                          model_.hidden, opts_.kv_page_size,
                                          pool_pages)};
      });

  // The plan's cache-slot events must agree with the lane sizing: each
  // worker's binding capacity is exactly the streams its replicas cache.
  // And the page generalization: the pools just constructed must add up to
  // the budget the planning layer derives from the same geometry — the
  // claim plan_json() exports and verify/ re-checks (kPageBudget).
  const std::vector<int> bindings = max_live_cache_bindings(plan());
  const std::vector<int> budget = kv_page_budget(plan(), geometry_);
  for (int w = 0; w < D; ++w) {
    int streams = 0;
    for (auto [pipe, stage] : schedule().hosted_stages(w))
      streams += streams_on_pipe[pipe];
    CHIMERA_CHECK_MSG(streams == bindings[w],
                      "plan cache events disagree with cache sizing on "
                      "worker " << w);
    int pages = 0;
    for (const auto& u : dep_->units(w)) {
      pages += u->cache.pool_pages();
      cache_bytes_ += u->cache.bytes();
    }
    CHIMERA_CHECK_MSG(pages == budget[w],
                      "plan page budget disagrees with constructed pools on "
                      "worker " << w << ": " << budget[w] << " vs " << pages);
  }

  capacity_ = N * opts_.max_batch;
  lanes_.assign(N, std::vector<std::uint64_t>(opts_.max_batch, 0));
  registry_.resize(P);
  slot_active_.assign(N, 0);
  rd_tokens_.resize(N);
  rd_slots_.resize(N);
  rd_positions_.resize(N);
  round_logits_.resize(N);
  rd_last_row_.assign(N, std::vector<int>(opts_.max_batch, -1));
}

std::string DecodeEngine::plan_json() const {
  return plan_to_json(plan(), &partition(), &geometry_);
}

std::uint64_t DecodeEngine::submit(std::vector<int> prompt,
                                   int max_new_tokens, int priority) {
  // Same recoverable validation as serving, with variable lengths: any
  // prompt up to the model's context window (runtime/request.h).
  validate_tokens(prompt, 1, model_.seq, model_.vocab);
  if (max_new_tokens < 0)
    throw RequestError("max_new_tokens must be >= 0 (0 = engine default)");
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.size() >= kMaxQueuedRequests)
    throw RequestError("decode queue full (" + std::to_string(queue_.size()) +
                       ") — back off and retry");
  const std::uint64_t id = next_id_++;
  const int cap = max_new_tokens > 0 ? max_new_tokens : opts_.max_new_tokens;
  queue_.push_back(
      PendingDecode{id, std::move(prompt), cap, priority, clock_.now_us()});
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth, static_cast<long>(queue_.size()));
  return id;
}

void DecodeEngine::run_worker(int w) {
  Deployment<StageUnit>& dep = *dep_;
  const std::vector<PlannedOp>& wplan = dep.plan().worker_plan(w);
  for (std::size_t opi = 0; opi < wplan.size(); ++opi) {
    const PlannedOp& pop = wplan[opi];
    const MicroUnit& u = pop.units.front();
    // Streams without work this round are skipped wholesale: every worker
    // computes the same predicate from the shared round state, so sends and
    // recvs stay matched (same contract as the serving engine). Skipped ops
    // record no span — the trace shows only what ran.
    if (!slot_active_[u.micro]) continue;
    obs::OpSpan op_span(obs::EventKind::kDecodeOp, w, w,
                        static_cast<int>(opi), pop.op.micro, pop.op.stage,
                        pop.op.pipe);
    if (u.acquires_cache_slot)
      obs::instant(obs::EventKind::kCacheAcquire, w, u.micro, pop.op.stage,
                   pop.op.pipe, u.micro);
    StageUnit& unit = dep.unit(w, pop.op.pipe, pop.op.stage);
    Tensor x;
    if (u.recv_from >= 0) x = dep.recv(w, pop.op, u);
    Tensor y = unit.module.decode_step(rd_tokens_[u.micro], rd_slots_[u.micro],
                                       rd_positions_[u.micro], x, unit.cache);
    if (u.send_to >= 0)
      dep.send(w, pop.op, u, std::move(y));
    else if (u.releases_cache_slot)
      round_logits_[u.micro] = std::move(y);
    if (u.releases_cache_slot)
      obs::instant(obs::EventKind::kCacheRelease, w, u.micro, pop.op.stage,
                   pop.op.pipe, u.micro);
  }
}

int DecodeEngine::sample_token(const float* row, Rng& rng) {
  const int V = model_.vocab;
  if (opts_.sampling == SamplingKind::kGreedy) {
    int best = 0;
    for (int v = 1; v < V; ++v)
      if (row[v] > row[best]) best = v;
    return best;
  }
  const int k = std::min(opts_.top_k, V);
  // Deterministic candidate order: logit descending, id ascending on ties.
  // Scratch buffers are engine members (the zero-realloc hot path); the
  // iota refill is needed because partial_sort permutes them.
  topk_idx_.resize(static_cast<std::size_t>(V));
  std::iota(topk_idx_.begin(), topk_idx_.end(), 0);
  std::partial_sort(topk_idx_.begin(), topk_idx_.begin() + k,
                    topk_idx_.end(), [&](int a, int b) {
                      if (row[a] != row[b]) return row[a] > row[b];
                      return a < b;
                    });
  // Softmax over the k candidates in double precision — sampling is not
  // part of the bitwise logits contract, only of the rng-determinism one.
  const double mx = row[topk_idx_[0]];
  topk_weight_.resize(static_cast<std::size_t>(k));
  double sum = 0.0;
  for (int i = 0; i < k; ++i) {
    topk_weight_[i] = std::exp(static_cast<double>(row[topk_idx_[i]]) - mx);
    sum += topk_weight_[i];
  }
  const double u = rng.next_double() * sum;
  double cum = 0.0;
  for (int i = 0; i < k; ++i) {
    cum += topk_weight_[i];
    if (u < cum) return topk_idx_[i];
  }
  return topk_idx_[k - 1];
}

obs::MetricsRegistry DecodeStats::metrics() const {
  obs::MetricsRegistry reg;
  reg.set_counter("steps", static_cast<double>(steps));
  reg.set_counter("decode_rounds", static_cast<double>(decode_rounds));
  reg.set_counter("tokens", static_cast<double>(tokens));
  reg.set_counter("admitted", static_cast<double>(admitted));
  reg.set_counter("retired", static_cast<double>(retired));
  reg.set_counter("idle_lane_steps", static_cast<double>(idle_lane_steps));
  reg.set_counter("occupied_lane_steps",
                  static_cast<double>(occupied_lane_steps));
  reg.set_counter("dropped_results", static_cast<double>(dropped_results));
  reg.set_counter("cow_splits", static_cast<double>(cow_splits));
  reg.set_counter("prefix_hits", static_cast<double>(prefix_hits));
  reg.set_counter("evictions", static_cast<double>(evictions));
  reg.set_counter("resumes", static_cast<double>(resumes));
  reg.set_counter("resume_prefill_tokens",
                  static_cast<double>(resume_prefill_tokens));
  reg.set_counter("prefill_rows", static_cast<double>(prefill_rows));
  reg.set_counter("prefix_rows_skipped",
                  static_cast<double>(prefix_rows_skipped));
  reg.set_gauge("queue_depth", static_cast<double>(queue_depth));
  reg.set_gauge("max_queue_depth", static_cast<double>(max_queue_depth));
  reg.set_gauge("pool_pages", static_cast<double>(pool_pages));
  reg.set_gauge("pages_in_use_peak", static_cast<double>(pages_in_use_peak));
  reg.set_gauge("parked", static_cast<double>(parked));
  reg.set_histogram("ttft_us", ttft_us);
  reg.set_histogram("inter_token_us", inter_token_us);
  return reg;
}

bool DecodeEngine::emit_token(Session& s, int token, long now,
                              const float* logits_row,
                              std::vector<TokenEvent>& events) {
  s.generated.push_back(token);
  const int index = static_cast<int>(s.generated.size()) - 1;
  if (index == 0) {
    s.first_token_us = now;
    stats_.ttft_us.add(now - s.enqueue_us);
  } else {
    stats_.inter_token_us.add(now - s.last_token_us);
  }
  s.last_token_us = now;
  ++stats_.tokens;
  obs::instant(obs::EventKind::kToken, obs::thread_worker(), s.micro, -1,
               s.pipe, static_cast<long>(s.id));
  const bool done = token == opts_.eos_token ||
                    static_cast<int>(s.generated.size()) >= s.max_new;
  TokenEvent ev;
  ev.id = s.id;
  ev.token = token;
  ev.index = index;
  ev.is_last = done;
  ev.time_us = now;
  if (opts_.capture_logits) {
    ev.logits.reshape(1, model_.vocab);
    std::copy(logits_row, logits_row + model_.vocab, ev.logits.data());
  }
  events.push_back(std::move(ev));
  if (done) {
    // Retire immediately: the lane is free for the next step's admission —
    // no round barrier between unrelated requests. release() derefs the
    // session's page-table entries; pages shared with the registry or with
    // prefix siblings survive until their last reader drops.
    for_each_cache(s.pipe, [&](nn::PagedKvCache& c) { c.release(s.slot); });
    lanes_[s.micro][s.lane] = 0;
    ++stats_.retired;
    DecodeResult res;
    res.id = s.id;
    res.prompt = std::move(s.prompt);
    res.tokens = std::move(s.generated);
    res.enqueue_us = s.enqueue_us;
    res.first_token_us = s.first_token_us;
    res.done_us = now;
    completed_.push_back(std::move(res));
    if (completed_.size() > kMaxCompletedResults) {
      completed_.pop_front();
      ++stats_.dropped_results;
    }
  }
  return done;
}

bool DecodeEngine::unpin_lru_prefix(int pipe) {
  auto& reg = registry_[pipe];
  if (reg.empty()) return false;
  std::size_t lru = 0;
  for (std::size_t i = 1; i < reg.size(); ++i) {
    if (reg[i].last_used_step < reg[lru].last_used_step ||
        (reg[i].last_used_step == reg[lru].last_used_step &&
         reg[i].id < reg[lru].id))
      lru = i;
  }
  for_each_cache(pipe, [&](nn::PagedKvCache& c) {
    c.deref_pages(reg[lru].pages);
  });
  reg.erase(reg.begin() + static_cast<std::ptrdiff_t>(lru));
  return true;
}

void DecodeEngine::park_session(std::uint64_t sid) {
  auto it = sessions_.find(sid);
  CHIMERA_CHECK(it != sessions_.end());
  Session& s = it->second;
  for_each_cache(s.pipe, [&](nn::PagedKvCache& c) { c.release(s.slot); });
  lanes_[s.micro][s.lane] = 0;
  ++stats_.evictions;
  obs::instant(obs::EventKind::kPark, obs::thread_worker(), s.micro, -1,
               s.pipe, static_cast<long>(s.id));
  parked_.push_back(std::move(s));
  sessions_.erase(it);
}

bool DecodeEngine::free_pipe_pages(int pipe, int need, std::uint64_t protect) {
  const nn::PagedKvCache& cache = pipe_cache(pipe);
  while (cache.free_pages() < need) {
    // Cheapest first: a registry pin holds pages no live session needs.
    if (unpin_lru_prefix(pipe)) continue;
    // Then preempt: the lowest-priority active session of the pipe parks
    // (newest id on ties — the one that has sunk the least work). Releasing
    // a session whose pages are all shared frees nothing, so keep going.
    const Session* victim = nullptr;
    for (const auto& [sid, s] : sessions_) {
      if (s.pipe != pipe || sid == protect) continue;
      if (lanes_[s.micro][s.lane] != sid) continue;  // not active
      if (victim == nullptr || s.priority < victim->priority ||
          (s.priority == victim->priority && s.id > victim->id))
        victim = &s;
    }
    if (victim == nullptr) return false;  // only `protect` is left
    park_session(victim->id);
  }
  return true;
}

DecodeEngine::PrefixEntry* DecodeEngine::match_prefix(
    int pipe, const std::vector<int>& tokens, int* skip) {
  *skip = 0;
  if (!opts_.prefix_sharing) return nullptr;
  PrefixEntry* best = nullptr;
  int best_len = 0;
  for (PrefixEntry& e : registry_[pipe]) {
    const std::size_t lim =
        std::min(tokens.size(), static_cast<std::size_t>(e.valid_len));
    std::size_t lcp = 0;
    while (lcp < lim && tokens[lcp] == e.tokens[lcp]) ++lcp;
    const int len = static_cast<int>(lcp);
    // Sub-page matches are not worth a table entry; prefer longer matches,
    // then older donors (lowest id) for determinism.
    if (len >= opts_.kv_page_size && len > best_len) {
      best = &e;
      best_len = len;
    }
  }
  if (best != nullptr) {
    // A fully covered prompt still computes its final row: its logits seed
    // the first token.
    *skip = std::min(best_len, static_cast<int>(tokens.size()) - 1);
    best->last_used_step = stats_.steps;
  }
  return best;
}

void DecodeEngine::register_prefix(const Session& s) {
  if (!opts_.prefix_sharing) return;
  const int L = static_cast<int>(s.prompt.size());
  if (L < opts_.kv_page_size) return;
  auto& reg = registry_[s.pipe];
  // Skip duplicates: a prompt already fully covered by an entry would have
  // matched at admission — except when both arrived in the same step, which
  // this catches.
  for (const PrefixEntry& e : reg) {
    if (e.valid_len >= L &&
        std::equal(s.prompt.begin(), s.prompt.end(), e.tokens.begin()))
      return;
  }
  PrefixEntry entry;
  entry.id = s.id;
  entry.tokens = s.prompt;
  entry.valid_len = L;
  entry.pages = pipe_cache(s.pipe).page_table(s.slot);
  entry.last_used_step = stats_.steps;
  for_each_cache(s.pipe, [&](nn::PagedKvCache& c) {
    c.ref_pages(entry.pages);
  });
  reg.push_back(std::move(entry));
  while (reg.size() > kMaxPrefixEntries) unpin_lru_prefix(s.pipe);
}

int DecodeEngine::step() {
  CHIMERA_CHECK_MSG(!in_step_.exchange(true), "step() is not reentrant");
  // A rank exception (rethrown by WorkerPool::run), a shape CHECK or a
  // throwing on_token callback must not leave the reentrancy latch set —
  // the next step() would fail with a misleading diagnostic forever.
  struct StepGuard {
    std::atomic<bool>& flag;
    ~StepGuard() { flag = false; }
  } guard{in_step_};
  const int N = schedule().num_micro;
  const int B = opts_.max_batch;
  std::vector<TokenEvent> events;
  int emitted = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.steps;

  // ---- admission: refill free lanes, resumes first, then the queue -------
  // Lane-major order: fill lane 0 of every stream before lane 1 of any, so
  // a light load spreads across the streams — and therefore across both
  // pipe directions of the Chimera pairing — instead of packing one pipe
  // full while its partner idles (stream-major filling would degenerate
  // low-occupancy decoding to a single-direction pipeline).
  //
  // Every admission reserves its prompt's pages up front. Under pressure it
  // unpins registry entries but never preempts running sessions (that
  // privilege is growth's, below) — a request that still does not fit marks
  // its pipe full for this step and waits.
  std::deque<Session> resume = std::move(parked_);
  parked_.clear();
  std::vector<char> pipe_full(schedule().num_pipes, 0);
  for (int l = 0; l < B; ++l) {
    for (int m = 0; m < N; ++m) {
      if (resume.empty() && queue_.empty()) break;
      if (lanes_[m][l] != 0) continue;
      const int p = schedule().pipe_of_micro[m];
      if (pipe_full[p]) continue;
      const bool is_resume = !resume.empty();
      Session s;
      if (is_resume) {
        s = std::move(resume.front());
        resume.pop_front();
      } else {
        PendingDecode req = std::move(queue_.front());
        queue_.pop_front();
        s.id = req.id;
        s.prompt = std::move(req.prompt);
        const int L = static_cast<int>(s.prompt.size());
        // Cap generation so every decoded position stays inside the learned
        // embeddings: the prompt's final row seeds token 1 "for free",
        // hence the +1.
        s.max_new = std::min(req.max_new, model_.seq - L + 1);
        s.priority = req.priority;
        s.enqueue_us = req.enqueue_us;
        s.rng = Rng(opts_.sample_seed).split(s.id);
      }
      s.micro = m;
      s.lane = l;
      s.pipe = p;
      s.slot = stream_pos_[m] * B + l;
      // The re-prefill of a resume spans everything the session has seen:
      // its final row is then bitwise the pending next-token distribution
      // (the step-vs-reforward contract applied to prompt+generated).
      const int T = static_cast<int>(s.prompt.size() + s.generated.size());
      CHIMERA_CHECK(T <= model_.seq);
      for_each_cache(p, [&](nn::PagedKvCache& c) { c.claim(s.slot); });
      int skip = 0;
      std::vector<int> tokens = s.prompt;
      tokens.insert(tokens.end(), s.generated.begin(), s.generated.end());
      PrefixEntry* donor = match_prefix(p, tokens, &skip);
      if (donor != nullptr) {
        // Adopt ceil(skip/page_size) pages copy-on-write; a partially
        // matched last page splits at the first write below.
        const int adopt = nn::PagedKvCache::pages_for(skip, opts_.kv_page_size);
        std::vector<int> pages(donor->pages.begin(),
                               donor->pages.begin() + adopt);
        for_each_cache(p, [&](nn::PagedKvCache& c) {
          c.adopt_prefix(s.slot, pages);
        });
      }
      const nn::PagedKvCache& cache = pipe_cache(p);
      int need = cache.pages_needed(s.slot, skip, T);
      while (need > cache.free_pages() && unpin_lru_prefix(p))
        need = cache.pages_needed(s.slot, skip, T);
      if (need > cache.free_pages()) {
        // Undo and wait: the pipe's pages are held by running sessions.
        for_each_cache(p, [&](nn::PagedKvCache& c) { c.release(s.slot); });
        pipe_full[p] = 1;
        if (is_resume)
          resume.push_front(std::move(s));
        else
          queue_.push_front(PendingDecode{s.id, std::move(s.prompt),
                                          s.max_new, s.priority,
                                          s.enqueue_us});
        continue;
      }
      for_each_cache(p, [&](nn::PagedKvCache& c) {
        c.ensure_writable(s.slot, skip, T);
      });
      if (skip > 0) {
        ++stats_.prefix_hits;
        obs::instant(obs::EventKind::kPrefixHit, obs::thread_worker(), m, -1,
                     p, skip);
      }
      if (is_resume) {
        ++stats_.resumes;
        stats_.resume_prefill_tokens += T - skip;
        obs::instant(obs::EventKind::kResume, obs::thread_worker(), m, -1, p,
                     static_cast<long>(s.id));
      } else {
        ++stats_.admitted;
        obs::instant(obs::EventKind::kAdmit, obs::thread_worker(), m, -1, p,
                     static_cast<long>(s.id));
      }
      s.extend_from = skip;
      lanes_[m][l] = s.id;
      sessions_.emplace(s.id, std::move(s));
    }
  }
  // Resumes that found no lane or no pages stay parked, order preserved.
  for (auto it = resume.rbegin(); it != resume.rend(); ++it)
    parked_.push_front(std::move(*it));

  // ---- page growth / preemption for the decoding sessions ----------------
  // Each decoding session writes K/V at one new position: at most one page
  // (a boundary crossing, or a COW split of a shared page). Sessions
  // admitted this step have their rows' pages reserved already. Under pool
  // exhaustion the lowest-priority session of the pipe parks — the grower
  // itself as last resort (the pool holds ≥ one full session, so a sole
  // session always proceeds). Runs before the round is built, so a parked
  // session — one admitted this step included — never runs its rows.
  for (int m = 0; m < N; ++m) {
    for (int l = 0; l < B; ++l) {
      const std::uint64_t sid = lanes_[m][l];
      if (sid == 0) continue;
      Session& s = sessions_.at(sid);
      if (s.extend_from >= 0) continue;
      const int pos = static_cast<int>(s.prompt.size()) +
                      static_cast<int>(s.generated.size()) - 1;
      const nn::PagedKvCache& cache = pipe_cache(s.pipe);
      const int need = cache.pages_needed(s.slot, pos, pos + 1);
      if (need > cache.free_pages() &&
          !free_pipe_pages(s.pipe, need, sid)) {
        park_session(sid);
        continue;
      }
      // free_pipe_pages may have parked sessions on this pipe, but never
      // this one — its write target is guaranteed backed now.
      const long splits_before =
          obs::enabled() ? cache.cow_splits() : 0;
      for_each_cache(s.pipe, [&](nn::PagedKvCache& c) {
        c.ensure_writable(s.slot, pos, pos + 1);
      });
      if (obs::enabled() && cache.cow_splits() > splits_before)
        obs::instant(obs::EventKind::kCowSplit, obs::thread_worker(), s.micro,
                     -1, s.pipe, cache.cow_splits() - splits_before);
    }
  }

  // ---- the round: per stream, decode rows, then admitted prompt rows -----
  bool any_rows = false;
  for (int m = 0; m < N; ++m) {
    rd_tokens_[m].clear();
    rd_slots_[m].clear();
    rd_positions_[m].clear();
    // Rows [from, to) of lane l's session: its tokens at consecutive
    // positions of its slot.
    const auto add_rows = [&](int l, const Session& s, int from, int to) {
      const int L = static_cast<int>(s.prompt.size());
      for (int t = from; t < to; ++t) {
        rd_tokens_[m].push_back(t < L ? s.prompt[t] : s.generated[t - L]);
        rd_slots_[m].push_back(s.slot);
        rd_positions_[m].push_back(t);
      }
      rd_last_row_[m][l] = static_cast<int>(rd_slots_[m].size()) - 1;
    };
    int active = 0;
    for (int l = 0; l < B; ++l) {
      const std::uint64_t sid = lanes_[m][l];
      if (sid == 0) continue;
      const Session& s = sessions_.at(sid);
      if (s.extend_from >= 0) continue;
      const int T = static_cast<int>(s.prompt.size() + s.generated.size());
      add_rows(l, s, T - 1, T);
      ++active;
    }
    for (int l = 0; l < B; ++l) {
      const std::uint64_t sid = lanes_[m][l];
      if (sid == 0) continue;
      const Session& s = sessions_.at(sid);
      if (s.extend_from < 0) continue;
      const int T = static_cast<int>(s.prompt.size() + s.generated.size());
      add_rows(l, s, s.extend_from, T);
      stats_.prefill_rows += T - s.extend_from;
      stats_.prefix_rows_skipped += s.extend_from;
      ++active;
    }
    slot_active_[m] = active > 0 ? 1 : 0;
    if (active > 0) {
      any_rows = true;
      stats_.occupied_lane_steps += active;
      stats_.idle_lane_steps += B - active;
    }
  }
  if (any_rows) {
    lock.unlock();
    {
      obs::Span round_span(obs::EventKind::kDecodeRound,
                           obs::thread_worker());
      dep_->run([this](int rank) { run_worker(rank); });
    }
    lock.lock();
    ++stats_.decode_rounds;
    const long now = clock_.now_us();
    for (int m = 0; m < N; ++m) {
      if (!slot_active_[m]) continue;
      const Tensor& logits = round_logits_[m];  // [rows, vocab]
      CHIMERA_CHECK(logits.rows() ==
                        static_cast<int>(rd_tokens_[m].size()) &&
                    logits.cols() == model_.vocab);
      // lanes_ was only mutated by this thread since the round was built,
      // and every occupied lane rode it.
      for (int l = 0; l < B; ++l) {
        const std::uint64_t sid = lanes_[m][l];
        if (sid == 0) continue;
        Session& s = sessions_.at(sid);
        if (s.extend_from >= 0) {
          // Pin a fresh prompt into the prefix registry before the emit
          // below can retire the session (retirement derefs its pages; the
          // registry must grab its references first).
          if (s.extend_from == 0 && s.generated.empty()) register_prefix(s);
          s.extend_from = -1;
        }
        const float* row = logits.data() +
                           static_cast<std::size_t>(rd_last_row_[m][l]) *
                               model_.vocab;
        const int tok = sample_token(row, s.rng);
        ++emitted;
        if (emit_token(s, tok, now, row, events)) sessions_.erase(sid);
      }
    }
  }
  lock.unlock();

  // Stream outside the lock, in sampling order, so a callback may submit()
  // follow-up requests without deadlocking.
  if (on_token_)
    for (const TokenEvent& ev : events) on_token_(ev);
  return emitted;
}

bool DecodeEngine::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() && sessions_.empty() && parked_.empty();
}

std::vector<DecodeResult> DecodeEngine::run_until_drained() {
  while (!idle()) step();
  return take_completed();
}

std::vector<DecodeResult> DecodeEngine::take_completed() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DecodeResult> out;
  out.reserve(completed_.size());
  for (auto& r : completed_) out.push_back(std::move(r));
  completed_.clear();
  return out;
}

DecodeStats DecodeEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DecodeStats out = stats_;
  out.queue_depth = static_cast<long>(queue_.size());
  out.parked = static_cast<long>(parked_.size());
  // Logical paging counters: one replica per pipe (all of a pipe's replicas
  // hold identical paging state), summed across pipes.
  for (int p = 0; p < schedule().num_pipes; ++p) {
    const nn::PagedKvCache& cache = pipe_cache(p);
    out.pool_pages += cache.pool_pages();
    out.pages_in_use_peak += cache.pool().peak_pages_in_use();
    out.cow_splits += cache.cow_splits();
  }
  return out;
}

}  // namespace chimera::rt
