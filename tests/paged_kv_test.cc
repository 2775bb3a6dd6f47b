// The paged KV subsystem's contracts (DESIGN.md §8):
//  1. KvPagePool is a bounded refcounted allocator: exhaustion throws the
//     recoverable RequestError with state untouched, released pages are
//     recycled (total_allocs > pool size), refcount misuse throws CheckError.
//  2. PagedKvCache copy-on-write: adopted prefix pages stay shared until the
//     first divergent write; a split copies every previously valid row and
//     isolates the writer; refcounts balance back to an empty pool.
//  3. The randomized trace harness: seeded session traces — ragged prompts,
//     shared prefixes, tiny pools forcing evictions and resumes — generate
//     *bitwise* the token streams of a full per-prefix re-forward, for every
//     decode scheme. Paging, sharing, preemption and resume change where
//     K/V rows live, never their values.
//  4. Preemption is deterministic: identical traces on identical engines
//     (fake clock) produce identical TokenEvent streams and latency stamps,
//     and a pressure-squeezed engine generates exactly what a comfortable
//     one does — including top-k sampling, whose per-session rng stream
//     survives park/resume. Growth may park a session admitted in the same
//     step: its prompt rows are dropped before the round and it resumes by
//     re-prefill.
//  5. The engine's exported plan carries the kv_pages claim and certifies
//     under the standalone verifier's page-budget check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/plan_json.h"
#include "nn/kv_cache.h"
#include "nn/kv_page_pool.h"
#include "runtime/decode.h"
#include "support/rng.h"
#include "tensor/compute_pool.h"
#include "verify/verifier.h"

namespace chimera::rt {
namespace {

// ------------------------------------------------------------------ 1 ----

TEST(KvPagePool, ExhaustionIsRecoverableAndLeavesStateUntouched) {
  nn::KvPagePool pool(3, 8);
  EXPECT_EQ(pool.free_pages(), 3);
  const int a = pool.alloc();
  const int b = pool.alloc();
  const int c = pool.alloc();
  EXPECT_EQ(a, 0);  // deterministic LIFO seeding: first allocs are 0,1,2,…
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 2);
  EXPECT_EQ(pool.free_pages(), 0);
  EXPECT_THROW(pool.alloc(), RequestError);  // recoverable, not an abort
  EXPECT_EQ(pool.try_alloc(), -1);
  EXPECT_EQ(pool.pages_in_use(), 3);  // the failed calls changed nothing
  EXPECT_EQ(pool.refcount(a), 1);
  pool.deref(b);
  EXPECT_EQ(pool.alloc(), b);  // LIFO: the page just freed comes back first
  pool.deref(a);
  pool.deref(b);
  pool.deref(c);
  EXPECT_EQ(pool.free_pages(), 3);
}

TEST(KvPagePool, RefcountBalanceRecyclingAndDoubleRelease) {
  nn::KvPagePool pool(2, 4);
  const int p = pool.alloc();
  pool.ref(p);
  EXPECT_EQ(pool.refcount(p), 2);
  pool.deref(p);
  EXPECT_EQ(pool.refcount(p), 1);
  EXPECT_EQ(pool.free_pages(), 1);  // still held by the last reader
  pool.deref(p);
  EXPECT_EQ(pool.free_pages(), 2);
  EXPECT_THROW(pool.deref(p), CheckError);  // double release is a real bug
  EXPECT_THROW(pool.ref(p), CheckError);    // as is reffing a free page
  // Released pages are genuinely recycled: lifetime allocations exceed the
  // pool size while in-use never does.
  for (int i = 0; i < 5; ++i) pool.deref(pool.alloc());
  EXPECT_GT(pool.total_allocs(), static_cast<long>(pool.num_pages()));
  EXPECT_EQ(pool.peak_pages_in_use(), 1);  // never more than one live above
  const int x = pool.alloc();
  const int y = pool.alloc();
  pool.deref(x);
  pool.deref(y);
  EXPECT_EQ(pool.peak_pages_in_use(), 2);
  EXPECT_EQ(pool.bytes(), 2u * 4u * sizeof(float));
}

// ------------------------------------------------------------------ 2 ----

TEST(PagedKvCache, CowSplitIsolatesWriterAndBalancesRefcounts) {
  // 1 layer, hidden 2, pages of 4 positions, max_seq 8 = 2 pages/session.
  nn::PagedKvCache cache(1, 2, 8, 2, 4, 6);
  cache.claim(0);
  cache.ensure_writable(0, 0, 8);
  for (int pos = 0; pos < 8; ++pos) {
    cache.k_row(0, 0, pos)[0] = static_cast<float>(pos);
    cache.v_row(0, 0, pos)[0] = static_cast<float>(100 + pos);
  }
  const std::vector<int> donor = cache.page_table(0);
  ASSERT_EQ(donor.size(), 2u);

  cache.claim(1);
  cache.adopt_prefix(1, donor);
  EXPECT_EQ(cache.pool().refcount(donor[0]), 2);
  EXPECT_EQ(cache.pool().refcount(donor[1]), 2);
  // The adopter reads the donor's rows through its own table.
  EXPECT_EQ(cache.k_row(0, 1, 3)[0], 3.0f);
  EXPECT_EQ(cache.v_row(0, 1, 6)[0], 106.0f);

  // Writing into the shared second page costs exactly one COW page.
  EXPECT_EQ(cache.pages_needed(1, 4, 8), 1);
  cache.ensure_writable(1, 4, 8);
  EXPECT_EQ(cache.cow_splits(), 1);
  EXPECT_EQ(cache.page_table(1)[0], donor[0]);  // untouched page still shared
  EXPECT_NE(cache.page_table(1)[1], donor[1]);  // split page is private
  EXPECT_EQ(cache.pool().refcount(donor[1]), 1);
  // The split copied the previously valid rows …
  EXPECT_EQ(cache.k_row(0, 1, 4)[0], 4.0f);
  EXPECT_EQ(cache.v_row(0, 1, 7)[0], 107.0f);
  // … and the writer's stores no longer reach the donor.
  cache.k_row(0, 1, 5)[0] = 999.0f;
  EXPECT_EQ(cache.k_row(0, 0, 5)[0], 5.0f);

  // Releasing both sessions balances every refcount back to a full pool.
  cache.release(0);
  cache.release(1);
  EXPECT_EQ(cache.free_pages(), 6);
}

TEST(PagedKvCache, RegistryPinKeepsPagesAliveAfterOwnerRetires) {
  nn::PagedKvCache cache(1, 2, 8, 2, 4, 6);
  cache.claim(0);
  cache.ensure_writable(0, 0, 8);
  cache.k_row(0, 0, 2)[0] = 7.0f;
  const std::vector<int> pages = cache.page_table(0);
  cache.ref_pages(pages);  // the prefix registry's pin
  cache.release(0);
  EXPECT_EQ(cache.free_pages(), 4);  // pinned pages survive the owner
  cache.claim(1);
  cache.adopt_prefix(1, pages);
  EXPECT_EQ(cache.k_row(0, 1, 2)[0], 7.0f);
  cache.deref_pages(pages);  // unpin: the adopter is now the only reader
  cache.release(1);
  EXPECT_EQ(cache.free_pages(), 6);
}

TEST(PagedKvCache, ExhaustionThrowsRecoverableAndKeepsPartialState) {
  // Pool exactly one full session: the progress-guarantee minimum.
  nn::PagedKvCache cache(1, 2, 8, 2, 4, 2);
  cache.claim(0);
  cache.ensure_writable(0, 0, 8);
  cache.claim(1);
  EXPECT_THROW(cache.ensure_writable(1, 0, 4), RequestError);
  EXPECT_EQ(cache.free_pages(), 0);  // session 0 is untouched by the failure
  cache.release(0);  // the engine's eviction path
  cache.ensure_writable(1, 0, 8);
  EXPECT_EQ(cache.pool().total_allocs(), 4);
  // A pool below one full session is rejected at construction.
  EXPECT_THROW(nn::PagedKvCache(1, 1, 8, 2, 4, 1), CheckError);
}

// ------------------------------------------------------------------ 3 ----

nn::SmallModelConfig harness_model() {
  nn::SmallModelConfig cfg;
  cfg.vocab = 97;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.layers = 4;
  cfg.seq = 16;
  cfg.seed = 20260808;
  return cfg;
}

int argmax_row(const float* row, int n) {
  int best = 0;
  for (int v = 1; v < n; ++v)
    if (row[v] > row[best]) best = v;
  return best;
}

/// Greedy reference: re-forward the growing token prefix through the whole
/// model as one stage and take the final position's argmax — the engine's
/// bitwise contract target, independent of pipelining, paging and sharing.
std::vector<int> reference_tokens(nn::StageModule& direct,
                                  const nn::SmallModelConfig& model,
                                  std::vector<int> prefix, int max_new) {
  // The engine caps generation so positions stay inside the embeddings:
  // prompt + generated <= seq + 1 (the last token needs no forward).
  const int cap =
      std::min(max_new, model.seq - static_cast<int>(prefix.size()) + 1);
  std::vector<int> out;
  for (int i = 0; i < cap; ++i) {
    nn::MicroBatch mb;
    mb.batch = 1;
    mb.seq = static_cast<int>(prefix.size());
    mb.tokens = prefix;
    const Tensor logits = direct.infer(mb, Tensor());
    const float* row = logits.data() +
                       static_cast<std::size_t>(mb.seq - 1) * model.vocab;
    const int tok = argmax_row(row, model.vocab);
    out.push_back(tok);
    prefix.push_back(tok);
  }
  return out;
}

struct TraceRequest {
  std::vector<int> prompt;
  int max_new = 0;
  int priority = 0;
};

/// One seeded trace: ragged prompts, half of them extending one of a few
/// shared "system prompts" (≥ page_size tokens, so the prefix registry can
/// serve them), mixed generation caps and priorities.
std::vector<TraceRequest> make_trace(const nn::SmallModelConfig& model,
                                     std::uint64_t seed, int page_size) {
  Rng rng(seed);
  std::vector<std::vector<int>> shared(2);
  for (auto& s : shared) {
    const int len =
        page_size + static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(model.seq / 2)));
    s.resize(static_cast<std::size_t>(len));
    for (int& t : s) t = static_cast<int>(rng.next_below(model.vocab));
  }
  std::vector<TraceRequest> trace;
  const int n = 6 + static_cast<int>(rng.next_below(3));
  for (int r = 0; r < n; ++r) {
    TraceRequest req;
    if (rng.next_below(2) == 0) {
      req.prompt = shared[rng.next_below(shared.size())];
      const int tail = static_cast<int>(rng.next_below(4));
      for (int t = 0; t < tail &&
                      static_cast<int>(req.prompt.size()) < model.seq - 1;
           ++t)
        req.prompt.push_back(static_cast<int>(rng.next_below(model.vocab)));
    } else {
      const int len = 1 + static_cast<int>(rng.next_below(
                              static_cast<std::uint64_t>(model.seq - 2)));
      req.prompt.resize(static_cast<std::size_t>(len));
      for (int& t : req.prompt)
        t = static_cast<int>(rng.next_below(model.vocab));
    }
    req.max_new = 1 + static_cast<int>(rng.next_below(5));
    req.priority = static_cast<int>(rng.next_below(3));
    trace.push_back(std::move(req));
  }
  return trace;
}

/// Runs `trace` on one engine and returns id → generated tokens.
std::map<std::uint64_t, std::vector<int>> run_trace(
    DecodeEngine& engine, const std::vector<TraceRequest>& trace,
    std::map<std::uint64_t, const TraceRequest*>* by_id = nullptr) {
  std::map<std::uint64_t, std::vector<int>> out;
  engine.set_on_token([&](const TokenEvent& ev) {
    out[ev.id].push_back(ev.token);
    EXPECT_EQ(ev.index, static_cast<int>(out[ev.id].size()) - 1);
  });
  for (const TraceRequest& req : trace) {
    const std::uint64_t id =
        engine.submit(req.prompt, req.max_new, req.priority);
    if (by_id) (*by_id)[id] = &req;
  }
  const std::vector<DecodeResult> results = engine.run_until_drained();
  EXPECT_EQ(results.size(), trace.size());
  for (const DecodeResult& r : results) EXPECT_EQ(r.tokens, out[r.id]);
  return out;
}

TEST(PagedDecodeHarness, RandomTracesBitwiseMatchReforwardEverywhere) {
  const nn::SmallModelConfig model = harness_model();
  nn::StageModule direct(model, 0, 1);

  // Tiny pools: pages_per_session = ceil(16/4) = 4, and every stage replica
  // gets 6 pages — far below the arena-equivalent (lanes × 4), so traces
  // with several concurrent sessions must evict and resume.
  DecodeOptions opts;
  opts.max_batch = 2;
  opts.max_new_tokens = 6;
  opts.kv_page_size = 4;
  opts.kv_pool_pages = 6;

  struct Case {
    Scheme scheme;
    int f;
    int n;
  };
  const Case cases[] = {{Scheme::kChimera, 1, 2},
                        {Scheme::kChimera, 2, 4},
                        {Scheme::kGPipe, 1, 2},
                        {Scheme::kDapple, 1, 2}};

  int seeds = 6;  // CI sweeps wider: CHIMERA_PAGED_KV_SEEDS=200+
  if (const char* env = std::getenv("CHIMERA_PAGED_KV_SEEDS"))
    seeds = std::max(1, std::atoi(env));

  long evictions = 0, resumes = 0, cow_splits = 0, prefix_hits = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    const std::vector<TraceRequest> trace =
        make_trace(model, 1000 + static_cast<std::uint64_t>(seed),
                   opts.kv_page_size);
    // The reference stream of every request, computed once per seed.
    std::vector<std::vector<int>> want;
    for (const TraceRequest& req : trace)
      want.push_back(
          reference_tokens(direct, model, req.prompt, req.max_new));

    for (const Case& c : cases) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   scheme_name(c.scheme) + " f=" + std::to_string(c.f));
      DecodeEngine engine(
          model, c.scheme,
          ScheduleConfig{4, c.n, c.f, ScaleMethod::kDirect}, opts);
      std::map<std::uint64_t, const TraceRequest*> by_id;
      const auto got = run_trace(engine, trace, &by_id);
      ASSERT_EQ(got.size(), trace.size());
      for (const auto& [id, tokens] : got) {
        const std::size_t r = static_cast<std::size_t>(
            by_id.at(id) - trace.data());
        EXPECT_EQ(tokens, want[r]) << "request " << r;
      }
      const DecodeStats st = engine.stats();
      EXPECT_LE(st.pages_in_use_peak, st.pool_pages);
      EXPECT_EQ(st.evictions, st.resumes);  // every parked session resumed
      evictions += st.evictions;
      resumes += st.resumes;
      cow_splits += st.cow_splits;
      prefix_hits += st.prefix_hits;
    }
  }
  // The sweep must actually exercise the machinery it certifies.
  EXPECT_GT(evictions, 0);
  EXPECT_GT(resumes, 0);
  EXPECT_GT(cow_splits, 0);
  EXPECT_GT(prefix_hits, 0);
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 4 ----

TEST(PagedDecode, EvictResumeDeterministicUnderFakeClock) {
  const nn::SmallModelConfig model = harness_model();
  const std::vector<TraceRequest> trace = make_trace(model, 77, 4);

  // Top-k sampling: the per-session rng stream must survive park/resume.
  DecodeOptions base;
  base.max_batch = 2;
  base.max_new_tokens = 6;
  base.kv_page_size = 4;
  base.sampling = SamplingKind::kTopK;
  base.top_k = 4;
  base.sample_seed = 99;

  struct Run {
    std::vector<TokenEvent> events;
    std::vector<DecodeResult> results;
    DecodeStats stats;
  };
  const auto run = [&](int pool_pages) {
    Run out;
    long now = 0;
    DecodeOptions opts = base;
    opts.kv_pool_pages = pool_pages;
    opts.clock = [&now] { return ++now; };
    DecodeEngine engine(model, Scheme::kChimera,
                        ScheduleConfig{4, 2, 1, ScaleMethod::kDirect}, opts);
    engine.set_on_token(
        [&out](const TokenEvent& ev) { out.events.push_back(ev); });
    for (const TraceRequest& req : trace)
      engine.submit(req.prompt, req.max_new, req.priority);
    out.results = engine.run_until_drained();
    out.stats = engine.stats();
    return out;
  };

  const Run a = run(5);  // squeezed: evictions guaranteed by the trace
  const Run b = run(5);
  EXPECT_GT(a.stats.evictions, 0);

  // Identical config + trace + clock ⇒ identical streams, stamps and stats.
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].id, b.events[i].id);
    EXPECT_EQ(a.events[i].token, b.events[i].token);
    EXPECT_EQ(a.events[i].index, b.events[i].index);
    EXPECT_EQ(a.events[i].is_last, b.events[i].is_last);
    EXPECT_EQ(a.events[i].time_us, b.events[i].time_us);
  }
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].id, b.results[i].id);
    EXPECT_EQ(a.results[i].tokens, b.results[i].tokens);
    EXPECT_EQ(a.results[i].enqueue_us, b.results[i].enqueue_us);
    EXPECT_EQ(a.results[i].first_token_us, b.results[i].first_token_us);
    EXPECT_EQ(a.results[i].done_us, b.results[i].done_us);
  }
  EXPECT_EQ(a.stats.evictions, b.stats.evictions);
  EXPECT_EQ(a.stats.cow_splits, b.stats.cow_splits);

  // Stronger: pressure changes *when* sessions run, never what they say.
  // A comfortable engine (arena-equivalent pool, no evictions) generates
  // the same text per request id.
  const Run c = run(0);
  EXPECT_EQ(c.stats.evictions, 0);
  std::map<std::uint64_t, std::vector<int>> squeezed, comfy;
  for (const DecodeResult& r : a.results) squeezed[r.id] = r.tokens;
  for (const DecodeResult& r : c.results) comfy[r.id] = r.tokens;
  EXPECT_EQ(squeezed, comfy);
  ComputePool::instance().set_helpers(0);
}

TEST(PagedDecode, GrowthParksASessionAdmittedInTheSameStep) {
  const nn::SmallModelConfig model = harness_model();
  nn::StageModule direct(model, 0, 1);
  Rng rng(4242);
  const auto prompt = [&](int len) {
    std::vector<int> p(static_cast<std::size_t>(len));
    for (int& t : p) t = static_cast<int>(rng.next_below(model.vocab));
    return p;
  };
  const std::vector<int> a = prompt(8), b = prompt(12);
  ASSERT_NE(a.front(), b.front());  // no prefix hit between the two

  struct Run {
    std::map<std::uint64_t, std::vector<int>> tokens;
    DecodeStats stats;
  };
  const auto run = [&](int pool_pages) {
    DecodeOptions opts;
    opts.max_batch = 2;
    opts.kv_page_size = 4;
    opts.kv_pool_pages = pool_pages;
    // One stream of two lanes on one pipe.
    DecodeEngine engine(model, Scheme::kGPipe,
                        ScheduleConfig{4, 1, 1, ScaleMethod::kDirect}, opts);
    Run out;
    engine.set_on_token(
        [&](const TokenEvent& ev) { out.tokens[ev.id].push_back(ev.token); });
    engine.submit(a, 8);
    EXPECT_EQ(engine.step(), 1);  // a holds 2 pages; the registry pins them
    engine.submit(b, 3);
    // b's 3 prompt pages exhaust a 5-page pool at admission, so a's growth
    // to position 8 must park b — in the step that admitted it, before its
    // rows run. Only a's token comes out.
    const int emitted = engine.step();
    if (pool_pages > 0) {
      EXPECT_EQ(emitted, 1);
      const DecodeStats mid = engine.stats();
      EXPECT_EQ(mid.admitted, 2);
      EXPECT_EQ(mid.evictions, 1);
      EXPECT_EQ(mid.prefill_rows, 8);  // b's 12 rows never ran
    }
    engine.run_until_drained();
    out.stats = engine.stats();
    return out;
  };
  const Run squeezed = run(5);
  const Run comfy = run(0);
  EXPECT_EQ(squeezed.stats.evictions, 1);
  EXPECT_EQ(squeezed.stats.resumes, 1);
  EXPECT_EQ(comfy.stats.evictions, 0);
  EXPECT_EQ(squeezed.tokens, comfy.tokens);
  ASSERT_EQ(squeezed.tokens.size(), 2u);
  EXPECT_EQ(squeezed.tokens.at(1), reference_tokens(direct, model, a, 8));
  EXPECT_EQ(squeezed.tokens.at(2), reference_tokens(direct, model, b, 3));
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 5 ----

TEST(PagedDecode, PrefixSharingDedupesAndPlanJsonCertifies) {
  const nn::SmallModelConfig model = harness_model();
  // Three requests behind one 6-token system prompt (page_size 4: one full
  // shared page + a partial second) and one unrelated request.
  std::vector<int> sys;
  for (int t = 0; t < 6; ++t) sys.push_back(3 * t + 1);
  std::vector<TraceRequest> trace;
  for (int r = 0; r < 3; ++r) {
    TraceRequest req;
    req.prompt = sys;
    req.prompt.push_back(10 + r);  // diverge after the shared prefix
    req.max_new = 4;
    trace.push_back(req);
  }
  trace.push_back(TraceRequest{{5, 6, 7}, 3, 0});

  DecodeOptions opts;
  opts.max_batch = 2;
  opts.kv_page_size = 4;

  // The first request is drained alone so its prefill registers the prefix
  // before the sharers are admitted (the registry serves *later* prompts).
  const auto run_with = [&](bool sharing) {
    DecodeOptions o = opts;
    o.prefix_sharing = sharing;
    DecodeEngine engine(model, Scheme::kGPipe,
                        ScheduleConfig{4, 2, 1, ScaleMethod::kDirect}, o);
    std::map<std::uint64_t, std::vector<int>> out;
    engine.set_on_token(
        [&](const TokenEvent& ev) { out[ev.id].push_back(ev.token); });
    engine.submit(trace[0].prompt, trace[0].max_new, trace[0].priority);
    engine.run_until_drained();
    for (std::size_t r = 1; r < trace.size(); ++r)
      engine.submit(trace[r].prompt, trace[r].max_new, trace[r].priority);
    engine.run_until_drained();
    EXPECT_EQ(out.size(), trace.size());
    return std::make_pair(out, engine.stats());
  };

  const auto [shared_tokens, shared_stats] = run_with(true);
  const auto [plain_tokens, plain_stats] = run_with(false);
  // Sharing dedupes memory; the text is bitwise unchanged.
  EXPECT_EQ(shared_tokens, plain_tokens);
  EXPECT_GE(shared_stats.prefix_hits, 2);
  EXPECT_GT(shared_stats.cow_splits, 0);  // the partial page diverges
  EXPECT_EQ(plain_stats.prefix_hits, 0);
  EXPECT_GT(shared_stats.pool_pages, 0);
  EXPECT_LE(shared_stats.pages_in_use_peak, shared_stats.pool_pages);

  // The engine's exported plan carries the kv_pages claim and certifies
  // under the standalone verifier (the kPageBudget cross-check).
  DecodeEngine engine(model, Scheme::kChimera,
                      ScheduleConfig{4, 2, 1, ScaleMethod::kDirect}, opts);
  const PlanDoc doc = plan_from_json(engine.plan_json());
  ASSERT_TRUE(doc.has_kv_pages);
  EXPECT_EQ(doc.kv_pages.page_size, opts.kv_page_size);
  EXPECT_EQ(doc.kv_pages.pages_per_session,
            engine.page_geometry().pages_per_session());
  const verify::Diagnostics diags = verify::verify_plan(doc);
  EXPECT_TRUE(diags.empty())
      << (diags.empty() ? std::string() : diags.front().str());
  ComputePool::instance().set_helpers(0);
}

}  // namespace
}  // namespace chimera::rt
