// The decode subsystem's contracts (DESIGN.md §6):
//  1. Decode schedules are forward-only seq-1 step schedules whose plan
//     carries well-formed cache-slot acquire/release events.
//  2. The KV cache is a bounded slot arena: claims beyond capacity are
//     impossible, released slots are reusable.
//  3. Bitwise determinism: every decode step's logits equal a full
//     re-forward over the session's token prefix — for every scheme — so
//     pipelining, KV caching, continuous batching and retirement change
//     *nothing* about each session's arithmetic.
//  4. Continuous batching is deterministic: admission is FIFO into free
//     lanes, stamps come from the injected clock, retired slots refill.
//  5. Request validation is recoverable (RequestError), shared with the
//     serving engine.
//  6. Prefix sharing skips compute: an admitted prompt runs only the rows
//     the prefix registry does not already hold — one row for a prompt it
//     covers in full — without writing into a shared page.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/decode_schedule.h"
#include "runtime/decode.h"
#include "runtime/serving.h"
#include "tensor/compute_pool.h"

namespace chimera::rt {
namespace {

nn::SmallModelConfig decode_model() {
  nn::SmallModelConfig cfg;
  cfg.vocab = 211;
  cfg.hidden = 48;
  cfg.heads = 4;
  cfg.layers = 8;
  cfg.seq = 16;
  cfg.seed = 20260731;
  return cfg;
}

std::vector<int> make_prompt(const nn::SmallModelConfig& cfg, int len,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> tokens(len);
  for (int& t : tokens) t = static_cast<int>(rng.next_below(cfg.vocab));
  return tokens;
}

// ------------------------------------------------------------------ 1 ----

TEST(DecodeSchedule, StepScheduleInvariantsAndCacheEvents) {
  struct Case {
    Scheme scheme;
    int f;
  };
  const Case cases[] = {{Scheme::kChimera, 1},
                        {Scheme::kChimera, 2},
                        {Scheme::kGPipe, 1},
                        {Scheme::kDapple, 1}};
  for (const Case& c : cases) {
    for (int N : {4, 6}) {
      SCOPED_TRACE(std::string(scheme_name(c.scheme)) + " f=" +
                   std::to_string(c.f) + " N=" + std::to_string(N));
      const PipelineSchedule s = build_decode_schedule(
          c.scheme, ScheduleConfig{4, N, c.f, ScaleMethod::kDirect});
      EXPECT_TRUE(s.decode);
      EXPECT_TRUE(s.forward_only);
      EXPECT_NO_THROW(validate(s));

      const ExecutionPlan plan(s);
      // Every stream's binding window: acquire at stage 0, release at the
      // last stage, exactly once each (max_live_cache_bindings verifies and
      // throws otherwise).
      const std::vector<int> bindings = max_live_cache_bindings(plan);
      // Each worker hosts one stage replica per pipe it participates in;
      // summed over workers every stream is counted once per stage.
      long total = 0;
      for (int b : bindings) total += b;
      EXPECT_EQ(total, static_cast<long>(N) * s.depth);
      // Cache events sit on the head/tail stages only.
      for (int w = 0; w < s.depth; ++w)
        for (const PlannedOp& pop : plan.worker_plan(w))
          for (const MicroUnit& u : pop.units) {
            EXPECT_EQ(u.acquires_cache_slot, pop.op.stage == 0);
            EXPECT_EQ(u.releases_cache_slot, pop.op.stage == s.depth - 1);
            EXPECT_FALSE(u.acquires_stash);
          }
    }
  }
  // Non-decode plans carry no cache events.
  const PipelineSchedule train = build_schedule(
      Scheme::kChimera, ScheduleConfig{4, 4, 1, ScaleMethod::kDirect});
  for (int b : max_live_cache_bindings(ExecutionPlan(train))) EXPECT_EQ(b, 0);

  const ScheduleConfig cfg{4, 4, 1, ScaleMethod::kDirect};
  EXPECT_THROW(build_decode_schedule(Scheme::kGems, cfg), CheckError);
  EXPECT_THROW(build_decode_schedule(Scheme::kPipeDream, cfg), CheckError);
}

// ------------------------------------------------------------------ 2 ----

TEST(KvCache, PagedSessionBoundsAndReuse) {
  // 3 sessions over a 6-page pool of 4 positions each (max_seq 8 = 2 pages
  // per full session); tests/paged_kv_test.cc covers COW and exhaustion.
  nn::PagedKvCache cache(/*layers=*/2, /*sessions=*/3, /*max_seq=*/8,
                         /*hidden=*/4, /*page_size=*/4, /*pool_pages=*/6);
  EXPECT_EQ(cache.free_pages(), 6);
  cache.claim(0);
  cache.claim(2);
  EXPECT_THROW(cache.claim(0), CheckError);  // double claim
  EXPECT_THROW(cache.release(1), CheckError);  // releasing a free session
  // Pages map on demand: rows are unreachable until ensured writable.
  EXPECT_THROW(cache.k_row(1, 2, 0), CheckError);
  cache.ensure_writable(2, 0, 8);
  EXPECT_EQ(cache.pages_in_use(), 2);
  float* row = cache.k_row(1, 2, 7);
  row[0] = 42.0f;
  EXPECT_EQ(cache.k_row(1, 2, 7)[0], 42.0f);
  EXPECT_THROW(cache.k_row(1, 2, 8), CheckError);
  EXPECT_THROW(cache.v_row(2, 2, 0), CheckError);  // layer out of range
  cache.release(0);
  EXPECT_TRUE(cache.is_free(0));
  cache.claim(0);  // released sessions are immediately reusable
  EXPECT_EQ(cache.total_claims(), 3);
  // Releasing returns pages to the pool.
  cache.release(2);
  EXPECT_EQ(cache.free_pages(), 6);
  // Memory is fixed at construction: pool_pages pages of
  // layers·2·page_size·hidden floats, regardless of mapping.
  EXPECT_EQ(cache.bytes(), 6u * (2u * 2u * 4u * 4u) * sizeof(float));
}

// ------------------------------------------------------------------ 3 ----

struct Generation {
  std::vector<int> prompt;
  std::vector<int> tokens;
  std::vector<Tensor> logits;  ///< per generated token
};

std::map<std::uint64_t, Generation> generate(
    const nn::SmallModelConfig& model, Scheme scheme, int f, int num_micro,
    const std::vector<std::pair<std::vector<int>, int>>& requests,
    DecodeOptions opts) {
  opts.capture_logits = true;
  DecodeEngine engine(model, scheme,
                      ScheduleConfig{4, num_micro, f, ScaleMethod::kDirect},
                      opts);
  std::map<std::uint64_t, Generation> out;
  engine.set_on_token([&](const TokenEvent& ev) {
    out[ev.id].tokens.push_back(ev.token);
    out[ev.id].logits.push_back(ev.logits);
    EXPECT_EQ(ev.index, static_cast<int>(out[ev.id].tokens.size()) - 1);
  });
  std::map<std::uint64_t, std::vector<int>> prompts;
  for (const auto& [prompt, max_new] : requests)
    prompts[engine.submit(prompt, max_new)] = prompt;
  const std::vector<DecodeResult> results = engine.run_until_drained();
  EXPECT_EQ(results.size(), requests.size());
  for (const DecodeResult& r : results) {
    out[r.id].prompt = prompts.at(r.id);
    // The streamed tokens and the result tokens are the same sequence.
    EXPECT_EQ(r.tokens, out[r.id].tokens);
    EXPECT_GE(r.first_token_us, r.enqueue_us);
    EXPECT_GE(r.done_us, r.first_token_us);
  }
  return out;
}

TEST(Decode, StepLogitsBitwiseEqualFullReforward) {
  const nn::SmallModelConfig model = decode_model();
  // Direct reference: the whole model as one stage; re-forward the full
  // token prefix for every generated token and compare the final position.
  nn::StageModule direct(model, 0, 1);

  // Varied prompt lengths (forcing ragged prefills) and generation caps;
  // more requests than the engine's session capacity, so retirement must
  // recycle cache slots mid-run.
  std::vector<std::pair<std::vector<int>, int>> requests;
  for (int r = 0; r < 7; ++r)
    requests.push_back({make_prompt(model, 3 + (5 * r) % 12, 100 + r),
                        2 + r % 5});

  DecodeOptions opts;
  opts.max_batch = 2;
  opts.max_new_tokens = 6;

  struct Case {
    Scheme scheme;
    int f;
    int n;
  };
  const Case cases[] = {{Scheme::kChimera, 1, 2},
                        {Scheme::kChimera, 2, 4},
                        {Scheme::kGPipe, 1, 2},
                        {Scheme::kDapple, 1, 2}};
  // Page size 3 splits each session's prefix into several pages, so the
  // in-place paged K/V read crosses page boundaries inside the dot groups
  // and the context sums; the default page holds a whole sequence.
  const int page_sizes[] = {DecodeOptions().kv_page_size, 3};
  std::map<std::uint64_t, Generation> reference;
  for (int page : page_sizes) {
    opts.kv_page_size = page;
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(scheme_name(c.scheme)) + " f=" +
                   std::to_string(c.f) + " page=" + std::to_string(page));
      const auto gens = generate(model, c.scheme, c.f, c.n, requests, opts);
      ASSERT_EQ(gens.size(), requests.size());
      for (const auto& [id, gen] : gens) {
        ASSERT_FALSE(gen.tokens.empty());
        std::vector<int> prefix = gen.prompt;
        for (std::size_t i = 0; i < gen.tokens.size(); ++i) {
          // Token i was sampled from the logits at the last position of
          // prompt + tokens[0..i): re-forward that prefix directly.
          nn::MicroBatch mb;
          mb.batch = 1;
          mb.seq = static_cast<int>(prefix.size());
          mb.tokens = prefix;
          const Tensor want = direct.infer(mb, Tensor());
          const Tensor& got = gen.logits[i];
          ASSERT_EQ(got.rows(), 1);
          ASSERT_EQ(got.cols(), model.vocab);
          const float* want_row =
              want.data() +
              static_cast<std::size_t>(mb.seq - 1) * model.vocab;
          for (int v = 0; v < model.vocab; ++v)
            ASSERT_EQ(want_row[v], got[static_cast<std::size_t>(v)])
                << "id " << id << " token " << i << " vocab " << v;
          prefix.push_back(gen.tokens[i]);
        }
      }
      // Greedy decoding is a pure function of the (bitwise identical) logits,
      // so every scheme and page size must generate the same text.
      if (reference.empty()) {
        reference = gens;
      } else {
        for (const auto& [id, gen] : gens)
          EXPECT_EQ(gen.tokens, reference.at(id).tokens) << "id " << id;
      }
    }
  }
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 4 ----

TEST(Decode, RetirementRecyclesCacheSlotsAndRefillsImmediately) {
  const nn::SmallModelConfig model = decode_model();
  DecodeOptions opts;
  opts.max_batch = 1;
  opts.max_new_tokens = 3;
  // One stream of one lane: session capacity 1, so 4 requests force three
  // full retire→refill cycles through the same cache slot.
  DecodeEngine engine(model, Scheme::kGPipe,
                      ScheduleConfig{4, 1, 1, ScaleMethod::kDirect}, opts);
  EXPECT_EQ(engine.session_capacity(), 1);
  std::vector<std::uint64_t> ids;
  for (int r = 0; r < 4; ++r)
    ids.push_back(engine.submit(make_prompt(model, 4 + r, 40 + r)));
  const std::vector<DecodeResult> results = engine.run_until_drained();
  ASSERT_EQ(results.size(), 4u);
  // FIFO admission at capacity 1 completes strictly in submission order.
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(results[i].id, ids[i]);
  const DecodeStats stats = engine.stats();
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.retired, 4);
  EXPECT_EQ(stats.tokens, 4 * 3);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.max_queue_depth, 4);
  EXPECT_TRUE(engine.idle());
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 4b ---

TEST(Decode, ContinuousBatchingAdmissionDeterministicUnderFakeClock) {
  const nn::SmallModelConfig model = decode_model();
  auto run = [&](std::vector<std::pair<std::uint64_t, TokenEvent>>* events) {
    long fake_now = 1000;
    DecodeOptions opts;
    opts.max_batch = 2;
    opts.max_new_tokens = 4;
    opts.clock = [&fake_now] { return fake_now; };
    DecodeEngine engine(model, Scheme::kChimera,
                        ScheduleConfig{4, 2, 1, ScaleMethod::kDirect}, opts);
    engine.set_on_token([&](const TokenEvent& ev) {
      events->push_back({ev.id, ev});
    });
    // 6 requests into capacity 4: two wait queued and are admitted only
    // when retirement frees lanes.
    for (int r = 0; r < 6; ++r) {
      engine.submit(make_prompt(model, 5 + r, 70 + r), 2 + r % 3);
      fake_now += 100;
    }
    while (!engine.idle()) {
      fake_now += 1000;
      engine.step();
    }
    const DecodeStats stats = engine.stats();
    EXPECT_EQ(stats.admitted, 6);
    EXPECT_EQ(stats.retired, 6);
    EXPECT_GT(stats.idle_lane_steps + stats.occupied_lane_steps, 0);
    return engine.run_until_drained();
  };
  std::vector<std::pair<std::uint64_t, TokenEvent>> ev1, ev2;
  run(&ev1);
  run(&ev2);
  // Identical inputs + fake clock ⇒ identical token streams, stamps and
  // order — continuous batching has no hidden nondeterminism.
  ASSERT_EQ(ev1.size(), ev2.size());
  for (std::size_t i = 0; i < ev1.size(); ++i) {
    EXPECT_EQ(ev1[i].first, ev2[i].first);
    EXPECT_EQ(ev1[i].second.token, ev2[i].second.token);
    EXPECT_EQ(ev1[i].second.index, ev2[i].second.index);
    EXPECT_EQ(ev1[i].second.is_last, ev2[i].second.is_last);
    EXPECT_EQ(ev1[i].second.time_us, ev2[i].second.time_us);
  }
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 5 ----

TEST(Decode, TopKSamplingIsDeterministicAndInsideTheTopK) {
  const nn::SmallModelConfig model = decode_model();
  auto run = [&](std::uint64_t seed) {
    DecodeOptions opts;
    opts.max_batch = 2;
    opts.max_new_tokens = 5;
    opts.sampling = SamplingKind::kTopK;
    opts.top_k = 3;
    opts.sample_seed = seed;
    opts.capture_logits = true;
    DecodeEngine engine(model, Scheme::kChimera,
                        ScheduleConfig{4, 2, 1, ScaleMethod::kDirect}, opts);
    std::vector<std::pair<int, Tensor>> drawn;
    engine.set_on_token([&](const TokenEvent& ev) {
      drawn.push_back({ev.token, ev.logits});
    });
    for (int r = 0; r < 3; ++r)
      engine.submit(make_prompt(model, 6 + r, 900 + r));
    engine.run_until_drained();
    return drawn;
  };
  const auto a = run(7), b = run(7), c = run(8);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal_ac = a.size() == c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);  // same seed ⇒ same text
    if (all_equal_ac && a[i].first != c[i].first) all_equal_ac = false;
    // Every drawn token is one of the k highest logits.
    const Tensor& logits = a[i].second;
    int higher = 0;
    const float drawn_logit = logits[static_cast<std::size_t>(a[i].first)];
    for (int v = 0; v < model.vocab; ++v)
      if (logits[static_cast<std::size_t>(v)] > drawn_logit) ++higher;
    EXPECT_LT(higher, 3);
  }
  // A different seed is allowed to (and here does) pick different tokens.
  EXPECT_FALSE(all_equal_ac);
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 5b ---

TEST(Decode, FullPromptPrefixHitComputesOneRowAndKeepsDonorPages) {
  const nn::SmallModelConfig model = decode_model();
  DecodeOptions opts;
  opts.max_batch = 1;
  opts.max_new_tokens = 4;
  opts.kv_page_size = 4;
  opts.kv_pool_pages = 8;  // no page pressure: nothing parks or unpins
  opts.capture_logits = true;
  // GPipe hosts one pipe, so the repeat lands on the donor's registry.
  DecodeEngine engine(model, Scheme::kGPipe,
                      ScheduleConfig{4, 1, 1, ScaleMethod::kDirect}, opts);
  std::map<std::uint64_t, std::vector<TokenEvent>> streams;
  engine.set_on_token(
      [&](const TokenEvent& ev) { streams[ev.id].push_back(ev); });
  const std::vector<int> prompt = make_prompt(model, 10, 55);
  const std::uint64_t donor = engine.submit(prompt);
  engine.run_until_drained();
  const DecodeStats before = engine.stats();
  EXPECT_EQ(before.prefill_rows, 10);
  EXPECT_EQ(before.prefix_rows_skipped, 0);

  // The donor retired; the registry alone pins its ceil(10/4) prompt pages.
  const nn::PagedKvCache& cache = engine.pipe_cache(0);
  const std::size_t page_floats = cache.pool().floats_per_page();
  std::map<int, std::vector<float>> pinned;
  for (int pg = 0; pg < cache.pool_pages(); ++pg)
    if (cache.pool().refcount(pg) > 0)
      pinned[pg].assign(cache.pool().data(pg),
                        cache.pool().data(pg) + page_floats);
  ASSERT_EQ(pinned.size(), 3u);

  // The repeat's admission step computes only position 9, into a COW-split
  // copy of the third page; the first two stay shared.
  const std::uint64_t repeat = engine.submit(prompt);
  EXPECT_EQ(engine.step(), 1);
  const DecodeStats after = engine.stats();
  EXPECT_EQ(after.prefix_hits - before.prefix_hits, 1);
  EXPECT_EQ(after.prefill_rows - before.prefill_rows, 1);
  EXPECT_EQ(after.prefix_rows_skipped - before.prefix_rows_skipped, 9);
  EXPECT_EQ(after.cow_splits - before.cow_splits, 1);
  const std::vector<int>& table = cache.page_table(0);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(pinned.count(table[0]), 1u);
  EXPECT_EQ(pinned.count(table[1]), 1u);
  EXPECT_EQ(pinned.count(table[2]), 0u);
  engine.run_until_drained();

  // Same text, bitwise the same logits, and the donor's pages untouched.
  const auto& a = streams.at(donor);
  const auto& b = streams.at(repeat);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].token, b[i].token) << "token " << i;
    for (int v = 0; v < model.vocab; ++v)
      ASSERT_EQ(a[i].logits[static_cast<std::size_t>(v)],
                b[i].logits[static_cast<std::size_t>(v)])
          << "token " << i << " vocab " << v;
  }
  for (const auto& [pg, data] : pinned) {
    EXPECT_GT(cache.pool().refcount(pg), 0) << "page " << pg;
    EXPECT_TRUE(std::equal(data.begin(), data.end(), cache.pool().data(pg)))
        << "page " << pg;
  }
  ComputePool::instance().set_helpers(0);
}

TEST(Decode, DocPromptSkipsExactlyItsMatchedPrefix) {
  const nn::SmallModelConfig model = decode_model();
  // A 6-token shared "system prompt" behind two different document tails.
  const std::vector<int> system = make_prompt(model, 6, 77);
  std::vector<int> doc_a = system, doc_b = system;
  doc_a.insert(doc_a.end(), {1, 2, 3});
  doc_b.insert(doc_b.end(), {4, 5});
  const auto run = [&](bool sharing) {
    DecodeOptions opts;
    opts.max_batch = 1;
    opts.max_new_tokens = 3;
    opts.kv_page_size = 4;
    opts.prefix_sharing = sharing;
    DecodeEngine engine(model, Scheme::kGPipe,
                        ScheduleConfig{4, 1, 1, ScaleMethod::kDirect}, opts);
    engine.submit(doc_a);
    engine.run_until_drained();
    const DecodeStats first = engine.stats();
    engine.submit(doc_b);
    const std::vector<DecodeResult> out = engine.run_until_drained();
    const DecodeStats st = engine.stats();
    EXPECT_EQ(first.prefill_rows, 9);
    EXPECT_EQ(st.prefix_rows_skipped, sharing ? 6 : 0);
    EXPECT_EQ(st.prefill_rows - first.prefill_rows, sharing ? 2 : 8);
    // Every step's round carried the one lane — admission steps included.
    EXPECT_EQ(st.occupied_lane_steps, st.steps);
    EXPECT_EQ(st.idle_lane_steps, 0);
    EXPECT_EQ(out.size(), 1u);
    return out.empty() ? std::vector<int>() : out.front().tokens;
  };
  EXPECT_EQ(run(true), run(false));
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 6 ----

TEST(RequestValidation, RecoverableRejectionSharedByBothEngines) {
  const nn::SmallModelConfig model = decode_model();

  ServeOptions sopts;
  sopts.max_batch = 2;
  ServingEngine serving(model, Scheme::kGPipe,
                        ScheduleConfig{4, 2, 1, ScaleMethod::kDirect}, sopts);
  // Wrong length / bad token: recoverable RequestError, not a CHECK.
  EXPECT_THROW(serving.submit(make_prompt(model, model.seq - 1, 1)),
               RequestError);
  EXPECT_THROW(serving.submit(std::vector<int>(model.seq, model.vocab)),
               RequestError);
  // The engine survives rejected requests and still serves good ones.
  serving.submit(make_prompt(model, model.seq, 2));
  EXPECT_EQ(serving.serve_pending().size(), 1u);

  DecodeOptions dopts;
  dopts.max_batch = 1;
  DecodeEngine decode(model, Scheme::kGPipe,
                      ScheduleConfig{4, 1, 1, ScaleMethod::kDirect}, dopts);
  // Decode admits *variable* lengths up to the context window.
  EXPECT_THROW(decode.submit({}), RequestError);
  EXPECT_THROW(decode.submit(make_prompt(model, model.seq + 1, 3)),
               RequestError);
  EXPECT_THROW(decode.submit({model.vocab}), RequestError);
  EXPECT_THROW(decode.submit(make_prompt(model, 4, 4), -1), RequestError);
  decode.submit(make_prompt(model, 1, 5));           // shortest legal prompt
  decode.submit(make_prompt(model, model.seq, 6));   // longest legal prompt
  const auto results = decode.run_until_drained();
  ASSERT_EQ(results.size(), 2u);
  // A full-context prompt still emits exactly one token (the prefill's).
  EXPECT_EQ(results[1].tokens.size(), 1u);
  ComputePool::instance().set_helpers(0);
}

}  // namespace
}  // namespace chimera::rt
