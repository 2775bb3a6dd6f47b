// The serving engine's contracts:
//  1. Inference schedules are forward-only (no backward/collective ops, no
//     stash events) and keep per-pipe FIFO order on every worker.
//  2. The micro-batcher is deterministic: FIFO slots of max_batch, capped
//     at the round's slot count, with a partial tail slot that flushes at
//     once and pads; under a fake clock the latency stamps are exact.
//  3. Served logits are bitwise equal to a direct single-process forward of
//     the same model — pipelining, batching and padding change *nothing*
//     about each request's arithmetic ({Chimera f∈{1,2}, GPipe} at D=4).
#include <gtest/gtest.h>

#include <map>

#include "core/inference_schedule.h"
#include "runtime/serving.h"
#include "tensor/compute_pool.h"

namespace chimera::rt {
namespace {

nn::SmallModelConfig serving_model() {
  nn::SmallModelConfig cfg;
  cfg.vocab = 211;
  cfg.hidden = 48;
  cfg.heads = 4;
  cfg.layers = 8;
  cfg.seq = 12;
  cfg.seed = 20260730;
  return cfg;
}

std::vector<int> make_tokens(const nn::SmallModelConfig& cfg,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> tokens(cfg.seq);
  for (int& t : tokens) t = static_cast<int>(rng.next_below(cfg.vocab));
  return tokens;
}

// ------------------------------------------------------------------ 1 ----

TEST(InferenceSchedule, ForwardOnlyInvariants) {
  struct Case {
    Scheme scheme;
    int f;
  };
  const Case cases[] = {{Scheme::kChimera, 1},
                        {Scheme::kChimera, 2},
                        {Scheme::kGPipe, 1},
                        {Scheme::kDapple, 1}};
  for (const Case& c : cases) {
    for (int N : {4, 8, 10}) {
      SCOPED_TRACE(std::string(scheme_name(c.scheme)) + " f=" +
                   std::to_string(c.f) + " N=" + std::to_string(N));
      const PipelineSchedule s = build_inference_schedule(
          c.scheme, ScheduleConfig{4, N, c.f, ScaleMethod::kDirect});
      EXPECT_TRUE(s.forward_only);
      EXPECT_NO_THROW(validate(s));

      // Forward ops only, and exactly one per (micro, stage): N·D in total.
      std::size_t total = 0;
      for (const auto& ops : s.worker_ops) {
        for (const Op& op : ops) {
          EXPECT_EQ(op.kind, OpKind::kForward);
          EXPECT_EQ(op.chunk, 1);
        }
        total += ops.size();
      }
      EXPECT_EQ(total, static_cast<std::size_t>(N) * s.depth);

      // Per-pipe FIFO: on every worker, a pipe's micro-batches appear in
      // strictly increasing order — serving streams never reorder.
      for (const auto& ops : s.worker_ops) {
        std::map<int, int> last_micro;
        for (const Op& op : ops) {
          auto it = last_micro.find(op.pipe);
          if (it != last_micro.end()) EXPECT_GT(op.micro, it->second);
          last_micro[op.pipe] = op.micro;
        }
      }

      // No stash events in the lowered plan: serving holds no activations.
      const ExecutionPlan plan(s);
      for (int high : max_inflight_micros(plan)) EXPECT_EQ(high, 0);
      for (int w = 0; w < s.depth; ++w)
        for (const PlannedOp& pop : plan.worker_plan(w))
          for (const MicroUnit& u : pop.units) {
            EXPECT_FALSE(u.acquires_stash);
            EXPECT_FALSE(u.releases_stash);
          }
    }
  }
}

TEST(InferenceSchedule, BidirectionalGeometryMatchesTraining) {
  // Worker w hosts down-stage w and up-stage D−1−w (f=1): the pairing the
  // head-balance argument rests on (DESIGN.md §5).
  const PipelineSchedule s = build_inference_schedule(
      Scheme::kChimera, ScheduleConfig{4, 4, 1, ScaleMethod::kDirect});
  ASSERT_EQ(s.num_pipes, 2);
  for (int st = 0; st < 4; ++st) {
    EXPECT_EQ(s.stage_worker[0][st], st);
    EXPECT_EQ(s.stage_worker[1][st], 3 - st);
  }
}

TEST(InferenceSchedule, RejectsSchemesWithoutServingLowering) {
  const ScheduleConfig cfg{4, 4, 1, ScaleMethod::kDirect};
  EXPECT_THROW(build_inference_schedule(Scheme::kGems, cfg), CheckError);
  EXPECT_THROW(build_inference_schedule(Scheme::kPipeDream, cfg), CheckError);
  EXPECT_THROW(build_inference_schedule(Scheme::kPipeDream2BW, cfg),
               CheckError);
}

// ------------------------------------------------------------------ 2 ----

std::deque<PendingRequest> pending(int n) {
  std::deque<PendingRequest> q;
  for (int i = 1; i <= n; ++i)
    q.push_back(PendingRequest{static_cast<std::uint64_t>(i), {}, 0});
  return q;
}

TEST(MicroBatcher, FifoSlotsCapAndPartialTailFlushes) {
  std::deque<PendingRequest> q = pending(11);
  Round r = form_round(q, /*max_batch=*/4, /*num_slots=*/2);
  ASSERT_EQ(r.slots.size(), 2u);  // capped at the round's slot count
  EXPECT_EQ(r.requests(), 8);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(r.slots[i / 4][i % 4].id, i + 1);  // FIFO order
  EXPECT_EQ(q.size(), 3u);
  r = form_round(q, 4, 2);  // remaining partial flushes at once
  ASSERT_EQ(r.slots.size(), 1u);
  EXPECT_EQ(r.slots[0].size(), 3u);
  EXPECT_EQ(r.slots[0][0].id, 9u);
  EXPECT_TRUE(q.empty());
}

TEST(Serving, FakeClockLatencyStampsAreExact) {
  const nn::SmallModelConfig model = serving_model();
  long fake_now = 1000;
  ServeOptions opts;
  opts.max_batch = 2;
  opts.clock = [&fake_now] { return fake_now; };
  ServingEngine engine(model, Scheme::kChimera,
                       ScheduleConfig{4, 2, 1, ScaleMethod::kDirect}, opts);
  engine.submit(make_tokens(model, 1));
  fake_now = 1500;
  engine.submit(make_tokens(model, 2));
  fake_now = 9000;
  std::vector<ServeResult> results = engine.serve_pending();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].latency_us(), 9000 - 1000);
  EXPECT_EQ(results[1].latency_us(), 9000 - 1500);
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.rounds, 1);
  // Both requests coalesced into one full slot; the round's empty second
  // slot is skipped outright, so nothing was padded.
  EXPECT_EQ(stats.padded_rows, 0);
  EXPECT_EQ(stats.percentile_us(50.0), 7500);
}

// ------------------------------------------------------------------ 3 ----

TEST(Serving, LogitsBitwiseEqualDirectForward) {
  const nn::SmallModelConfig model = serving_model();
  // Direct reference: the whole model as one stage on one device; infer()
  // per request at B = 1 — batching and padding must not change a bit.
  nn::StageModule direct(model, 0, 1);

  const int R = 11;  // forces a padded tail batch and a partial round
  struct Case {
    Scheme scheme;
    int f;
  };
  const Case cases[] = {{Scheme::kChimera, 1},
                        {Scheme::kChimera, 2},
                        {Scheme::kGPipe, 1}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(scheme_name(c.scheme)) + " f=" +
                 std::to_string(c.f));
    ServeOptions opts;
    opts.max_batch = 2;
    ServingEngine engine(model, c.scheme,
                         ScheduleConfig{4, 4, c.f, ScaleMethod::kDirect},
                         opts);
    std::vector<std::uint64_t> ids;
    for (int r = 0; r < R; ++r)
      ids.push_back(engine.submit(make_tokens(model, 100 + r)));
    std::vector<ServeResult> results = engine.serve_pending();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(R));

    std::map<std::uint64_t, const ServeResult*> by_id;
    for (const ServeResult& res : results) by_id[res.id] = &res;
    for (int r = 0; r < R; ++r) {
      ASSERT_TRUE(by_id.count(ids[r]));
      const ServeResult& res = *by_id[ids[r]];
      nn::MicroBatch mb;
      mb.batch = 1;
      mb.seq = model.seq;
      mb.tokens = make_tokens(model, 100 + r);
      const Tensor want = direct.infer(mb, Tensor());
      ASSERT_EQ(res.logits.rows(), model.seq);
      ASSERT_EQ(res.logits.cols(), model.vocab);
      ASSERT_EQ(want.numel(), res.logits.numel());
      for (std::size_t i = 0; i < want.numel(); ++i)
        ASSERT_EQ(want[i], res.logits[i]) << "element " << i;
    }
    EXPECT_GT(engine.stats().padded_rows, 0);
  }
  ComputePool::instance().set_helpers(0);
}

}  // namespace
}  // namespace chimera::rt
