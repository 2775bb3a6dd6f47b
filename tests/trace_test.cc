// Simulated runs exported as obs traces (sim::engine_trace): a simulated
// timeline is a trace like a measured one. It passes the analyzer's
// structural checks, round-trips bitwise through the trace JSON, and the
// analyzer's measured bubble is the engine's own bubble ratio.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/sync_placement.h"
#include "obs/report.h"
#include "obs/trace_json.h"
#include "sim/event_engine.h"

namespace chimera::sim {
namespace {

/// Uneven stages and a nonzero allreduce launch cost, so neither compute
/// nor the sync ops line up by accident.
EngineCosts uneven_costs() {
  EngineCosts c;
  c.forward_seconds = {1.0, 1.25, 1.5, 0.75};
  c.backward_factor = 2.0;
  c.allreduce_seconds.assign(4, 0.5);
  c.begin_cpu_fraction = 0.1;
  return c;
}

obs::TraceMeta training_meta(Scheme scheme, SyncPolicy sync, int depth,
                             int micro) {
  obs::TraceMeta m;
  m.workload = "training";
  m.scheme = scheme_name(scheme);
  m.depth = depth;
  m.num_micro = micro;
  m.sync = sync_policy_name(sync);
  m.hidden = 32;
  m.heads = 4;
  m.layers = 2 * depth;
  m.seq = 8;
  m.vocab = 97;
  return m;
}

TEST(SimTrace, EveryTrainingSchemeChecksRoundTripsAndKeepsItsBubble) {
  for (const Scheme scheme : {Scheme::kChimera, Scheme::kGPipe,
                              Scheme::kDapple, Scheme::kGems,
                              Scheme::kOneF1B}) {
    for (const SyncPolicy sync : {SyncPolicy::kAtEnd, SyncPolicy::kEagerOpt}) {
      SCOPED_TRACE(std::string(scheme_name(scheme)) + " " +
                   sync_policy_name(sync));
      const PipelineSchedule s = with_gradient_sync(
          build_schedule(scheme, {4, 4, 1, ScaleMethod::kDirect}), sync);
      const EngineResult r = run_engine(s, uneven_costs());
      const obs::TraceDoc doc =
          engine_trace(s, r, training_meta(scheme, sync, 4, 4));
      ASSERT_EQ(doc.events.size(), s.total_ops());

      const std::vector<std::string> issues = obs::check_trace(doc);
      EXPECT_TRUE(issues.empty()) << issues.front();
      EXPECT_EQ(obs::trace_from_json(obs::trace_doc_to_json(doc)), doc);

      const double engine_bubble = r.bubble_ratio();
      const double measured = obs::analyze_trace(doc).measured_bubble_ratio;
      EXPECT_GT(engine_bubble, 0.0);
      EXPECT_LE(std::abs(measured - engine_bubble), 1e-12 * engine_bubble)
          << "measured " << measured << " vs engine " << engine_bubble;
    }
  }
}

TEST(SimTrace, SpansCarryThePlanIdentityInMicroseconds) {
  const PipelineSchedule s = with_gradient_sync(
      build_schedule(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect}),
      SyncPolicy::kEagerOpt);
  const EngineResult r = run_engine(s, uneven_costs());
  const obs::TraceDoc doc = engine_trace(
      s, r, training_meta(Scheme::kChimera, SyncPolicy::kEagerOpt, 4, 4));
  std::size_t n = 0;
  for (int w = 0; w < s.depth; ++w) {
    for (std::size_t i = 0; i < s.worker_ops[w].size(); ++i, ++n) {
      const Op& op = s.worker_ops[w][i];
      const obs::TraceEvent& e = doc.events[n];
      EXPECT_EQ(e.kind, obs::op_event_kind(op.kind));
      EXPECT_EQ(e.worker, w);
      EXPECT_EQ(e.lane, 0);
      EXPECT_EQ(e.seq, i);
      EXPECT_EQ(e.op_index, static_cast<int>(i));
      EXPECT_EQ(e.micro, op.micro);
      EXPECT_EQ(e.stage, op.stage);
      EXPECT_EQ(e.pipe, op.pipe);
      EXPECT_EQ(e.t0_us, r.op_start[w][i] * 1e6);
      EXPECT_EQ(e.t1_us, r.op_end[w][i] * 1e6);
    }
  }
  EXPECT_EQ(n, doc.events.size());
}

}  // namespace
}  // namespace chimera::sim
