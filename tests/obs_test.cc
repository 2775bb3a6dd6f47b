// The tracing subsystem's contracts (DESIGN.md §9):
//  1. The per-thread ring retains the most recent events, in order.
//  2. Spans nest correctly and record nothing while tracing is disabled.
//  3. Under an injected constant clock, two identical runs produce
//     identical event streams (collection is deterministic), and one
//     serving round and one decode step record a pinned span stream.
//  4. Tracing on vs off leaves all computed results bitwise identical —
//     training losses/weights and decoded token streams alike.
//  5. The Chrome-trace JSON round-trips exactly through the strict parser,
//     which rejects malformed documents instead of skipping fields.
//  6. obs::Histogram reports nearest-rank percentiles and bounds its
//     reservoir ring-style.
//  7. With armed plan times, the measured bubble accounting of
//     analyze_trace reproduces the dependency-exact replay *bitwise*, and
//     check_trace flags corrupted traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule_analysis.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "runtime/decode.h"
#include "runtime/serving.h"
#include "runtime/trainer.h"
#include "tensor/compute_pool.h"

namespace chimera::obs {
namespace {

/// Restores the recorder's global control plane no matter how a test exits,
/// so one failing test cannot leak an enabled recorder or a fake clock into
/// the next.
struct ObsGuard {
  ObsGuard() { reset(); }
  ~ObsGuard() {
    set_enabled(false);
    set_clock(nullptr);
    clear_plan_times();
    set_ring_capacity(std::size_t{1} << 18);
    reset();
  }
};

nn::SmallModelConfig tiny_model() {
  nn::SmallModelConfig cfg;
  cfg.vocab = 211;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.layers = 4;
  cfg.seq = 8;
  cfg.seed = 20260808;
  return cfg;
}

nn::MicroBatch make_batch(const nn::SmallModelConfig& cfg, int samples,
                          std::uint64_t seed) {
  nn::MicroBatch mb;
  mb.batch = samples;
  mb.seq = cfg.seq;
  Rng rng(seed);
  for (int i = 0; i < samples * cfg.seq; ++i) {
    const int t = static_cast<int>(rng.next_below(cfg.vocab));
    mb.tokens.push_back(t);
    mb.targets.push_back((t + 1) % cfg.vocab);
  }
  return mb;
}

// ------------------------------------------------------------------ 1 ----

TEST(ObsRing, WraparoundRetainsMostRecentInOrder) {
  ObsGuard guard;
  set_ring_capacity(16);
  set_enabled(true);
  for (int i = 0; i < 40; ++i)
    instant(EventKind::kToken, /*worker=*/0, -1, -1, -1, /*tag=*/i);
  set_enabled(false);
  const std::vector<TraceEvent> events = collect();
  ASSERT_EQ(events.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(events[i].kind, EventKind::kToken);
    EXPECT_EQ(events[i].tag, 24 + i);  // the most recent 16 of 40, in order
    EXPECT_EQ(events[i].seq, static_cast<std::uint64_t>(24 + i));
    EXPECT_EQ(events[i].t0_us, events[i].t1_us);  // instants are points
  }
}

// ------------------------------------------------------------------ 2 ----

TEST(ObsSpan, NestingIdentityAndDisabledIsSilent) {
  ObsGuard guard;

  // Disabled: guards and instants record nothing.
  { Span s(EventKind::kGradSync, 1); }
  instant(EventKind::kAdmit, 1);
  EXPECT_TRUE(collect().empty());

  set_enabled(true);
  {
    Span outer(EventKind::kGradSync, /*worker=*/3);
    Span inner(EventKind::kSend, /*worker=*/3, /*micro=*/1, /*stage=*/2,
               /*pipe=*/0, /*tag=*/77);
  }
  set_enabled(false);
  const std::vector<TraceEvent> events = collect();
  ASSERT_EQ(events.size(), 2u);
  // Spans append on close: the inner span closes (and sequences) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.kind, EventKind::kSend);
  EXPECT_EQ(inner.micro, 1);
  EXPECT_EQ(inner.stage, 2);
  EXPECT_EQ(inner.tag, 77);
  EXPECT_EQ(outer.kind, EventKind::kGradSync);
  EXPECT_LT(inner.seq, outer.seq);
  // The inner interval nests inside the outer one (steady clock).
  EXPECT_LE(outer.t0_us, inner.t0_us);
  EXPECT_LE(inner.t0_us, inner.t1_us);
  EXPECT_LE(inner.t1_us, outer.t1_us);
}

// ------------------------------------------------------------------ 3 ----

TEST(ObsClock, ConstantFakeClockMakesTwoRunsIdentical) {
  ObsGuard guard;
  const nn::SmallModelConfig model = tiny_model();
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
  rt::TrainerOptions opts;
  opts.intra_op = 0;  // serial kernels: one thread per rank, no helpers

  set_clock([] { return 42.0; });
  auto run_once = [&] {
    reset();
    rt::PipelineTrainer t(model, Scheme::kChimera, sc, opts);
    set_enabled(true);
    const double loss = t.train_iteration(make_batch(model, 4, 31)).loss;
    set_enabled(false);
    return std::make_pair(loss, collect());
  };
  const auto [loss_a, events_a] = run_once();
  const auto [loss_b, events_b] = run_once();
  EXPECT_EQ(loss_a, loss_b);
  ASSERT_FALSE(events_a.empty());
  // Identical runs under an injected clock yield identical streams —
  // TraceEvent equality is field-wise, including seq and (worker, lane).
  EXPECT_EQ(events_a, events_b);
  for (const TraceEvent& e : events_a) {
    EXPECT_EQ(e.t0_us, 42.0);
    EXPECT_EQ(e.t1_us, 42.0);
  }
}

/// One "kind worker micro stage pipe tag" line per collected event.
std::vector<std::string> span_stream() {
  std::vector<std::string> out;
  for (const TraceEvent& e : collect())
    out.push_back(std::string(event_kind_name(e.kind)) + " " +
                  std::to_string(e.worker) + " " + std::to_string(e.micro) +
                  " " + std::to_string(e.stage) + " " +
                  std::to_string(e.pipe) + " " + std::to_string(e.tag));
  return out;
}

TEST(ObsClock, ServeAndDecodeSpanStreamsArePinned) {
  ObsGuard guard;
  const nn::SmallModelConfig model = tiny_model();
  const ScheduleConfig sc{2, 2, 1, ScaleMethod::kDirect};
  set_clock([] { return 42.0; });

  // One serving round: two single-request slots, one per pipe.
  rt::ServeOptions sopts;
  sopts.max_batch = 1;
  sopts.intra_op = 0;  // no helper threads: their spans are not pinned here
  rt::ServingEngine server(model, Scheme::kChimera, sc, sopts);
  for (int r = 0; r < 2; ++r)
    server.submit(make_batch(model, 1, 80 + r).tokens);
  set_enabled(true);
  ASSERT_EQ(server.serve_pending().size(), 2u);
  set_enabled(false);
  const std::vector<std::string> serve_want = {
      "serve_round -1 2 -1 -1 2",
      "send 0 0 0 0 32768",
      "forward 0 0 0 0 0",
      "recv 0 1 1 1 2129924",
      "forward 0 1 1 1 0",
      "send 1 1 0 1 2129924",
      "forward 1 1 0 1 0",
      "recv 1 0 1 0 32768",
      "forward 1 0 1 0 0",
  };
  EXPECT_EQ(span_stream(), serve_want);
  reset();

  // One decode step: three admissions (the third shares stream 0) whose
  // prompt rows all ride the step's one decode round — one send per op, no
  // per-session tag band — each seeding its session's first token.
  rt::DecodeOptions dopts;
  dopts.max_batch = 2;
  dopts.max_new_tokens = 4;
  dopts.kv_page_size = 4;
  dopts.intra_op = 0;
  rt::DecodeEngine decoder(model, Scheme::kChimera, sc, dopts);
  for (int r = 0; r < 3; ++r) {
    std::vector<int> prompt = make_batch(model, 1, 90 + r).tokens;
    prompt.resize(3 + r);
    decoder.submit(prompt);
  }
  set_enabled(true);
  EXPECT_EQ(decoder.step(), 3);
  set_enabled(false);
  const std::vector<std::string> decode_want = {
      "admit -1 0 -1 0 1",
      "admit -1 1 -1 1 2",
      "admit -1 0 -1 0 3",
      "decode_round -1 -1 -1 -1 0",
      "token -1 0 -1 0 1",
      "token -1 0 -1 0 3",
      "token -1 1 -1 1 2",
      "cache_acquire 0 0 0 0 0",
      "send 0 0 0 0 32768",
      "decode_op 0 0 0 0 0",
      "recv 0 1 1 1 2129924",
      "cache_release 0 1 1 1 1",
      "decode_op 0 1 1 1 0",
      "cache_acquire 1 1 0 1 1",
      "send 1 1 0 1 2129924",
      "decode_op 1 1 0 1 0",
      "recv 1 0 1 0 32768",
      "cache_release 1 0 1 0 0",
      "decode_op 1 0 1 0 0",
  };
  EXPECT_EQ(span_stream(), decode_want);
}

// ------------------------------------------------------------------ 4 ----

TEST(ObsParity, TracingOnVsOffIsBitwiseIdenticalTraining) {
  ObsGuard guard;
  const nn::SmallModelConfig model = tiny_model();
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};

  struct State {
    std::vector<double> losses;
    std::vector<std::vector<float>> weights;
  };
  auto run_trainer = [&](bool traced) {
    reset();
    set_enabled(traced);
    rt::TrainerOptions opts;
    opts.intra_op = traced ? 2 : 0;  // also cross helper counts for free
    rt::PipelineTrainer t(model, Scheme::kChimera, sc, opts);
    State out;
    for (int it = 0; it < 2; ++it)
      out.losses.push_back(t.train_iteration(make_batch(model, 4, 50 + it)).loss);
    for (int st = 0; st < sc.depth; ++st)
      out.weights.push_back(t.stage_weights(0, 0, st));
    set_enabled(false);
    return out;
  };
  // Baseline bitwise contract is serial-vs-pooled (runtime_parity_test);
  // here the off leg is serial and the on leg pooled *and traced*, so a
  // pass means instrumentation changed nothing either.
  const State off = run_trainer(false);
  const State on = run_trainer(true);
  EXPECT_EQ(off.losses, on.losses);
  ASSERT_EQ(off.weights.size(), on.weights.size());
  for (std::size_t i = 0; i < off.weights.size(); ++i)
    EXPECT_EQ(off.weights[i], on.weights[i]) << "stage " << i;
  EXPECT_FALSE(collect().empty());  // the traced leg genuinely recorded
  ComputePool::instance().set_helpers(0);
}

TEST(ObsParity, TracingOnVsOffIsBitwiseIdenticalDecode) {
  ObsGuard guard;
  nn::SmallModelConfig model = tiny_model();
  model.hidden = 48;
  model.layers = 8;
  model.seq = 16;
  rt::DecodeOptions opts;
  opts.max_batch = 2;
  opts.max_new_tokens = 4;

  auto run_decode = [&](bool traced) {
    reset();
    set_enabled(traced);
    rt::DecodeEngine engine(model, Scheme::kChimera,
                            ScheduleConfig{4, 2, 1, ScaleMethod::kDirect},
                            opts);
    std::vector<std::uint64_t> ids;
    for (int r = 0; r < 5; ++r) {
      Rng rng(700 + r);
      std::vector<int> prompt(3 + r);
      for (int& t : prompt) t = static_cast<int>(rng.next_below(model.vocab));
      ids.push_back(engine.submit(prompt, 2 + r % 3));
    }
    std::map<std::uint64_t, std::vector<int>> by_id;
    for (const rt::DecodeResult& r : engine.run_until_drained())
      by_id[r.id] = r.tokens;
    std::vector<std::vector<int>> tokens;  // in submission order
    for (std::uint64_t id : ids) tokens.push_back(by_id.at(id));
    set_enabled(false);
    return tokens;
  };
  const auto off = run_decode(false);
  const auto on = run_decode(true);
  EXPECT_EQ(off, on);  // greedy decoding: bitwise logits ⇒ identical text
  EXPECT_FALSE(collect().empty());
  ComputePool::instance().set_helpers(0);
}

// ------------------------------------------------------------------ 5 ----

TEST(ObsJson, SyntheticRoundTripAndStrictParser) {
  TraceDoc doc;
  doc.meta.workload = "training";
  doc.meta.scheme = "Chimera";
  doc.meta.depth = 4;
  doc.meta.num_micro = 4;
  doc.meta.sync = "at-end";
  doc.meta.hidden = 32;
  doc.meta.heads = 4;
  doc.meta.layers = 4;
  doc.meta.seq = 8;
  doc.meta.vocab = 211;
  TraceEvent span;
  span.kind = EventKind::kForward;
  span.worker = 2;
  span.micro = 1;
  span.stage = 3;
  span.pipe = 0;
  span.op_index = 5;
  span.t0_us = 0.1 + 0.2;  // not exactly representable: %.17g must hold it
  span.t1_us = 1e9 + 1.0 / 3.0;
  span.seq = 7;
  TraceEvent inst;
  inst.kind = EventKind::kCowSplit;
  inst.worker = -1;  // driver thread: negative worker must survive pid mapping
  inst.lane = 2;
  inst.tag = -3;
  inst.t0_us = inst.t1_us = 5.25;
  inst.seq = 9;
  doc.events = {span, inst};
  std::sort(doc.events.begin(), doc.events.end(), trace_event_before);

  const std::string json = trace_doc_to_json(doc);
  EXPECT_EQ(trace_from_json(json), doc);                    // exact round trip
  EXPECT_EQ(trace_doc_to_json(trace_from_json(json)), json);  // byte-stable

  EXPECT_THROW(trace_from_json("{"), CheckError);
  EXPECT_THROW(trace_from_json("[]"), CheckError);
  // Strictness: an unknown key is an error, never silently skipped.
  std::string renamed = json;
  renamed.replace(renamed.find("displayTimeUnit"), 15, "displayTimeUnitX");
  EXPECT_THROW(trace_from_json(renamed), CheckError);
  // An unknown event-kind name is an error too.
  std::string bad_kind = json;
  bad_kind.replace(bad_kind.find("cow_split"), 9, "cow_splat");
  EXPECT_THROW(trace_from_json(bad_kind), CheckError);
  // Text that is not JSON: a leading '+' or zero, a \u escape without four
  // hex digits. An int field outside int range is an error, not narrowed.
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string out = json;
    out.replace(out.find(from), from.size(), to);
    return out;
  };
  EXPECT_THROW(trace_from_json(with("\"depth\":4", "\"depth\":+4")),
               CheckError);
  EXPECT_THROW(trace_from_json(with("\"depth\":4", "\"depth\":004")),
               CheckError);
  EXPECT_THROW(trace_from_json(with("\"training\"", "\"train\\uzzzz\"")),
               CheckError);
  EXPECT_THROW(trace_from_json(with("\"depth\":4", "\"depth\":4294967300")),
               CheckError);
  // Metadata events are checked against the shapes the writer emits.
  EXPECT_THROW(trace_from_json(with("{\"name\":\"process_name\"",
                                    "{\"ph\":\"M\",\"bogus\":[1,2,{\"x\":true}]},"
                                    "{\"name\":\"process_name\"")),
               CheckError);
  EXPECT_THROW(trace_from_json(with("\"pid\":0,\"args\":{\"name\":\"engine\"}",
                                    "\"pid\":0,\"bogus\":[1,2,{\"x\":true}],"
                                    "\"args\":{\"name\":\"engine\"}")),
               CheckError);
}

// ------------------------------------------------------------------ 6 ----

TEST(ObsHistogram, NearestRankPercentilesAndBoundedReservoir) {
  // Nearest rank: the smallest sample with at least p% of samples ≤ it —
  // p99 of 64 samples is the maximum, not the 63rd sample.
  Histogram h64;
  for (long v = 1; v <= 64; ++v) h64.add(v);
  EXPECT_EQ(h64.percentile(0.0), 1);
  EXPECT_EQ(h64.percentile(50.0), 32);
  EXPECT_EQ(h64.percentile(99.0), 64);
  EXPECT_EQ(h64.percentile(100.0), 64);
  Histogram h100;
  for (long v = 1; v <= 100; ++v) h100.add(v);
  EXPECT_EQ(h100.percentile(25.0), 25);
  EXPECT_EQ(Histogram().percentile(50.0), 0);  // empty → 0

  // Bounded reservoir: the retained set is the most recent max_samples.
  Histogram ring(4);
  for (long v = 1; v <= 10; ++v) ring.add(v);
  EXPECT_EQ(ring.count(), 10);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.min(), 7);
  EXPECT_EQ(ring.max(), 10);
  EXPECT_EQ(ring.mean(), (7 + 8 + 9 + 10) / 4.0);
  EXPECT_EQ(ring.percentile(100.0), 10);
}

TEST(ObsHistogram, RegistryFlattensDeterministically) {
  MetricsRegistry reg;
  reg.set_gauge("queue_depth", 3.0);
  reg.add_counter("rounds");
  reg.add_counter("rounds", 4.0);
  reg.histogram("latency_us").add(10);
  reg.histogram("latency_us").add(20);
  const auto flat = reg.flatten();
  const std::vector<std::pair<std::string, double>> want = {
      {"latency_us_count", 2.0}, {"latency_us_mean", 15.0},
      {"latency_us_p50", 10.0},  {"latency_us_p99", 20.0},
      {"queue_depth", 3.0},      {"rounds", 5.0},
  };
  EXPECT_EQ(flat, want);
}

// ------------------------------------------------------------------ 7 ----

TEST(ObsReport, ArmedPlanTimesReproduceReplayBitwise) {
  ObsGuard guard;
  const nn::SmallModelConfig model = tiny_model();
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
  rt::TrainerOptions opts;
  opts.intra_op = 0;
  rt::PipelineTrainer t(model, Scheme::kChimera, sc, opts);

  // Integer-µs costs: every replay timestamp is then an exactly
  // representable integer, so sums and differences below are exact.
  ReplayCosts costs;
  costs.forward_by_stage = {100.0, 200.0, 300.0, 400.0};
  costs.backward_by_stage = {200.0, 400.0, 600.0, 800.0};
  costs.p2p = 0.0;
  costs.allreduce = 0.0;
  const ReplayResult rr = replay(t.plan(), costs);

  PlanTimes times(sc.depth);
  for (int w = 0; w < sc.depth; ++w)
    for (const OpTiming& ot : rr.times[w]) times[w].push_back({ot.start, ot.end});
  arm_plan_times(std::move(times));
  set_clock([] { return 0.0; });  // non-op spans pinned off the timeline

  set_enabled(true);
  (void)t.train_iteration(make_batch(model, 4, 91));
  set_enabled(false);

  TraceDoc doc;
  doc.meta.workload = "training";
  doc.meta.scheme = scheme_name(Scheme::kChimera);
  doc.meta.depth = sc.depth;
  doc.meta.num_micro = sc.num_micro;
  doc.meta.pipes_f = sc.pipes_f;
  doc.meta.scale = scale_method_name(sc.scale);
  // The trace records the *effective* sync policy the trainer applied.
  doc.meta.sync = sync_policy_name(SyncPolicy::kAtEnd);
  doc.meta.recompute = false;
  doc.meta.data_parallel = 1;
  doc.meta.micro_batch = 1;
  doc.meta.partition = partition_policy_name(PartitionPolicy::kEven);
  doc.meta.hidden = model.hidden;
  doc.meta.heads = model.heads;
  doc.meta.layers = model.layers;
  doc.meta.seq = model.seq;
  doc.meta.vocab = model.vocab;
  doc.events = collect();

  // The real-data round trip (the synthetic one is test 5).
  EXPECT_EQ(trace_from_json(trace_doc_to_json(doc)), doc);
  EXPECT_TRUE(check_trace(doc).empty());

  const TraceReport rep = analyze_trace(doc);
  EXPECT_EQ(rep.iterations, 1);
  // Every comparison below is EXPECT_EQ on doubles: the armed-plan-times
  // contract is *bitwise* agreement with the replay, not approximate.
  EXPECT_EQ(rep.compute_makespan_us, rr.compute_makespan);
  EXPECT_EQ(rep.measured_bubble_ratio, rr.bubble_ratio());
  ASSERT_EQ(rep.workers.size(), static_cast<std::size_t>(sc.depth));
  for (int w = 0; w < sc.depth; ++w) {
    EXPECT_EQ(rep.workers[w].busy_us, rr.busy[w]) << "rank " << w;
    EXPECT_EQ(rep.workers[w].bubble_us, rr.bubble[w]) << "rank " << w;
  }
  // The inverted per-stage costs feed the replay back: predicted ==
  // measured, closing the measured-vs-predicted loop exactly.
  ASSERT_TRUE(rep.has_prediction);
  EXPECT_EQ(rep.predicted_compute_makespan_us, rr.compute_makespan);
  EXPECT_EQ(rep.predicted_bubble_ratio, rr.bubble_ratio());
  for (int w = 0; w < sc.depth; ++w) {
    EXPECT_EQ(rep.workers[w].predicted_busy_us, rr.busy[w]);
    EXPECT_EQ(rep.workers[w].predicted_bubble_us, rr.bubble[w]);
  }

  // Flush spans: one optimizer step per rank, and — every Chimera stage
  // syncs over two ranks on the ring, so its update is sharded — one
  // parameter allgather per hosted stage; the report averages both per
  // iteration.
  {
    TraceDoc flush = doc;
    for (TraceEvent& e : flush.events) {
      if (e.kind == EventKind::kOptimStep) e.t1_us = e.t0_us + 7.0;
      if (e.kind == EventKind::kGradSync) e.t1_us = e.t0_us + 3.0;
    }
    const TraceReport fr = analyze_trace(flush);
    for (int w = 0; w < sc.depth; ++w) {
      EXPECT_EQ(fr.workers[w].optim_step_us, 7.0) << "rank " << w;
      EXPECT_EQ(fr.workers[w].grad_sync_us, 6.0) << "rank " << w;
    }
    EXPECT_NE(format_report(fr).find("optim_step_us"), std::string::npos);
  }

  // check_trace catches corruption of the same document.
  {
    TraceDoc bad = doc;  // reordered events
    ASSERT_GE(bad.events.size(), 2u);
    std::swap(bad.events[0], bad.events[1]);
    EXPECT_FALSE(check_trace(bad).empty());
  }
  {
    TraceDoc bad = doc;  // a span running backwards in time
    for (TraceEvent& e : bad.events)
      if (is_plan_op(e.kind)) {
        e.t1_us = e.t0_us - 1.0;
        break;
      }
    EXPECT_FALSE(check_trace(bad).empty());
  }
  {
    TraceDoc bad = doc;  // a send whose recv never happened
    const auto it = std::find_if(
        bad.events.begin(), bad.events.end(),
        [](const TraceEvent& e) { return e.kind == EventKind::kRecv; });
    ASSERT_NE(it, bad.events.end());
    bad.events.erase(it);
    EXPECT_FALSE(check_trace(bad).empty());
  }
}

}  // namespace
}  // namespace chimera::obs
