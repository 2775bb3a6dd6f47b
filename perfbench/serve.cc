// serve_score: ServingEngine, Chimera f=1, D=4, 8 slots × max_batch 4, fed
// by seeded open-loop full-length scoring requests and drained with
// serve_pending() from the main thread. The only workload on the
// forward-only infer path and the micro-batcher.
//
// As in decode_mixed, the timed phase has two halves. The fixed-batch half
// cycles through kBatchSizes, draining each batch before submitting the
// next, so every run drives the same rounds (full, partial and padded) and
// its CPU per token does not move with host load; the open loop gives the
// latencies.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "obs/trace.h"
#include "runtime/serving.h"

namespace perfbench {
namespace {

using namespace chimera;

/// Offered load, requests/s: about half the closed-loop capacity of this
/// deployment measured on a 4-vCPU x86-64 host (README.md).
constexpr double kRate = 50.0;
/// Goodput limit: a request counts when its logits land within this long
/// of its due time.
constexpr double kLatencyLimitMs = 500.0;
/// Requests per drain in the fixed-batch half: a full round (8 slots × 4),
/// then partial rounds whose tail slot is padded.
constexpr int kBatchSizes[] = {32, 30, 21, 13, 6};
constexpr int kSetupReps = 3;
constexpr int kChecked = 4;  ///< sampled results compared with the chain

struct Req {
  double due_us = 0.0;  ///< relative to the phase start
  std::vector<int> tokens;
};

struct PhaseResult {
  std::vector<Req> reqs;
  std::vector<double> latency_ms;  ///< per request; < 0 = not served
  std::vector<double> late_ms;
  std::vector<Tensor> kept;         ///< logits of the sampled requests
  std::vector<std::size_t> kept_of;  ///< request index of each kept tensor
  std::vector<char> shape_ok;
  double cpu_us = 0.0;
  long served = 0;
};

std::vector<Req> make_arrivals(Rng& rng, const nn::SmallModelConfig& m,
                               double seconds) {
  std::vector<Req> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / kRate * 1e6;
    if (t >= seconds * 1e6) return out;
    Req q;
    q.due_us = t;
    q.tokens.resize(m.seq);
    for (int& x : q.tokens) x = static_cast<int>(rng.next_below(m.vocab));
    out.push_back(std::move(q));
  }
}

/// Records served results: latency from the due time, shape and finiteness,
/// and the logits of kept requests for the chain check.
void record(std::vector<rt::ServeResult> done, double start,
            const std::unordered_map<std::uint64_t, std::size_t>& index,
            const std::vector<std::size_t>& keep,
            const nn::SmallModelConfig& m, PhaseResult& p) {
  for (rt::ServeResult& s : done) {
    const auto it = index.find(s.id);
    if (it == index.end()) continue;
    const std::size_t i = it->second;
    p.latency_ms[i] = (s.done_us - start - p.reqs[i].due_us) / 1e3;
    bool ok = s.logits.rows() == m.seq && s.logits.cols() == m.vocab;
    for (std::size_t k = 0; ok && k < s.logits.numel(); ++k)
      ok = std::isfinite(s.logits[k]);
    p.shape_ok[i] = ok;
    ++p.served;
    if (std::find(keep.begin(), keep.end(), i) != keep.end()) {
      p.kept.push_back(std::move(s.logits));
      p.kept_of.push_back(i);
    }
  }
}

PhaseResult run_open_loop(rt::ServingEngine& e, const std::vector<Req>& reqs,
                          const std::vector<std::size_t>& keep,
                          const nn::SmallModelConfig& m) {
  PhaseResult p;
  p.reqs = reqs;
  p.latency_ms.assign(reqs.size(), -1.0);
  p.shape_ok.assign(reqs.size(), 0);
  std::unordered_map<std::uint64_t, std::size_t> index;
  const double start = wall_us(), c0 = cpu_us();
  std::size_t next = 0;
  while (next < reqs.size()) {
    const double now = wall_us();
    bool queued = false;
    while (next < reqs.size() && start + reqs[next].due_us <= now) {
      p.late_ms.push_back((wall_us() - start - reqs[next].due_us) / 1e3);
      try {
        index[e.submit(reqs[next].tokens)] = next;
        queued = true;
      } catch (const rt::RequestError&) {
      }
      ++next;
    }
    if (!queued) {
      if (next < reqs.size())
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long>(start + reqs[next].due_us - wall_us())));
      continue;
    }
    record(e.serve_pending(), start, index, keep, m, p);
  }
  p.cpu_us = cpu_us() - c0;
  return p;
}

/// Submits batches of kBatchSizes requests in turn, draining each before
/// the next, until `seconds` have passed.
PhaseResult run_fixed_batches(rt::ServingEngine& e, Rng& rng, double seconds,
                              const std::vector<std::size_t>& keep,
                              const nn::SmallModelConfig& m) {
  PhaseResult p;
  std::unordered_map<std::uint64_t, std::size_t> index;
  const double start = wall_us(), c0 = cpu_us();
  std::size_t batch = 0;
  do {
    const int n = kBatchSizes[batch++ % std::size(kBatchSizes)];
    for (int k = 0; k < n; ++k) {
      Req q;
      q.due_us = wall_us() - start;
      q.tokens.resize(m.seq);
      for (int& x : q.tokens) x = static_cast<int>(rng.next_below(m.vocab));
      index[e.submit(q.tokens)] = p.reqs.size();
      p.reqs.push_back(std::move(q));
      p.latency_ms.push_back(-1.0);
      p.shape_ok.push_back(0);
    }
    record(e.serve_pending(), start, index, keep, m, p);
  } while (wall_us() - start < seconds * 1e6);
  p.cpu_us = cpu_us() - c0;
  return p;
}

void report_latency(const PhaseResult& p, Report& r, bool traced) {
  std::vector<double> lat;
  long good = 0;
  for (double l : p.latency_ms) {
    if (l < 0) continue;
    lat.push_back(l);
    if (l <= kLatencyLimitMs) ++good;
  }
  const std::string n = count_note(lat.size()) + " requests, open loop";
  r.wall(traced, "latency_ms_p50", percentile(lat, 50), "ms", n);
  r.wall(traced, "latency_ms_p90", percentile(lat, 90), "ms", n);
  r.wall(traced, "goodput_share",
         p.latency_ms.empty()
             ? 0.0
             : static_cast<double>(good) / p.latency_ms.size(),
         "share", "of " + std::to_string(p.latency_ms.size()) + " sent");
}

/// Correctness, untimed: every request served with finite [seq, vocab]
/// logits, and the kept sample bitwise what a serial infer chain through
/// the same partition's stages computes.
void check(const Args& a, const nn::SmallModelConfig& model,
           const Partition& part, std::vector<PhaseResult*> phases,
           Report& r) {
  std::vector<std::unique_ptr<nn::StageModule>> chain;
  for (int s = 0; s < part.depth(); ++s)
    chain.push_back(std::make_unique<nn::StageModule>(model, s, part.depth(),
                                                      part.range(s)));
  for (PhaseResult* p : phases)
    if (a.corrupt && !p->kept.empty()) {
      p->kept.front()[0] += 1e-3f;
      break;
    }
  for (PhaseResult* p : phases) {
    std::vector<char> chain_ok(p->reqs.size(), 1);
    for (std::size_t k = 0; k < p->kept.size(); ++k) {
      nn::MicroBatch mb;
      mb.batch = 1;
      mb.seq = model.seq;
      mb.tokens = p->reqs[p->kept_of[k]].tokens;
      Tensor x;
      for (auto& st : chain) x = st->infer(mb, x);
      bool same = x.numel() == p->kept[k].numel();
      for (std::size_t i = 0; same && i < x.numel(); ++i)
        same = x[i] == p->kept[k][i];
      chain_ok[p->kept_of[k]] = same;
    }
    for (std::size_t i = 0; i < p->reqs.size(); ++i)
      r.op(p->shape_ok[i] && chain_ok[i],
           "scoring request " + std::to_string(i) +
               (chain_ok[i] ? " unserved or malformed"
                            : " differs from the serial infer chain"));
  }
}

}  // namespace

void run_serve_score(const Args& a, Report& r) {
  const nn::SmallModelConfig model = gpt2_shape();
  const ScheduleConfig sched{4, 8, 1, ScaleMethod::kDirect};
  rt::ServeOptions opts;
  opts.max_batch = 4;
  opts.intra_op = 0;
  opts.kernel = KernelPolicy::kFast;
  opts.clock = [] { return static_cast<long>(wall_us()); };

  Rng rng(a.seed);
  std::vector<int> warm(model.seq);
  for (int& x : warm) x = static_cast<int>(rng.next_below(model.vocab));
  const double half_s = a.seconds / 2;
  const std::vector<Req> arrivals = make_arrivals(rng, model, half_s);
  // Requests whose logits are checked: a seeded sample of the open loop's,
  // and the first four of the fixed-batch half (seeded contents too).
  std::vector<std::size_t> keep_open, keep_fixed;
  for (int k = 0; k < kChecked; ++k) {
    if (!arrivals.empty()) keep_open.push_back(rng.next_below(arrivals.size()));
    keep_fixed.push_back(k);
  }

  // Set-up: construction through one warm-up round filling every slot.
  std::unique_ptr<rt::ServingEngine> e = set_up(
      kSetupReps,
      [&] {
        auto s = std::make_unique<rt::ServingEngine>(model, Scheme::kChimera,
                                                     sched, opts);
        for (int k = 0; k < sched.num_micro * opts.max_batch; ++k)
          s->submit(warm);
        (void)s->serve_pending();
        return s;
      },
      r);

  StealMeter steal;
  steal.start();
  if (!a.trace) {
    PhaseResult fixed = run_fixed_batches(*e, rng, half_s, keep_fixed, model);
    PhaseResult open = run_open_loop(*e, arrivals, keep_open, model);
    r.diag("host.steal_share", steal.share(), "share", "timed phase");
    r.diag("host.gen_late_ms_p90", percentile(open.late_ms, 90), "ms",
           count_note(open.late_ms.size()) + " arrivals");
    const long tokens = fixed.served * model.seq;
    r.e2e("cpu_us_per_token", fixed.cpu_us / std::max(1L, tokens), "us",
          std::to_string(tokens) + " scored tokens, fixed batches");
    report_latency(open, r, false);
    check(a, model, e->partition(), {&fixed, &open}, r);
    return;
  }
  PhaseResult open = run_open_loop(*e, arrivals, keep_open, model);
  report_latency(open, r, true);
  r.diag("host.gen_late_ms_p90", percentile(open.late_ms, 90), "ms",
         count_note(open.late_ms.size()) + " arrivals");

  // Traced run: the same open loop again with the recorder on.
  obs::reset();
  obs::set_ring_capacity(1 << 18);
  const rt::ServingStats s1 = e->stats();
  obs::set_enabled(true);
  PhaseResult traced =
      run_open_loop(*e, make_arrivals(rng, model, half_s), {}, model);
  obs::set_enabled(false);
  r.diag("host.steal_share", steal.share(), "share", "timed phase");
  const rt::ServingStats s2 = e->stats();
  LayerShape shape;
  shape.plan = LayerShape::Plan::kInference;
  shape.model = model;
  shape.depth = sched.depth;
  shape.num_micro = sched.num_micro;
  shape.lanes = opts.max_batch;
  obs::TraceDoc doc;
  doc.meta = trace_meta(shape);
  doc.events = obs::collect();
  obs::reset();
  check(a, model, e->partition(), {&open, &traced}, r);

  r.layer("obs.trace_overhead_share",
          (traced.cpu_us / std::max(1L, traced.served)) /
                  (open.cpu_us / std::max(1L, open.served)) -
              1.0,
          "share", "traced vs untraced open-loop CPU per request");
  std::vector<double> round_ms;
  for (const obs::TraceEvent& ev : doc.events)
    if (ev.kind == obs::EventKind::kServeRound)
      round_ms.push_back((ev.t1_us - ev.t0_us) / 1e3);
  const long requests = s2.requests - s1.requests;
  const long padded = s2.padded_rows - s1.padded_rows;
  r.layer("runtime.serve.round_ms_p50", percentile(round_ms, 50), "ms",
          count_note(round_ms.size()) + " rounds");
  r.layer("runtime.serve.padded_row_share",
          static_cast<double>(padded) / std::max(1L, requests + padded),
          "share", "padding rows over computed rows");
  r.layer("runtime.serve.rows_per_round",
          static_cast<double>(requests) / std::max(1L, s2.rounds - s1.rounds),
          "rows", "requests per pool dispatch");
  e.reset();
  probe_trace(doc, shape, r);
  probe_modules(shape, r);
}

}  // namespace perfbench
