// decode_mixed: DecodeEngine, Chimera f=1, D=4, 8 streams × 4 lanes, fed by
// seeded open-loop arrivals from the main thread (submit what is due, then
// step()). Half the requests are chat (short ragged prompts, long
// generations), half doc (a shared 32-token system prefix, short
// generations): decode reads and appends K/V while prefill writes it, so a
// change trading time to first token against inter-token latency shows, and
// the doc half runs paged-KV prefix sharing.
//
// The timed phase has two halves. The fixed-concurrency half keeps
// kConcurrency requests in flight, submitting replacements right after each
// step, so every run of a seed drives the engine through the same sequence
// of steps (a faster host just gets further along it); cpu_us_per_token is
// measured there. The open-loop half gives the latencies: how much work a
// step carries there depends on how fast earlier steps ran, so its CPU per
// token moves with host load.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "obs/trace.h"
#include "runtime/decode.h"

namespace perfbench {
namespace {

using namespace chimera;

/// Offered load, requests/s: about half the closed-loop capacity of this
/// deployment measured on a 4-vCPU x86-64 host (README.md). Fixed, so a
/// faster engine shows as lower latency and CPU, never as more load.
constexpr double kRate = 25.0;
/// Goodput limits: a request counts when its first token lands within
/// kTtftLimitMs of its due time and no token gap exceeds kItlLimitMs.
constexpr double kTtftLimitMs = 250.0;
constexpr double kItlLimitMs = 100.0;
/// Requests in flight in the fixed-concurrency half: every lane.
constexpr int kConcurrency = 32;
constexpr int kSetupReps = 3;
constexpr int kCheckedPerKind = 4;  ///< sampled streams re-forwarded per kind

struct Req {
  double due_us = 0.0;  ///< relative to the phase start
  std::vector<int> prompt;
  int max_new = 0;
  bool doc = false;
};

struct Outcome {
  std::uint64_t id = 0;
  double submit_us = 0.0;
  bool refused = false;
  bool done = false;
  std::vector<int> tokens;
  double ttft_ms = 0.0;
  double max_itl_ms = 0.0;
};

std::vector<int> random_tokens(Rng& rng, int n, int vocab) {
  std::vector<int> t(n);
  for (int& x : t) x = static_cast<int>(rng.next_below(vocab));
  return t;
}

/// Request `i` of a sequence: even ones are chat, odd ones doc, so every
/// seed has the same mix.
Req make_request(Rng& rng, std::size_t i, const std::vector<int>& sys,
                 int vocab) {
  Req q;
  q.doc = i % 2 == 1;
  if (q.doc) {
    q.prompt = sys;
    const int n = kDocSuffixMin + static_cast<int>(rng.next_below(
                                      kDocSuffixMax - kDocSuffixMin + 1));
    for (int t : random_tokens(rng, n, vocab)) q.prompt.push_back(t);
    q.max_new = kDocNewMin +
                static_cast<int>(rng.next_below(kDocNewMax - kDocNewMin + 1));
  } else {
    const int n = kChatPromptMin + static_cast<int>(rng.next_below(
                                       kChatPromptMax - kChatPromptMin + 1));
    q.prompt = random_tokens(rng, n, vocab);
    q.max_new = kChatNewMin + static_cast<int>(rng.next_below(
                                  kChatNewMax - kChatNewMin + 1));
  }
  return q;
}

/// Poisson arrivals at kRate over [0, seconds).
std::vector<Req> make_arrivals(Rng& rng, const std::vector<int>& sys,
                               int vocab, double seconds) {
  std::vector<Req> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / kRate * 1e6;
    if (t >= seconds * 1e6) return out;
    Req q = make_request(rng, out.size(), sys, vocab);
    q.due_us = t;
    out.push_back(std::move(q));
  }
}

struct PhaseResult {
  std::vector<Req> reqs;
  std::vector<Outcome> outcomes;
  std::vector<double> itl_ms;
  std::vector<double> late_ms;
  std::vector<double> step_ms;
  double cpu_us = 0.0;
  long tokens = 0;
};

/// Per-request token-time bookkeeping shared with the on_token callback,
/// which fires on the thread that calls step() (the main thread).
struct TokenLog {
  std::unordered_map<std::uint64_t, std::size_t> index;  ///< id → outcome
  std::vector<double> last_us;
  PhaseResult* phase = nullptr;
};

/// Moves finished results into their outcomes; returns how many finished.
int collect(rt::DecodeEngine& e, double start, const TokenLog& log,
            PhaseResult& p) {
  int n = 0;
  for (rt::DecodeResult& d : e.take_completed()) {
    const auto it = log.index.find(d.id);
    if (it == log.index.end()) continue;
    Outcome& o = p.outcomes[it->second];
    o.done = true;
    o.tokens = std::move(d.tokens);
    o.ttft_ms = (d.first_token_us - start - p.reqs[it->second].due_us) / 1e3;
    p.tokens += static_cast<long>(o.tokens.size());
    ++n;
  }
  return n;
}

PhaseResult run_open_loop(rt::DecodeEngine& e, const std::vector<Req>& reqs,
                          TokenLog& log) {
  PhaseResult p;
  p.reqs = reqs;
  p.outcomes.resize(reqs.size());
  log.index.clear();
  log.last_us.assign(reqs.size(), 0.0);
  log.phase = &p;
  const double start = wall_us(), c0 = cpu_us();
  std::size_t next = 0;
  while (next < reqs.size() || !e.idle()) {
    const double now = wall_us();
    while (next < reqs.size() && start + reqs[next].due_us <= now) {
      Outcome& o = p.outcomes[next];
      o.submit_us = wall_us();
      p.late_ms.push_back((o.submit_us - start - reqs[next].due_us) / 1e3);
      try {
        o.id = e.submit(reqs[next].prompt, reqs[next].max_new);
        log.index[o.id] = next;
      } catch (const rt::RequestError&) {
        o.refused = true;
      }
      ++next;
    }
    if (e.idle()) {
      if (next < reqs.size())
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long>(start + reqs[next].due_us - wall_us())));
      continue;
    }
    const double s0 = wall_us();
    e.step();
    p.step_ms.push_back((wall_us() - s0) / 1e3);
    collect(e, start, log, p);
  }
  p.cpu_us = cpu_us() - c0;
  log.phase = nullptr;
  return p;
}

/// Keeps kConcurrency requests in flight for `seconds`, then drains. New
/// requests are submitted only between steps, in completion order, so the
/// engine's work does not depend on timing.
PhaseResult run_fixed_concurrency(rt::DecodeEngine& e, Rng& rng,
                                  const std::vector<int>& sys, int vocab,
                                  double seconds, TokenLog& log) {
  PhaseResult p;
  log.index.clear();
  log.last_us.clear();
  log.phase = &p;
  const double start = wall_us(), c0 = cpu_us();
  int in_flight = 0;
  for (;;) {
    while (in_flight < kConcurrency && wall_us() - start < seconds * 1e6) {
      Req q = make_request(rng, p.reqs.size(), sys, vocab);
      q.due_us = wall_us() - start;
      Outcome o;
      o.submit_us = wall_us();
      o.id = e.submit(q.prompt, q.max_new);
      log.index[o.id] = p.reqs.size();
      log.last_us.push_back(0.0);
      p.reqs.push_back(std::move(q));
      p.outcomes.push_back(std::move(o));
      ++in_flight;
    }
    if (in_flight == 0) break;
    e.step();
    in_flight -= collect(e, start, log, p);
  }
  p.cpu_us = cpu_us() - c0;
  log.phase = nullptr;
  return p;
}

/// Re-forwards prompt + generated through the whole model as one stage: by
/// causality, row P−1+i of the logits is the full re-forward of the prefix
/// token i was sampled from, and greedy sampling is its argmax (ties to the
/// lowest id).
bool matches_reforward(nn::StageModule& direct, const std::vector<int>& prompt,
                       const std::vector<int>& tokens, int vocab) {
  nn::MicroBatch mb;
  mb.batch = 1;
  mb.tokens = prompt;
  mb.tokens.insert(mb.tokens.end(), tokens.begin(), tokens.end() - 1);
  mb.seq = static_cast<int>(mb.tokens.size());
  const Tensor logits = direct.infer(mb, Tensor());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const float* row = logits.data() + (prompt.size() - 1 + i) *
                                           static_cast<std::size_t>(vocab);
    if (std::max_element(row, row + vocab) - row != tokens[i]) return false;
  }
  return true;
}

void report_latency(const PhaseResult& p, Report& r, bool traced) {
  std::vector<double> ttft;
  long good = 0;
  for (const Outcome& o : p.outcomes) {
    if (!o.done) continue;
    ttft.push_back(o.ttft_ms);
    if (o.ttft_ms <= kTtftLimitMs && o.max_itl_ms <= kItlLimitMs) ++good;
  }
  const std::string nt = count_note(ttft.size()) + " requests, open loop";
  const std::string ni = count_note(p.itl_ms.size()) + " token gaps, open loop";
  r.wall(traced, "ttft_ms_p50", percentile(ttft, 50), "ms", nt);
  r.wall(traced, "ttft_ms_p90", percentile(ttft, 90), "ms", nt);
  r.wall(traced, "itl_ms_p50", percentile(p.itl_ms, 50), "ms", ni);
  r.wall(traced, "itl_ms_p99", percentile(p.itl_ms, 99), "ms", ni);
  r.wall(traced, "goodput_share",
         p.outcomes.empty() ? 0.0
                            : static_cast<double>(good) / p.outcomes.size(),
         "share", "of " + std::to_string(p.outcomes.size()) + " sent");
}

/// Correctness, untimed: every request completed within its cap with
/// in-vocabulary tokens, and a seeded sample of greedy streams of each kind
/// matches the full re-forward.
void check(const Args& a, const nn::SmallModelConfig& model,
           std::vector<PhaseResult*> phases, Report& r) {
  std::vector<const Req*> reqs;
  std::vector<Outcome*> outs;
  for (PhaseResult* p : phases)
    for (std::size_t i = 0; i < p->reqs.size(); ++i) {
      reqs.push_back(&p->reqs[i]);
      outs.push_back(&p->outcomes[i]);
    }
  Rng pick(a.seed ^ 0x5eedull);
  std::vector<std::size_t> checked;
  for (bool doc : {false, true}) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (reqs[i]->doc == doc && !outs[i]->tokens.empty()) idx.push_back(i);
    for (int k = 0; k < kCheckedPerKind && !idx.empty(); ++k) {
      const std::size_t j = pick.next_below(idx.size());
      checked.push_back(idx[j]);
      idx.erase(idx.begin() + static_cast<long>(j));
    }
  }
  if (a.corrupt && !checked.empty()) {
    int& t = outs[checked.front()]->tokens.front();
    t = (t + 1) % model.vocab;
  }
  nn::StageModule direct(model, 0, 1);
  std::vector<char> reforward_ok(reqs.size(), 1);
  for (std::size_t i : checked)
    reforward_ok[i] = matches_reforward(direct, reqs[i]->prompt,
                                        outs[i]->tokens, model.vocab);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Outcome& o = *outs[i];
    bool ok = o.done && !o.tokens.empty() &&
              static_cast<int>(o.tokens.size()) <= reqs[i]->max_new;
    for (int t : o.tokens) ok = ok && t >= 0 && t < model.vocab;
    r.op(ok && reforward_ok[i],
         "decode request " + std::to_string(i) +
             (reforward_ok[i] ? (o.refused ? " refused" : " incomplete")
                              : " differs from re-forward"));
  }
}

}  // namespace

void run_decode_mixed(const Args& a, Report& r) {
  const nn::SmallModelConfig model = gpt2_shape();
  const ScheduleConfig sched{4, 8, 1, ScaleMethod::kDirect};
  rt::DecodeOptions opts;
  opts.max_batch = 4;
  opts.intra_op = 0;
  opts.kernel = KernelPolicy::kFast;
  opts.clock = [] { return static_cast<long>(wall_us()); };

  Rng rng(a.seed);
  const std::vector<int> sys = random_tokens(rng, kDocPrefix, model.vocab);
  std::vector<Req> warm;
  for (int i = 0; i < sched.num_micro * opts.max_batch; ++i)
    warm.push_back(make_request(rng, warm.size(), sys, model.vocab));
  const double half_s = a.seconds / 2;
  const std::vector<Req> arrivals =
      make_arrivals(rng, sys, model.vocab, half_s);

  TokenLog log;
  auto on_token = [&log](const rt::TokenEvent& ev) {
    if (!log.phase) return;
    const auto it = log.index.find(ev.id);
    if (it == log.index.end()) return;
    const double t = static_cast<double>(ev.time_us);
    if (ev.index > 0) {
      const double gap = (t - log.last_us[it->second]) / 1e3;
      log.phase->itl_ms.push_back(gap);
      Outcome& o = log.phase->outcomes[it->second];
      o.max_itl_ms = std::max(o.max_itl_ms, gap);
    }
    log.last_us[it->second] = t;
  };

  // Set-up: construction through a warm-up drain that fills every lane.
  std::unique_ptr<rt::DecodeEngine> e = set_up(
      kSetupReps,
      [&] {
        auto d = std::make_unique<rt::DecodeEngine>(model, Scheme::kChimera,
                                                    sched, opts);
        d->set_on_token(on_token);
        for (const Req& q : warm) d->submit(q.prompt, q.max_new);
        (void)d->run_until_drained();
        return d;
      },
      r);

  StealMeter steal;
  steal.start();
  if (!a.trace) {
    PhaseResult fixed =
        run_fixed_concurrency(*e, rng, sys, model.vocab, half_s, log);
    PhaseResult open = run_open_loop(*e, arrivals, log);
    r.diag("host.steal_share", steal.share(), "share", "timed phase");
    r.diag("host.gen_late_ms_p90", percentile(open.late_ms, 90), "ms",
           count_note(open.late_ms.size()) + " arrivals");
    r.e2e("cpu_us_per_token", fixed.cpu_us / std::max(1L, fixed.tokens), "us",
          std::to_string(fixed.tokens) + " generated tokens, " +
              std::to_string(kConcurrency) + " in flight");
    report_latency(open, r, false);
    check(a, model, {&fixed, &open}, r);
    return;
  }
  PhaseResult open = run_open_loop(*e, arrivals, log);
  report_latency(open, r, true);
  r.diag("host.gen_late_ms_p90", percentile(open.late_ms, 90), "ms",
         count_note(open.late_ms.size()) + " arrivals");

  // Traced run: the same open loop again with the recorder on.
  obs::reset();
  obs::set_ring_capacity(1 << 18);
  const rt::DecodeStats s1 = e->stats();
  obs::set_enabled(true);
  PhaseResult traced =
      run_open_loop(*e, make_arrivals(rng, sys, model.vocab, half_s), log);
  obs::set_enabled(false);
  r.diag("host.steal_share", steal.share(), "share", "timed phase");
  const rt::DecodeStats s2 = e->stats();
  LayerShape shape;
  shape.plan = LayerShape::Plan::kDecode;
  shape.model = model;
  shape.depth = sched.depth;
  shape.num_micro = sched.num_micro;
  shape.lanes = opts.max_batch;
  obs::TraceDoc doc;
  doc.meta = trace_meta(shape);
  doc.events = obs::collect();
  obs::reset();
  check(a, model, {&open, &traced}, r);

  r.layer("obs.trace_overhead_share",
          (traced.cpu_us / std::max(1L, traced.tokens)) /
                  (open.cpu_us / std::max(1L, open.tokens)) -
              1.0,
          "share", "traced vs untraced open-loop CPU per token");
  double prefill_us = 0.0, decode_us = 0.0;
  std::unordered_map<std::uint64_t, double> admitted_at;
  for (const obs::TraceEvent& ev : doc.events) {
    const double dur = ev.t1_us - ev.t0_us;
    if (ev.kind == obs::EventKind::kPrefillRound) prefill_us += dur;
    if (ev.kind == obs::EventKind::kDecodeRound) decode_us += dur;
    if (ev.kind == obs::EventKind::kAdmit)
      admitted_at[static_cast<std::uint64_t>(ev.tag)] = ev.t0_us;
  }
  std::vector<double> admit_wait;
  for (const Outcome& o : traced.outcomes) {
    const auto it = admitted_at.find(o.id);
    if (it != admitted_at.end())
      admit_wait.push_back((it->second - o.submit_us) / 1e3);
  }
  const long occupied = s2.occupied_lane_steps - s1.occupied_lane_steps;
  const long idle = s2.idle_lane_steps - s1.idle_lane_steps;
  const long admitted = s2.admitted - s1.admitted;
  r.layer("runtime.decode.step_ms_p50", percentile(traced.step_ms, 50), "ms",
          count_note(traced.step_ms.size()) + " steps");
  r.layer("runtime.decode.prefill_share",
          prefill_us / std::max(1.0, prefill_us + decode_us), "share",
          "prefill-round time over all round time");
  r.layer("runtime.decode.lane_occupancy",
          static_cast<double>(occupied) / std::max(1L, occupied + idle),
          "share", "occupied lane-steps of dispatched streams");
  r.layer("runtime.decode.admit_wait_ms_p50", percentile(admit_wait, 50),
          "ms", count_note(admit_wait.size()) + " admissions");
  r.layer("runtime.decode.prefix_hit_share",
          static_cast<double>(s2.prefix_hits - s1.prefix_hits) /
              std::max(1L, admitted),
          "share", "of " + std::to_string(admitted) + " admissions");
  r.layer("runtime.decode.kv_pages_peak_share",
          static_cast<double>(s2.pages_in_use_peak) /
              std::max(1L, s2.pool_pages),
          "share", "of " + std::to_string(s2.pool_pages) + " pages");
  r.layer("runtime.decode.evictions",
          static_cast<double>(s2.evictions - s1.evictions), "count",
          "traced phase");
  e.reset();
  probe_trace(doc, shape, r);
  probe_modules(shape, r);
}

}  // namespace perfbench
