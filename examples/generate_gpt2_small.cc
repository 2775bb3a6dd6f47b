// Generation walkthrough: autoregressive decoding of a GPT-2-small-
// proportioned language model behind rt::DecodeEngine on Chimera's
// bidirectional pipelines.
//
//   $ ./example_generate_gpt2_small
//
// Three things to take away:
//   1. Generation reuses the stack end to end: the decode-step schedule is
//      the serving geometry (f down + f up independent streams), lowered
//      through the same ExecutionPlan — now with kv-page budgets — and
//      run on the same persistent WorkerPool. What changed is state: each
//      session's K/V projections persist across steps in nn::PagedKvCache,
//      a page table over a refcounted page pool (copy-on-write prefix
//      sharing, preemption under a fixed page budget).
//   2. Requests are continuously batched: submit() queues a prompt, the
//      session table admits it when the page pool can hold it mid-flight,
//      and a finished sequence retires immediately — its pages recycle at
//      the next step with no round barrier between unrelated requests.
//   3. Tokens stream: the on_token callback fires the moment each token is
//      sampled, so time-to-first-token is a per-request number (prefill
//      cost), not a per-batch one.
#include <cstdio>

#include "runtime/decode.h"
#include "tensor/compute_pool.h"

using namespace chimera;

int main() {
  // --- 1. A GPT-2-small-*proportioned* model ------------------------------
  // vocab/hidden = 64 (GPT-2: 50257/768 ≈ 65): the LM head dominates the
  // last stage, and at decode it no longer amortizes over seq positions —
  // exactly the imbalance the bidirectional pairing spreads across workers.
  nn::SmallModelConfig model;
  model.vocab = 6144;
  model.hidden = 96;
  model.heads = 8;
  model.layers = 8;
  model.seq = 24;
  model.seed = 42;

  // --- 2. The decode engine: D=4 workers, f=2 (4 decode streams) ----------
  const ScheduleConfig sched_cfg{/*depth=*/4, /*num_micro=*/4, /*pipes_f=*/2,
                                 ScaleMethod::kDirect};
  rt::DecodeOptions opts;
  opts.max_batch = 2;        // 2 concurrent sessions per stream
  opts.max_new_tokens = 8;   // default generation cap per request
  rt::DecodeEngine engine(model, Scheme::kChimera, sched_cfg, opts);
  std::printf("decode engine: %d concurrent sessions, %.1f KiB of KV cache\n",
              engine.session_capacity(), engine.cache_bytes() / 1024.0);

  // --- 3. Stream tokens as they are sampled -------------------------------
  engine.set_on_token([](const rt::TokenEvent& ev) {
    std::printf("  request %llu token %d -> %d%s\n",
                static_cast<unsigned long long>(ev.id), ev.index, ev.token,
                ev.is_last ? " (done)" : "");
  });

  // --- 4. Submit prompts of different lengths, drain ----------------------
  Rng rng(7);
  for (int r = 0; r < 5; ++r) {
    std::vector<int> prompt(4 + 3 * r);  // ragged prompts batch fine
    for (int& t : prompt) t = static_cast<int>(rng.next_below(model.vocab));
    engine.submit(std::move(prompt), /*max_new_tokens=*/4 + r);
  }
  const std::vector<rt::DecodeResult> results = engine.run_until_drained();

  std::printf("\nper-request latency (prefill sets time-to-first-token):\n");
  for (const rt::DecodeResult& res : results)
    std::printf("  request %llu: %zu prompt + %zu generated, ttft %.2f ms, "
                "total %.2f ms\n",
                static_cast<unsigned long long>(res.id), res.prompt.size(),
                res.tokens.size(), res.ttft_us() / 1000.0,
                (res.done_us - res.enqueue_us) / 1000.0);

  const rt::DecodeStats stats = engine.stats();
  std::printf("\nbatcher efficiency: %ld occupied vs %ld idle lane-steps "
              "over %ld decode rounds (%ld prompt rows computed)\n",
              stats.occupied_lane_steps, stats.idle_lane_steps,
              stats.decode_rounds, stats.prefill_rows);
  std::printf("every generated token's logits are bitwise equal to a full "
              "re-forward of the prefix\n(tests/decode_test.cc) — KV "
              "caching changes the cost, never the arithmetic.\n");
  ComputePool::instance().set_helpers(0);
  return 0;
}
