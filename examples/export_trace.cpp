// Export a simulated pipeline execution as an obs trace — the paper's
// schedule diagrams (Fig. 2/3/7/8) as a navigable artifact, in the same
// chimera-trace-v1 format the runtime records. Open the output in
// chrome://tracing or https://ui.perfetto.dev, or analyze it with
// `trace_report <out.json>` exactly like a measured run.
//
//   $ ./examples/export_trace [scheme] [D] [N] [out.json]
//     scheme ∈ {chimera, gpipe, dapple, gems, 1f1b}; default chimera 8 8
//
// The engine bills forward = 1 unit, backward = 2 units and the eager-opt
// gradient-sync placement, so the exported timeline matches the practical
// schedules in the paper (uneven forward/backward, overlapped allreduce).
// One unit is one second of simulated time, 1e6 µs in the trace.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/sync_placement.h"
#include "nn/stage.h"
#include "obs/trace_json.h"
#include "sim/event_engine.h"
#include "support/timeline.h"

using namespace chimera;

int main(int argc, char** argv) {
  Scheme scheme = Scheme::kChimera;
  int D = 8, N = 8;
  std::string path = "pipeline_trace.json";
  if (argc > 1) {
    const std::string s = argv[1];
    if (s == "gpipe") scheme = Scheme::kGPipe;
    else if (s == "dapple") scheme = Scheme::kDapple;
    else if (s == "gems") scheme = Scheme::kGems;
    else if (s == "1f1b") scheme = Scheme::kOneF1B;
    else if (s != "chimera") {
      std::fprintf(stderr, "unknown scheme %s\n", s.c_str());
      return 1;
    }
  }
  if (argc > 2) D = std::atoi(argv[2]);
  if (argc > 3) N = std::atoi(argv[3]);
  if (argc > 4) path = argv[4];

  const SyncPolicy sync = SyncPolicy::kEagerOpt;
  PipelineSchedule sched =
      build_schedule(scheme, {D, N, 1, ScaleMethod::kDirect});
  validate(sched);
  sched = with_gradient_sync(sched, sync);

  sim::EngineCosts costs;
  costs.forward_seconds.assign(D, 1.0);
  costs.backward_factor = 2.0;
  costs.allreduce_seconds.assign(D, 1.0);
  costs.begin_cpu_fraction = 0.1;
  const sim::EngineResult r = run_engine(sched, costs);

  std::printf("%s D=%d N=%d: makespan %.1f units, bubble ratio %.1f%%\n",
              scheme_name(scheme), D, N, r.makespan, 100.0 * r.bubble_ratio());
  std::printf("%s\n", render_timeline(sched).c_str());

  // The deployment trace_report rebuilds the plan and partition from. The
  // model shape only sizes that partition (two layers per stage); the
  // simulated costs above are uniform per stage.
  obs::TraceMeta meta;
  meta.workload = "training";
  meta.scheme = scheme_name(scheme);
  meta.depth = D;
  meta.num_micro = N;
  meta.sync = sync_policy_name(sync);
  const nn::SmallModelConfig model;
  meta.hidden = model.hidden;
  meta.heads = model.heads;
  meta.layers = 2 * D;
  meta.seq = model.seq;
  meta.vocab = model.vocab;
  meta.causal = model.causal;
  if (!obs::write_trace(path, sim::engine_trace(sched, r, meta))) return 1;
  std::printf("trace written to %s — open in chrome://tracing or perfetto, "
              "or run trace_report on it\n",
              path.c_str());
  return 0;
}
