// Trace analysis: measured-vs-predicted bubble accounting (DESIGN.md §9).
//
// analyze_trace() loads a recorded trace (obs/trace_json.h), rebuilds the
// deployment's schedule / ExecutionPlan / Partition from the trace's own
// otherData block, and reports:
//
//  - per-worker measured busy time, bubble time and bubble fraction, with
//    the paper's bubble-ratio definition applied to the measured timeline
//    exactly as ReplayResult::bubble_ratio applies it to the predicted one,
//    and for training traces each rank's flush spans per iteration
//    (optimizer step, parameter allgathers);
//  - for training traces, a *predicted* timeline: per-stage forward and
//    backward costs are inverted from the measured spans (F̂ₛ = mean
//    dur/chunk, B̂ₛ = mean dur·half_count − recompute·F̂ₛ — the exact
//    inverse of the replay's op_cost) and fed back through the
//    dependency-exact replay with comm costs at zero, the compute-only
//    accounting the paper's bubble ratios use. When the trace was stamped
//    from armed plan times with integer-µs costs, measured and predicted
//    agree *bitwise* (tests/obs_test.cc);
//  - a per-(op kind, stage) perf-model error table comparing the measured
//    per-micro-equivalent means against Partition::stage_fwd_flops-
//    proportional shares (backward = 2×forward), scaled so totals match,
//    plus each stage's critical-path micro-equivalents obtained by cost
//    perturbation of the replay (the core/perf_model.cc Cf/Cb technique).
//
// Training traces must match the plan 1:1 — every rank records k·|plan(w)|
// op spans in op order; violations throw CheckError. Serving/decode traces
// legitimately skip inactive slots, so they get measured-only rows plus the
// structural consistency checks. check_trace() is the recoverable form: it
// returns every violation found (empty = clean) and is what the CI smoke
// run drives through `tools/trace_report --check`.
#pragma once

#include <string>
#include <vector>

#include "core/schedule.h"
#include "obs/trace_json.h"

namespace chimera::obs {

/// One rank's bubble accounting. Measured fields always hold; predicted
/// fields only when TraceReport::has_prediction.
struct WorkerBubbleRow {
  int rank = 0;
  double busy_us = 0.0;
  double bubble_us = 0.0;        ///< compute_makespan − busy
  double bubble_fraction = 0.0;  ///< bubble / compute_makespan
  double predicted_busy_us = 0.0;
  double predicted_bubble_us = 0.0;
  double predicted_fraction = 0.0;
  /// Training: per-iteration means of the rank's flush spans — the
  /// optimizer step, and the replica syncs outside the plan's ops (the
  /// sharded step's parameter allgathers, waits included).
  double optim_step_us = 0.0;
  double grad_sync_us = 0.0;
};

/// One (op kind, stage) row of the perf-model error table.
struct OpModelRow {
  EventKind kind = EventKind::kForward;
  int stage = 0;
  long samples = 0;
  double measured_us = 0.0;  ///< mean measured cost per micro-equivalent
  double model_us = 0.0;     ///< FLOP-share prediction, scaled to match totals
  double error = 0.0;        ///< (measured − model) / model
  double critical = 0.0;     ///< critical-path micro-equivalents (∂makespan/∂cost)
};

struct TraceReport {
  TraceMeta meta;
  /// Training: iterations recorded (each rank's span count / plan size).
  /// 0 for serving/decode traces (whole-trace measured accounting).
  int iterations = 0;
  double compute_makespan_us = 0.0;  ///< measured (per-iteration mean)
  double measured_bubble_ratio = 0.0;
  bool has_prediction = false;  ///< training traces only
  double predicted_compute_makespan_us = 0.0;
  double predicted_bubble_ratio = 0.0;
  std::vector<WorkerBubbleRow> workers;  ///< one row per rank
  std::vector<OpModelRow> model;         ///< training only; fwd rows then bwd
};

/// The span kind recorded for a training or serving plan op, shared by the
/// runtime, the replay's trace export (sim::engine_trace) and the analyzer.
EventKind op_event_kind(OpKind k);

/// Full analysis. Throws CheckError on traces that do not match their own
/// metadata (unknown names, plan mismatch, malformed spans).
TraceReport analyze_trace(const TraceDoc& doc);

/// Recoverable structural validation: event ordering, span sanity,
/// send/recv tag pairing, plan consistency (via analyze_trace). Returns
/// every violation found; empty means the trace is clean.
std::vector<std::string> check_trace(const TraceDoc& doc);

/// Renders the report as the human-readable table tools/trace_report prints.
std::string format_report(const TraceReport& r);

}  // namespace chimera::obs
