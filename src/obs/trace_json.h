// Chrome trace-event / Perfetto export of a recorded run, plus the strict
// parser tools/trace_report and the tests read it back with (DESIGN.md §9).
//
// The document is the standard JSON-object trace format — load it directly
// in chrome://tracing or ui.perfetto.dev:
//
//   {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}
//
// Presentation mapping: pid = worker + 1 (pid 0 collects the engine driver
// and the ComputePool helpers), tid = lane, duration spans are ph "X" with
// ts/dur in microseconds, instants are ph "i", and metadata ph "M" events
// name the processes/threads. The recorder's full event identity travels in
// "args" (worker/lane/seq/...), so the parser reconstructs TraceEvents
// exactly — pid/tid are derived display fields it cross-checks, never the
// source of truth.
//
// A schema layer over support/json, like plan_json: deterministic field
// order, one event per line, %.17g timestamps, and a strict parser —
// unknown keys, metadata of a shape the writer never emits or inconsistent
// ph/name/ts/dur are errors. TraceDoc equality is field-wise, so
// `trace_from_json(trace_doc_to_json(d)) == d` is the round-trip contract.
//
// The otherData block makes a trace self-contained: it carries the
// deployment (workload, scheme, D, N, f, scale, sync, recompute, W, B,
// partition policy) and the model shape, which is everything trace_report
// needs to rebuild the schedule, the ExecutionPlan and the Partition —
// no side-channel arguments.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"

namespace chimera::obs {

/// The deployment the events were recorded under. String fields use the
/// canonical library names (scheme_name, scale_method_name,
/// sync_policy_name, partition_policy_name).
struct TraceMeta {
  std::string workload;       ///< "training" | "serving" | "decode"
  std::string scheme;         ///< scheme_name()
  int depth = 0;              ///< D
  int num_micro = 0;          ///< N (training micros / serving slots / streams)
  int pipes_f = 1;            ///< Chimera f
  std::string scale = "direct";     ///< scale_method_name()
  std::string sync = "none";        ///< effective SyncPolicy (training)
  bool recompute = false;
  int data_parallel = 1;      ///< W
  int micro_batch = 1;        ///< B: samples per micro-batch / lane
  std::string partition = "even";   ///< partition_policy_name()
  int hidden = 0, heads = 0, layers = 0, seq = 0, vocab = 0;
  bool causal = true;
  friend bool operator==(const TraceMeta&, const TraceMeta&) = default;
};

struct TraceDoc {
  std::string format = "chimera-trace-v1";
  TraceMeta meta;
  std::vector<TraceEvent> events;  ///< in trace_event_before order
  friend bool operator==(const TraceDoc&, const TraceDoc&) = default;
};

/// Deterministic serialization: same doc -> byte-identical string.
std::string trace_doc_to_json(const TraceDoc& doc);

/// Parses a document produced by trace_doc_to_json or sim::engine_trace.
/// Throws CheckError on malformed input or schema violations; never
/// partially succeeds.
TraceDoc trace_from_json(const std::string& json);

/// Writes the document to `path`; returns false (with a perror-style
/// message on stderr) when the file cannot be written.
bool write_trace(const std::string& path, const TraceDoc& doc);

}  // namespace chimera::obs
