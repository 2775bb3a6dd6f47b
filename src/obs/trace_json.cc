#include "obs/trace_json.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "support/check.h"
#include "support/json.h"

namespace chimera::obs {

namespace {

// ---- writer --------------------------------------------------------------

/// Chrome "cat" grouping per kind — display-only; the parser re-derives and
/// cross-checks it.
const char* event_category(EventKind k) {
  if (is_instant_kind(k)) return "mark";
  if (is_plan_op(k)) return "op";
  switch (k) {
    case EventKind::kSend:
    case EventKind::kRecv: return "comm";
    case EventKind::kGradSync:
    case EventKind::kOptimStep: return "sync";
    case EventKind::kHelperTask: return "pool";
    default: return "round";
  }
}

void write_args(std::ostringstream& os, const TraceEvent& e) {
  os << "{\"worker\":" << e.worker << ",\"lane\":" << e.lane
     << ",\"seq\":" << e.seq << ",\"micro\":" << e.micro
     << ",\"stage\":" << e.stage << ",\"pipe\":" << e.pipe
     << ",\"op_index\":" << e.op_index << ",\"tag\":" << e.tag << '}';
}

void write_event(std::ostringstream& os, const TraceEvent& e) {
  os << "{\"name\":\"" << event_kind_name(e.kind) << "\",\"cat\":\""
     << event_category(e.kind) << "\",\"ph\":\""
     << (is_instant_kind(e.kind) ? "i" : "X") << "\",\"pid\":" << e.worker + 1
     << ",\"tid\":" << e.lane << ",\"ts\":" << json::number(e.t0_us);
  if (is_instant_kind(e.kind))
    os << ",\"s\":\"t\"";
  else
    os << ",\"dur\":" << json::number(e.t1_us - e.t0_us);
  os << ",\"args\":";
  write_args(os, e);
  os << '}';
}

// ---- strict extraction ---------------------------------------------------
// Parsing and key bookkeeping live in support/json: every byte of a
// document that parses was understood; unknown keys and malformed events
// throw CheckError.

/// The two metadata shapes the writer emits: process_name {pid} and
/// thread_name {pid, tid}, each naming its row in args.name. They are
/// regenerated from the events on export, so nothing of them is kept.
void read_metadata(json::ObjectReader& r, const std::string& name) {
  CHIMERA_CHECK_MSG(name == "process_name" || name == "thread_name",
                    "unknown metadata event \"" << name << '"');
  r.get_int("pid");
  if (name == "thread_name") r.get_int("tid");
  json::ObjectReader args(r.get("args"), "metadata.args");
  args.get_string("name");
  args.finish();
}

TraceEvent read_event(json::ObjectReader& r, const std::string& ph,
                      const std::string& name) {
  TraceEvent e;
  CHIMERA_CHECK_MSG(event_kind_from_name(name, &e.kind),
                    "unknown event name \"" << name << '"');
  const bool inst = is_instant_kind(e.kind);
  CHIMERA_CHECK_MSG(ph == (inst ? "i" : "X"),
                    "event \"" << name << "\" has ph \"" << ph
                               << "\" but kind expects \""
                               << (inst ? "i" : "X") << '"');
  CHIMERA_CHECK_MSG(r.get_string("cat") == event_category(e.kind),
                    "event \"" << name << "\" has a mismatched category");
  if (inst)
    CHIMERA_CHECK_MSG(r.get_string("s") == "t", "instant scope must be \"t\"");

  json::ObjectReader args(r.get("args"), "event.args");
  e.worker = args.get_int("worker");
  e.lane = args.get_int("lane");
  e.seq = static_cast<std::uint64_t>(args.get_int64("seq"));
  e.micro = args.get_int("micro");
  e.stage = args.get_int("stage");
  e.pipe = args.get_int("pipe");
  e.op_index = args.get_int("op_index");
  e.tag = args.get_int64("tag");
  args.finish();

  e.t0_us = r.get_double("ts");
  e.t1_us = inst ? e.t0_us : e.t0_us + r.get_double("dur");
  // pid/tid are derived display fields: cross-check, never trust.
  CHIMERA_CHECK_MSG(r.get_int64("pid") == e.worker + 1,
                    "event pid disagrees with args.worker");
  CHIMERA_CHECK_MSG(r.get_int64("tid") == e.lane,
                    "event tid disagrees with args.lane");
  return e;
}

}  // namespace

std::string trace_doc_to_json(const TraceDoc& doc) {
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  // Metadata first: name pid 0 and every worker pid present, plus helper
  // lanes — derived deterministically from the events, so they need not
  // (and do not) round-trip through TraceDoc.
  std::set<int> workers;
  std::set<int> helper_lanes;
  for (const TraceEvent& e : doc.events) {
    if (e.worker >= 0) workers.insert(e.worker);
    if (e.lane > 0) helper_lanes.insert(e.lane);
  }
  os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
        "{\"name\":\"engine\"}}";
  for (int w : workers)
    os << ",\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << w + 1
       << ",\"args\":{\"name\":\"worker " << w << "\"}}";
  for (int l : helper_lanes)
    os << ",\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << l
       << ",\"args\":{\"name\":\"helper " << l - 1 << "\"}}";
  for (const TraceEvent& e : doc.events) {
    os << ",\n  ";
    write_event(os, e);
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  const TraceMeta& m = doc.meta;
  os << "\"format\":\"" << json::escape(doc.format) << "\",\"workload\":\""
     << json::escape(m.workload) << "\",\"scheme\":\""
     << json::escape(m.scheme) << "\",\"depth\":" << m.depth
     << ",\"num_micro\":" << m.num_micro << ",\"pipes_f\":" << m.pipes_f
     << ",\"scale\":\"" << json::escape(m.scale) << "\",\"sync\":\""
     << json::escape(m.sync)
     << "\",\"recompute\":" << (m.recompute ? "true" : "false")
     << ",\"data_parallel\":" << m.data_parallel
     << ",\"micro_batch\":" << m.micro_batch << ",\"partition\":\""
     << json::escape(m.partition) << "\",\"hidden\":" << m.hidden
     << ",\"heads\":" << m.heads << ",\"layers\":" << m.layers
     << ",\"seq\":" << m.seq << ",\"vocab\":" << m.vocab
     << ",\"causal\":" << (m.causal ? "true" : "false") << "}}\n";
  return os.str();
}

TraceDoc trace_from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  json::ObjectReader r(root, "trace");
  CHIMERA_CHECK_MSG(r.get_string("displayTimeUnit") == "ms",
                    "displayTimeUnit must be \"ms\"");

  TraceDoc doc;
  json::ObjectReader o(r.get("otherData"), "otherData");
  doc.format = o.get_string("format");
  CHIMERA_CHECK_MSG(doc.format == "chimera-trace-v1",
                    "unsupported trace format \"" << doc.format << '"');
  TraceMeta& m = doc.meta;
  m.workload = o.get_string("workload");
  m.scheme = o.get_string("scheme");
  m.depth = o.get_int("depth");
  m.num_micro = o.get_int("num_micro");
  m.pipes_f = o.get_int("pipes_f");
  m.scale = o.get_string("scale");
  m.sync = o.get_string("sync");
  m.recompute = o.get_bool("recompute");
  m.data_parallel = o.get_int("data_parallel");
  m.micro_batch = o.get_int("micro_batch");
  m.partition = o.get_string("partition");
  m.hidden = o.get_int("hidden");
  m.heads = o.get_int("heads");
  m.layers = o.get_int("layers");
  m.seq = o.get_int("seq");
  m.vocab = o.get_int("vocab");
  m.causal = o.get_bool("causal");
  o.finish();

  for (const json::Value& ev : r.get_array("traceEvents")) {
    json::ObjectReader er(ev, "event");
    const std::string ph = er.get_string("ph");
    const std::string name = er.get_string("name");
    if (ph == "M")
      read_metadata(er, name);
    else
      doc.events.push_back(read_event(er, ph, name));
    er.finish();
  }
  r.finish();
  return doc;
}

bool write_trace(const std::string& path, const TraceDoc& doc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return false;
  }
  out << trace_doc_to_json(doc);
  return static_cast<bool>(out);
}

}  // namespace chimera::obs
