#include "core/plan_json.h"

#include <sstream>

#include "core/execution_plan.h"
#include "core/partition.h"
#include "support/check.h"
#include "support/json.h"

namespace chimera {

namespace {

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kForward: return "forward";
    case OpKind::kBackward: return "backward";
    case OpKind::kAllReduceBegin: return "allreduce_begin";
    case OpKind::kAllReduceWait: return "allreduce_wait";
  }
  return "?";
}

// ---- writer --------------------------------------------------------------
// The document holds integers, booleans, the op kind names above and two
// free strings (format, scheme), which go through json::escape.

void write_int_array(std::ostringstream& os, const std::vector<int>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? "," : "") << v[i];
  os << ']';
}

void write_pair_array(std::ostringstream& os,
                      const std::vector<std::pair<int, int>>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? "," : "") << '[' << v[i].first << ',' << v[i].second << ']';
  os << ']';
}

void write_unit(std::ostringstream& os, const UnitDoc& u) {
  os << "{\"micro\":" << u.micro << ",\"half\":" << u.half
     << ",\"halves\":" << u.halves << ",\"stash_key\":" << u.stash_key
     << ",\"recv_from\":" << u.recv_from << ",\"recv_tag\":" << u.recv_tag
     << ",\"send_to\":" << u.send_to << ",\"send_tag\":" << u.send_tag
     << ",\"acquires_stash\":" << (u.acquires_stash ? "true" : "false")
     << ",\"releases_stash\":" << (u.releases_stash ? "true" : "false")
     << ",\"acquires_cache_slot\":" << (u.acquires_cache_slot ? "true" : "false")
     << ",\"releases_cache_slot\":" << (u.releases_cache_slot ? "true" : "false")
     << '}';
}

void write_op(std::ostringstream& os, const OpDoc& op) {
  os << "{\"kind\":\"" << op.kind << "\",\"micro\":" << op.micro
     << ",\"chunk\":" << op.chunk << ",\"stage\":" << op.stage
     << ",\"pipe\":" << op.pipe << ",\"half_index\":" << op.half_index
     << ",\"half_count\":" << op.half_count << ",\"deps\":";
  write_pair_array(os, op.deps);
  os << ",\"units\":[";
  for (std::size_t i = 0; i < op.units.size(); ++i) {
    if (i) os << ',';
    write_unit(os, op.units[i]);
  }
  os << "]}";
}

// ---- strict schema extraction -------------------------------------------
// Parsing and key bookkeeping live in support/json; what remains is the
// schema. Every int field is range-checked, so a document that parses is a
// document whose every byte was understood — the round-trip guarantee the
// verifier's tests pin down.

std::vector<int> read_int_array(const json::Value& v, const char* what) {
  std::vector<int> out;
  for (const json::Value& e : json::as_array(v, what))
    out.push_back(json::as_int(e, what));
  return out;
}

std::vector<std::pair<int, int>> read_pair_array(const json::Value& v,
                                                 const char* what) {
  std::vector<std::pair<int, int>> out;
  for (const json::Value& e : json::as_array(v, what)) {
    const std::vector<json::Value>& pair = json::as_array(e, what);
    CHIMERA_CHECK_MSG(pair.size() == 2, what << ": expected [a, b] pairs");
    out.emplace_back(json::as_int(pair[0], what), json::as_int(pair[1], what));
  }
  return out;
}

UnitDoc read_unit(const json::Value& v) {
  json::ObjectReader r(v, "unit");
  UnitDoc u;
  u.micro = r.get_int("micro");
  u.half = r.get_int("half");
  u.halves = r.get_int("halves");
  u.stash_key = r.get_int64("stash_key");
  u.recv_from = r.get_int("recv_from");
  u.recv_tag = r.get_int64("recv_tag");
  u.send_to = r.get_int("send_to");
  u.send_tag = r.get_int64("send_tag");
  u.acquires_stash = r.get_bool("acquires_stash");
  u.releases_stash = r.get_bool("releases_stash");
  u.acquires_cache_slot = r.get_bool("acquires_cache_slot");
  u.releases_cache_slot = r.get_bool("releases_cache_slot");
  r.finish();
  return u;
}

OpDoc read_op(const json::Value& v) {
  json::ObjectReader r(v, "op");
  OpDoc op;
  op.kind = r.get_string("kind");
  CHIMERA_CHECK_MSG(op.kind == "forward" || op.kind == "backward" ||
                        op.kind == "allreduce_begin" ||
                        op.kind == "allreduce_wait",
                    "op: unknown kind \"" << op.kind << "\"");
  op.micro = r.get_int("micro");
  op.chunk = r.get_int("chunk");
  op.stage = r.get_int("stage");
  op.pipe = r.get_int("pipe");
  op.half_index = r.get_int("half_index");
  op.half_count = r.get_int("half_count");
  op.deps = read_pair_array(r.get("deps"), "op.deps");
  for (const json::Value& u : r.get_array("units"))
    op.units.push_back(read_unit(u));
  r.finish();
  return op;
}

}  // namespace

PlanDoc make_plan_doc(const ExecutionPlan& plan, const Partition* partition,
                      const KvPageGeometry* kv) {
  const PipelineSchedule& s = plan.schedule();
  PlanDoc doc;
  doc.format = "chimera-plan-v1";
  doc.scheme = scheme_name(s.scheme);
  doc.depth = s.depth;
  doc.num_micro = s.num_micro;
  doc.num_pipes = s.num_pipes;
  doc.synchronous = s.synchronous;
  doc.forward_only = s.forward_only;
  doc.decode = s.decode;
  doc.stage_worker = s.stage_worker;
  doc.pipe_of_micro = s.pipe_of_micro;
  // The *schedule*-derived stash claim (per-worker op order), not the
  // plan-event derivation the verifier recomputes: exporting the former and
  // rechecking it against the latter is what makes the claim a cross-check
  // between the memory model and the lowering instead of a tautology.
  doc.claimed_max_inflight = max_inflight_micros(s);
  doc.claimed_cache_bindings = max_live_cache_bindings(plan);
  doc.workers.resize(s.depth);
  for (int w = 0; w < s.depth; ++w) {
    doc.workers[w].reserve(plan.worker_plan(w).size());
    for (const PlannedOp& pop : plan.worker_plan(w)) {
      OpDoc op;
      op.kind = kind_name(pop.op.kind);
      op.micro = pop.op.micro;
      op.chunk = pop.op.chunk;
      op.stage = pop.op.stage;
      op.pipe = pop.op.pipe;
      op.half_index = pop.op.half_index;
      op.half_count = pop.op.half_count;
      op.deps.reserve(pop.deps.size());
      for (const OpRef& d : pop.deps) op.deps.emplace_back(d.worker, d.index);
      op.units.reserve(pop.units.size());
      for (const MicroUnit& u : pop.units) {
        UnitDoc ud;
        ud.micro = u.micro;
        ud.half = u.half;
        ud.halves = u.halves;
        ud.stash_key = u.stash_key;
        ud.recv_from = u.recv_from;
        ud.recv_tag = u.recv_tag;
        ud.send_to = u.send_to;
        ud.send_tag = u.send_tag;
        ud.acquires_stash = u.acquires_stash;
        ud.releases_stash = u.releases_stash;
        ud.acquires_cache_slot = u.acquires_cache_slot;
        ud.releases_cache_slot = u.releases_cache_slot;
        op.units.push_back(ud);
      }
      doc.workers[w].push_back(std::move(op));
    }
  }
  if (partition != nullptr) {
    CHIMERA_CHECK_MSG(partition->depth() == s.depth,
                      "partition depth " << partition->depth()
                                         << " does not match plan depth "
                                         << s.depth);
    doc.has_partition = true;
    doc.partition.num_layers = partition->model().layers;
    for (const StageRange& r : partition->ranges())
      doc.partition.ranges.emplace_back(r.begin, r.end);
  }
  if (kv != nullptr) {
    CHIMERA_CHECK_MSG(s.decode,
                      "kv_pages geometry attached to a non-decode plan");
    doc.has_kv_pages = true;
    doc.kv_pages.page_size = kv->page_size;
    doc.kv_pages.max_seq = kv->max_seq;
    doc.kv_pages.max_batch = kv->max_batch;
    doc.kv_pages.pages_per_session = kv->pages_per_session();
    doc.kv_pages.pool_pages = kv->pool_pages;
    doc.kv_pages.claimed_pages = kv_page_budget(plan, *kv);
  }
  return doc;
}

std::string plan_doc_to_json(const PlanDoc& doc) {
  std::ostringstream os;
  os << "{\n";
  os << "\"format\":\"" << json::escape(doc.format) << "\",\n";
  os << "\"scheme\":\"" << json::escape(doc.scheme) << "\",\n";
  os << "\"depth\":" << doc.depth << ",\n";
  os << "\"num_micro\":" << doc.num_micro << ",\n";
  os << "\"num_pipes\":" << doc.num_pipes << ",\n";
  os << "\"synchronous\":" << (doc.synchronous ? "true" : "false") << ",\n";
  os << "\"forward_only\":" << (doc.forward_only ? "true" : "false") << ",\n";
  os << "\"decode\":" << (doc.decode ? "true" : "false") << ",\n";
  os << "\"stage_worker\":[";
  for (std::size_t p = 0; p < doc.stage_worker.size(); ++p) {
    if (p) os << ',';
    write_int_array(os, doc.stage_worker[p]);
  }
  os << "],\n";
  os << "\"pipe_of_micro\":";
  write_int_array(os, doc.pipe_of_micro);
  os << ",\n";
  os << "\"claimed_max_inflight\":";
  write_int_array(os, doc.claimed_max_inflight);
  os << ",\n";
  os << "\"claimed_cache_bindings\":";
  write_int_array(os, doc.claimed_cache_bindings);
  os << ",\n";
  if (doc.has_partition) {
    os << "\"partition\":{\"num_layers\":" << doc.partition.num_layers
       << ",\"ranges\":";
    write_pair_array(os, doc.partition.ranges);
    os << "},\n";
  }
  if (doc.has_kv_pages) {
    os << "\"kv_pages\":{\"page_size\":" << doc.kv_pages.page_size
       << ",\"max_seq\":" << doc.kv_pages.max_seq
       << ",\"max_batch\":" << doc.kv_pages.max_batch
       << ",\"pages_per_session\":" << doc.kv_pages.pages_per_session
       << ",\"pool_pages\":" << doc.kv_pages.pool_pages
       << ",\"claimed_pages\":";
    write_int_array(os, doc.kv_pages.claimed_pages);
    os << "},\n";
  }
  os << "\"workers\":[\n";
  for (std::size_t w = 0; w < doc.workers.size(); ++w) {
    os << "[\n";
    for (std::size_t i = 0; i < doc.workers[w].size(); ++i) {
      write_op(os, doc.workers[w][i]);
      os << (i + 1 < doc.workers[w].size() ? ",\n" : "\n");
    }
    os << (w + 1 < doc.workers.size() ? "],\n" : "]\n");
  }
  os << "]\n}\n";
  return os.str();
}

std::string plan_to_json(const ExecutionPlan& plan, const Partition* partition,
                         const KvPageGeometry* kv) {
  return plan_doc_to_json(make_plan_doc(plan, partition, kv));
}

PlanDoc plan_from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  json::ObjectReader r(root, "plan");
  PlanDoc doc;
  doc.format = r.get_string("format");
  CHIMERA_CHECK_MSG(doc.format == "chimera-plan-v1",
                    "unsupported plan format \"" << doc.format << "\"");
  doc.scheme = r.get_string("scheme");
  doc.depth = r.get_int("depth");
  doc.num_micro = r.get_int("num_micro");
  doc.num_pipes = r.get_int("num_pipes");
  doc.synchronous = r.get_bool("synchronous");
  doc.forward_only = r.get_bool("forward_only");
  doc.decode = r.get_bool("decode");
  for (const json::Value& row : r.get_array("stage_worker"))
    doc.stage_worker.push_back(read_int_array(row, "stage_worker"));
  doc.pipe_of_micro = read_int_array(r.get("pipe_of_micro"), "pipe_of_micro");
  doc.claimed_max_inflight =
      read_int_array(r.get("claimed_max_inflight"), "claimed_max_inflight");
  doc.claimed_cache_bindings =
      read_int_array(r.get("claimed_cache_bindings"), "claimed_cache_bindings");
  if (const json::Value* part = r.get_optional("partition")) {
    json::ObjectReader pr(*part, "partition");
    doc.has_partition = true;
    doc.partition.num_layers = pr.get_int("num_layers");
    doc.partition.ranges =
        read_pair_array(pr.get("ranges"), "partition.ranges");
    pr.finish();
  }
  if (const json::Value* kv = r.get_optional("kv_pages")) {
    json::ObjectReader kr(*kv, "kv_pages");
    doc.has_kv_pages = true;
    doc.kv_pages.page_size = kr.get_int("page_size");
    doc.kv_pages.max_seq = kr.get_int("max_seq");
    doc.kv_pages.max_batch = kr.get_int("max_batch");
    doc.kv_pages.pages_per_session = kr.get_int("pages_per_session");
    doc.kv_pages.pool_pages = kr.get_int("pool_pages");
    doc.kv_pages.claimed_pages =
        read_int_array(kr.get("claimed_pages"), "kv_pages.claimed_pages");
    kr.finish();
  }
  for (const json::Value& row : r.get_array("workers")) {
    std::vector<OpDoc> ops;
    for (const json::Value& op : json::as_array(row, "workers"))
      ops.push_back(read_op(op));
    doc.workers.push_back(std::move(ops));
  }
  r.finish();
  return doc;
}

}  // namespace chimera
