// Plan interchange: a flat, self-describing JSON document of a lowered
// ExecutionPlan.
//
// The export exists so that a checker can be *independent* of the lowering
// it checks: src/verify rebuilds its own plan model from this document and
// re-derives every invariant (deadlock-freedom, tag pairing, stash and
// cache-slot balance, per-micro dataflow) from the serialized facts alone —
// never from OpIndex or the ExecutionPlan constructor, whose bugs are
// exactly what the verifier exists to catch. The same document is what
// `verify_plan` (tools/) reads from disk, and what a future user-defined
// schedule interface would submit.
//
// PlanDoc is a plain value type mirroring the document one to one; equality
// is field-wise, so `plan_from_json(plan_to_json(p)) == make_plan_doc(p)`
// is the round-trip contract (tests/verify_test.cc). This is a schema layer
// over support/json: fixed field order, one readable line per op.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace chimera {

class ExecutionPlan;
class Partition;
struct KvPageGeometry;

/// Mirror of MicroUnit (core/execution_plan.h).
struct UnitDoc {
  int micro = -1;
  int half = 0;
  int halves = 1;
  long stash_key = 0;
  int recv_from = -1;
  std::int64_t recv_tag = 0;
  int send_to = -1;
  std::int64_t send_tag = 0;
  bool acquires_stash = false;
  bool releases_stash = false;
  bool acquires_cache_slot = false;
  bool releases_cache_slot = false;
  friend bool operator==(const UnitDoc&, const UnitDoc&) = default;
};

/// Mirror of one PlannedOp: the Op fields, its dependency list and its
/// resolved transfer units.
struct OpDoc {
  std::string kind;  ///< "forward" | "backward" | "allreduce_begin" | "allreduce_wait"
  int micro = -1;
  int chunk = 1;
  int stage = -1;
  int pipe = 0;
  int half_index = 0;
  int half_count = 1;
  std::vector<std::pair<int, int>> deps;  ///< (worker, op index) pairs
  std::vector<UnitDoc> units;
  bool is_compute() const { return kind == "forward" || kind == "backward"; }
  friend bool operator==(const OpDoc&, const OpDoc&) = default;
};

/// The layer partition executed under the plan, when the exporter knows it:
/// per-stage [begin, end) layer ranges that must cover `num_layers` exactly
/// once (the runtime's cover-exactly-once CHECK, made verifiable offline).
struct PartitionDoc {
  int num_layers = 0;
  std::vector<std::pair<int, int>> ranges;
  friend bool operator==(const PartitionDoc&, const PartitionDoc&) = default;
};

/// Decode plans that ran under the paged KV subsystem: the page geometry
/// and the per-worker page-pool capacity the exporter claims it reserved
/// (rt::DecodeEngine's construction numbers). The verifier re-derives the
/// budget from the plan's cache-slot events + the geometry alone and
/// cross-checks both the derived fields (pages_per_session) and the claim
/// (kPageBudget).
struct KvPageDoc {
  int page_size = 0;
  int max_seq = 0;
  int max_batch = 0;
  int pages_per_session = 0;
  int pool_pages = 0;  ///< configured pages per replica pool; 0 = auto
  std::vector<int> claimed_pages;  ///< per-worker reserved pool pages
  friend bool operator==(const KvPageDoc&, const KvPageDoc&) = default;
};

/// The complete document. Everything the verifier consumes is here; nothing
/// is recomputed from library code at check time.
struct PlanDoc {
  std::string format;  ///< "chimera-plan-v1"
  std::string scheme;  ///< scheme_name() string, informational
  int depth = 0;
  int num_micro = 0;
  int num_pipes = 1;
  bool synchronous = true;
  bool forward_only = false;
  bool decode = false;
  std::vector<std::vector<int>> stage_worker;  ///< [pipe][stage] -> worker
  std::vector<int> pipe_of_micro;
  std::vector<std::vector<OpDoc>> workers;  ///< [worker] -> ordered op list
  /// The memory model's stash claim: per-worker high-water mark of stashed
  /// forward activations, in micro-batches, derived from *per-worker op
  /// order* (core/schedule_analysis.h max_inflight_micros overload — the
  /// quantity memory_model prices). The verifier recomputes the peak from
  /// the plan's stash events and cross-checks the two derivations.
  std::vector<int> claimed_max_inflight;
  /// Decode plans: per-worker cache-slot binding capacity claimed by
  /// max_live_cache_bindings (what rt::DecodeEngine sizes KV arenas by).
  std::vector<int> claimed_cache_bindings;
  bool has_partition = false;
  PartitionDoc partition;
  bool has_kv_pages = false;
  KvPageDoc kv_pages;
  friend bool operator==(const PlanDoc&, const PlanDoc&) = default;
};

/// Extracts the document from a lowered plan. `partition`, when given, must
/// have partition->depth() == plan depth. `kv`, when given, requires a
/// decode plan and attaches the kv_pages claim (kv_page_budget under that
/// geometry).
PlanDoc make_plan_doc(const ExecutionPlan& plan,
                      const Partition* partition = nullptr,
                      const KvPageGeometry* kv = nullptr);

/// Deterministic serialization: same doc -> byte-identical string.
std::string plan_doc_to_json(const PlanDoc& doc);

/// One-call export used by the fuzzer, the benches and future tooling.
std::string plan_to_json(const ExecutionPlan& plan,
                         const Partition* partition = nullptr,
                         const KvPageGeometry* kv = nullptr);

/// Parses a document produced by plan_doc_to_json (or written by hand).
/// Throws CheckError on malformed input or schema violations (unknown or
/// missing keys, ints out of range); never partially succeeds.
PlanDoc plan_from_json(const std::string& json);

}  // namespace chimera
