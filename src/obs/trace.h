// Runtime tracing: per-thread span recording for the real execution stack
// (DESIGN.md §9).
//
// sim::engine_trace exports what the simulator *predicts* in the same trace
// format; this recorder shows what the WorkerPool actually did. Every
// instrumented site follows one pattern: an RAII guard (Span / OpSpan) or a
// one-shot instant() that appends a TraceEvent into a per-thread ring
// buffer. Contracts:
//
//  - Disabled is free. enabled() is one relaxed atomic load; every guard
//    constructor checks it first and does nothing else when off. No
//    allocation, no clock read, no lock. Tracing on vs off leaves all
//    computed results bitwise identical (tests/obs_test.cc parity tests) —
//    instrumentation only ever *observes*.
//  - Per-thread buffers, uncontended appends. Each thread owns a grow-then-
//    wrap ring (capacity set_ring_capacity; oldest events overwritten).
//    A buffer's mutex is only contended by collect()/reset(), never by
//    another recording thread.
//  - Deterministic collection. Events carry a per-thread sequence number
//    and the recording thread's (worker, lane) identity; collect() sorts by
//    (worker, lane, seq, ...), so two runs that record the same events
//    yield identical streams regardless of thread interleaving. Rank
//    threads record at lane 0 (WorkerPool::thread_main registers the rank);
//    intra-op helper i records at worker −1, lane i+1; everything else
//    (engine drivers, tests) records at worker −1, lane 0.
//  - Injectable clock. Timestamps are double microseconds from a steady
//    clock by default; set_clock() substitutes a fake (tests). For op-level
//    spans there is a stronger mode: arm_plan_times() installs a per-
//    (plan worker, op index) start/end table — typically a ReplayResult —
//    and OpSpan stamps from the table instead of the clock, which is what
//    makes measured bubble fractions comparable to the dependency-exact
//    replay *bitwise* (tools/trace_report).
//
// set_enabled / set_clock / arm_plan_times / set_ring_capacity / reset are
// control-plane calls: invoke them while no traced region is executing
// (between iterations / engine rounds). collect() may run any time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace chimera::obs {

/// Every instrumented site in the stack. Order matters: plan-op span kinds
/// come first (is_plan_op), instant kinds last (is_instant_kind).
enum class EventKind : int {
  // Plan-op duration spans — one per executed ExecutionPlan op.
  kForward = 0,     ///< training/serving forward op (serving: infer)
  kBackward,        ///< training backward op
  kAllReduceBegin,  ///< gradient allreduce launch op
  kAllReduceWait,   ///< gradient allreduce completion op
  kPrefillOp,       ///< decode plan op executing prefill jobs
  kDecodeOp,        ///< decode plan op advancing active sessions
  // Other duration spans.
  kSend,          ///< p2p send of one MicroUnit transfer
  kRecv,          ///< p2p recv of one MicroUnit transfer
  kGradSync,      ///< PipeDream per-micro replica sync (GradSyncEngine)
  kOptimStep,     ///< synchronous flush: clip + optimizer step
  kHelperTask,    ///< one ComputePool shard execution
  kServeRound,    ///< ServingEngine round (pool dispatch)
  kPrefillRound,  ///< DecodeEngine prefill round (pool dispatch)
  kDecodeRound,   ///< DecodeEngine decode round (pool dispatch)
  // Instant events (t0 == t1).
  kStashAcquire,  ///< weight-stash version pinned (tag = stash key)
  kStashRelease,  ///< weight-stash version dropped (tag = stash key)
  kCacheAcquire,  ///< decode cache-slot binding begins (tag = micro)
  kCacheRelease,  ///< decode cache-slot binding retires (tag = micro)
  kAdmit,         ///< fresh session admitted (tag = session id)
  kResume,        ///< parked session re-admitted (tag = session id)
  kPark,          ///< session preempted under page pressure (tag = id)
  kPrefixHit,     ///< admission adopted registry pages (tag = positions)
  kCowSplit,      ///< copy-on-write page splits this growth (tag = count)
  kToken,         ///< one sampled token (tag = session id)
};

constexpr int kEventKindCount = static_cast<int>(EventKind::kToken) + 1;

/// Stable lowercase name ("forward", "cow_split", ...) used by the Chrome
/// exporter and parsed back by trace_from_json.
const char* event_kind_name(EventKind k);

/// Inverse of event_kind_name; returns false on unknown names.
bool event_kind_from_name(const std::string& name, EventKind* out);

/// Span kinds that correspond 1:1 to ExecutionPlan ops (carry op_index).
inline bool is_plan_op(EventKind k) {
  return static_cast<int>(k) <= static_cast<int>(EventKind::kDecodeOp);
}

/// Instantaneous markers (exported as Chrome "i" events).
inline bool is_instant_kind(EventKind k) {
  return static_cast<int>(k) >= static_cast<int>(EventKind::kStashAcquire);
}

/// Plan-op kinds that count as compute for bubble accounting — mirrors
/// Op::is_compute() plus the decode-plan analogues.
inline bool is_compute_kind(EventKind k) {
  return k == EventKind::kForward || k == EventKind::kBackward ||
         k == EventKind::kPrefillOp || k == EventKind::kDecodeOp;
}

/// One recorded event. Timestamps are microseconds as double (steady clock,
/// fake clock, or armed plan times); instants have t0_us == t1_us.
struct TraceEvent {
  EventKind kind = EventKind::kForward;
  int worker = -1;    ///< global rank; -1 = engine / helper thread
  int lane = 0;       ///< 0 = rank or driver thread; helper i records i+1
  int micro = -1;     ///< micro-batch / decode stream, -1 when n/a
  int stage = -1;
  int pipe = -1;
  int op_index = -1;  ///< plan op index for plan-op spans, else -1
  long tag = 0;       ///< kind-specific payload (p2p tag, stash key, ...)
  double t0_us = 0.0;
  double t1_us = 0.0;
  std::uint64_t seq = 0;  ///< per-thread recording ordinal
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Total order used by collect(): (worker, lane, seq), with the payload
/// fields as tiebreakers so the sort is deterministic for any input order.
bool trace_event_before(const TraceEvent& a, const TraceEvent& b);

/// Global on/off switch — one relaxed load on every instrumentation site.
bool enabled();
void set_enabled(bool on);

/// Current timestamp in microseconds (custom clock when set, else steady
/// clock since process start).
double now_us();

/// Installs a fake clock (null restores the steady clock). Control-plane:
/// set it before enabling tracing around a run.
void set_clock(std::function<double()> clock);

/// Per-(plan worker, op index) start/end table for OpSpan stamping —
/// typically ReplayResult::times converted to pairs. Cleared by
/// clear_plan_times(). While armed, op-level spans ignore the clock.
using PlanTimes = std::vector<std::vector<std::pair<double, double>>>;
void arm_plan_times(PlanTimes times);
void clear_plan_times();

/// Per-thread ring capacity (events). Applies to buffers created after the
/// call and to existing buffers on their next append. Minimum 16.
void set_ring_capacity(std::size_t capacity);

/// Drops every recorded event and resets all per-thread sequence counters
/// (so two runs bracketed by reset() produce comparable streams).
void reset();

/// Snapshot of every thread's retained events, sorted by
/// trace_event_before. Does not clear; pair with reset().
std::vector<TraceEvent> collect();

/// Registers the calling thread's identity for subsequent events.
/// WorkerPool rank threads set worker = rank; ComputePool helper i sets
/// lane = i + 1. Threads that never call these record (-1, 0).
void set_thread_worker(int worker);
void set_thread_lane(int lane);
int thread_worker();

/// Appends an instant event (t0 == t1) when tracing is enabled.
void instant(EventKind kind, int worker, int micro = -1, int stage = -1,
             int pipe = -1, long tag = 0);

/// RAII duration span: records [construction, destruction] under the
/// active clock. Does nothing when tracing is disabled at construction.
class Span {
 public:
  Span(EventKind kind, int worker, int micro = -1, int stage = -1,
       int pipe = -1, long tag = 0) {
    if (enabled()) open(kind, worker, micro, stage, pipe, tag);
  }
  ~Span() {
    if (armed_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(EventKind kind, int worker, int micro, int stage, int pipe,
            long tag);
  void close();
  bool armed_ = false;
  TraceEvent ev_;
};

/// RAII span for one ExecutionPlan op. When plan times are armed and cover
/// (plan_worker, op_index), the event is stamped from the table (bitwise
/// the replay's OpTiming); otherwise it behaves like Span.
class OpSpan {
 public:
  OpSpan(EventKind kind, int rank, int plan_worker, int op_index, int micro,
         int stage, int pipe) {
    if (enabled()) open(kind, rank, plan_worker, op_index, micro, stage, pipe);
  }
  ~OpSpan() {
    if (armed_) close();
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  void open(EventKind kind, int rank, int plan_worker, int op_index,
            int micro, int stage, int pipe);
  void close();
  bool armed_ = false;
  bool stamped_ = false;  ///< times came from the armed plan table
  TraceEvent ev_;
};

}  // namespace chimera::obs
