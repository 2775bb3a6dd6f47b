// In-process message-passing substrate: ranks are OS threads, channels are
// tag-matched mailboxes, collectives are real distributed algorithms built
// on the point-to-point layer (MPI-style, per the hpc-parallel guides).
//
// This substrate stands in for the multi-GPU cluster (DESIGN.md §1,
// substitution 2): the training runtime exchanges real activation/gradient
// tensors through it, so the pipeline schemes execute their true
// communication patterns — including the per-stage gradient allreduce across
// bidirectional-pipeline replicas and its nonblocking overlapped variant
// (paper §3.2, "launch an asynchronous allreduce using nonblocking
// collectives ... and a wait operation is called after all the local
// computation").
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support/check.h"
#include "tensor/tensor.h"

namespace chimera::comm {

/// Allreduce algorithm selection. All algorithms produce results that are
/// bitwise identical across ranks (each reduced element is computed once or
/// via commutative same-operand additions).
enum class AllreduceAlgo {
  kNaive,              ///< gather to root, reduce, broadcast (reference)
  kRing,               ///< ring reduce-scatter + ring allgather (any size)
  kRecursiveDoubling,  ///< power-of-two group sizes
  kRabenseifner,       ///< recursive-halving RS + recursive-doubling AG (§3.4)
};

const char* allreduce_algo_name(AllreduceAlgo a);

class Communicator;

/// Piecewise flat view: an ordered list of (float*, count) pieces addressed
/// as one index space [0, size()). Every allreduce algorithm and
/// reduce_scatter_sum/allgather runs over one, through the message
/// primitives below, so a stage's gradients are reduced where they live
/// (GradSyncEngine) instead of through a staging copy. A `float* data, n`
/// entry point is the one-piece view. The view does not own the storage.
class FlatView {
 public:
  FlatView() = default;
  /// One-piece view of data[0..n).
  FlatView(float* data, std::size_t n) { append(data, n); }

  /// Appends data[0..n) as indices [size(), size() + n). Zero-length pieces
  /// are kept, so piece k is always the k-th appended.
  void append(float* data, std::size_t n) {
    pieces_.push_back({data, size_, n});
    size_ += n;
  }
  std::size_t size() const { return size_; }
  float* piece_data(std::size_t k) const { return pieces_[k].data; }

  /// A message holding [b, e), packed in one pass with no zero-fill.
  Tensor pack(std::size_t b, std::size_t e) const;
  /// [b, b + msg.numel()) += msg.
  void add(std::size_t b, const Tensor& msg) const;
  /// msg += [b, b + msg.numel()) — the ring's forwarded partial. Bitwise
  /// the same sums as add(): IEEE addition commutes.
  void add_to(std::size_t b, Tensor& msg) const;
  /// [b, b + msg.numel()) = msg.
  void unpack(std::size_t b, const Tensor& msg) const;

  /// Calls fn(piece, offset_in_piece, offset_in_range, len) for each
  /// non-empty overlap of [b, e) with a piece, in index order.
  template <class Fn>
  void for_each_piece(std::size_t b, std::size_t e, Fn&& fn) const;

 private:
  struct Piece {
    float* data;
    std::size_t begin;
    std::size_t n;
  };
  std::vector<Piece> pieces_;
  std::size_t size_ = 0;
};

/// Handle for a nonblocking collective. The operation progresses on a
/// dedicated helper thread (the "progress thread" model of MPI nonblocking
/// collectives); wait() blocks until completion, test() polls. Destroying an
/// incomplete Request waits for it — a collective is never abandoned
/// half-way through its message exchanges.
class Request {
 public:
  Request() = default;
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept;
  ~Request();

  /// Blocks until the collective has completed on this rank.
  void wait();
  /// Returns true once the collective has completed on this rank.
  bool test() const;
  /// True if this handle refers to a launched operation.
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Communicator;
  struct State {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  explicit Request(std::unique_ptr<State> s) : state_(std::move(s)) {}
  std::unique_ptr<State> state_;
};

/// Shared mailbox fabric for `size` ranks. Create one World, then one
/// Communicator per rank (each owned by exactly one application thread;
/// helper threads spawned by nonblocking collectives only use the
/// thread-safe p2p layer).
class World {
 public:
  explicit World(int size);
  int size() const { return size_; }

 private:
  friend class Communicator;
  struct Key {
    int src;
    std::int64_t tag;
    bool operator<(const Key& o) const {
      return src != o.src ? src < o.src : tag < o.tag;
    }
  };
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::multimap<Key, Tensor> messages;
  };
  int size_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
};

/// Per-rank endpoint. send() moves the payload into the destination
/// mailbox and recv() moves it back out (it blocks until a matching
/// (src, tag) message arrives) — a p2p transfer never copies the tensor
/// storage, only hands it over.
///
/// Collective-ordering contract (MPI semantics): every member of a group
/// must enter the group's *blocking* collectives in the same order.
/// Nonblocking launches (iallreduce_sum, ireduce_scatter_segment) relax
/// this: launch order may differ across ranks because each operation
/// progresses independently; only the per-(group, context) launch sequence
/// must match.
class Communicator {
 public:
  Communicator(World& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const { return rank_; }
  int world_size() const { return world_->size(); }

  void send(int dst, std::int64_t tag, Tensor payload);
  Tensor recv(int src, std::int64_t tag);

  /// In-place sum-allreduce of `data` over `group` (sorted, must contain
  /// this rank). `context` separates independent collective streams (e.g.
  /// one per pipeline stage). The ring forwards each received partial by
  /// move: 1/g·n packed plus n unpacked per rank, where a re-staging ring
  /// copies 3(g−1)/g·n.
  void allreduce_sum(const FlatView& data, const std::vector<int>& group,
                     std::int64_t context, AllreduceAlgo algo = AllreduceAlgo::kRing);
  void allreduce_sum(float* data, std::size_t n, const std::vector<int>& group,
                     std::int64_t context, AllreduceAlgo algo = AllreduceAlgo::kRing) {
    allreduce_sum(FlatView(data, n), group, context, algo);
  }

  /// Nonblocking allreduce: returns immediately; the reduction runs on a
  /// helper thread and the storage under `data` must stay alive and
  /// untouched until the returned Request completes. This is the §3.2 eager
  /// gradient sync.
  Request iallreduce_sum(FlatView data, const std::vector<int>& group,
                         std::int64_t context, AllreduceAlgo algo = AllreduceAlgo::kRing);
  Request iallreduce_sum(float* data, std::size_t n, const std::vector<int>& group,
                         std::int64_t context, AllreduceAlgo algo = AllreduceAlgo::kRing) {
    return iallreduce_sum(FlatView(data, n), group, context, algo);
  }

  /// Broadcast from `group[root_index]` to all of `group` (binomial tree).
  void broadcast(float* data, std::size_t n, int root_index,
                 const std::vector<int>& group, std::int64_t context);

  /// Sum-reduce to `group[root_index]` (binomial tree). Non-root buffers are
  /// left unspecified (they are used as scratch).
  void reduce_sum(float* data, std::size_t n, int root_index,
                  const std::vector<int>& group, std::int64_t context);

  /// Ring reduce-scatter: on return, rank i of the group holds the fully
  /// reduced segment [seg_begin(i), seg_begin(i+1)) of `data` (the canonical
  /// even split of its size over the group); other positions are scratch.
  void reduce_scatter_sum(const FlatView& data, const std::vector<int>& group,
                          std::int64_t context);
  void reduce_scatter_sum(float* data, std::size_t n, const std::vector<int>& group,
                          std::int64_t context) {
    reduce_scatter_sum(FlatView(data, n), group, context);
  }

  /// The same ring reduce-scatter, handing this rank's reduced segment to
  /// the caller as a message instead of writing it home (the whole view is
  /// left as scratch) — the first half of the sharded optimizer step
  /// (runtime/grad_sync.h), which reads the sums from the message and
  /// refills it with the updated parameters as allgather's `own`. A group
  /// of one returns the whole view.
  Tensor reduce_scatter_segment(const FlatView& data,
                                const std::vector<int>& group,
                                std::int64_t context);
  /// Nonblocking reduce_scatter_segment, launched like iallreduce_sum:
  /// `*own` receives the segment and must stay alive and untouched, like
  /// the storage under `data`, until the returned Request completes.
  Request ireduce_scatter_segment(FlatView data, const std::vector<int>& group,
                                  std::int64_t context, Tensor* own);

  /// Ring allgather of the canonical segments: each rank contributes its own
  /// segment of `data` and on return every rank holds all segments. The
  /// inverse of reduce_scatter_sum; together they form the ZeRO-1 step.
  void allgather(const FlatView& data, const std::vector<int>& group,
                 std::int64_t context);
  void allgather(float* data, std::size_t n, const std::vector<int>& group,
                 std::int64_t context) {
    allgather(FlatView(data, n), group, context);
  }
  /// Allgather whose own segment arrives already packed: `own` must hold
  /// this rank's segment of `data`, which it is forwarded as (the view's
  /// own segment is neither read nor written).
  void allgather(const FlatView& data, const std::vector<int>& group,
                 std::int64_t context, Tensor own);

  /// Gather `n` elements from every rank to `group[root_index]`. On the root
  /// `out` must have group.size()·n elements (filled in group order); on
  /// other ranks it is ignored.
  void gather(const float* data, std::size_t n, float* out, int root_index,
              const std::vector<int>& group, std::int64_t context);

  /// Pairwise-exchange alltoall: `send_buf` holds group.size() blocks of `n`
  /// elements (block j for rank j of the group); on return `recv_buf[j·n..]`
  /// holds the block rank j addressed to this rank.
  void alltoall(const float* send_buf, float* recv_buf, std::size_t n,
                const std::vector<int>& group, std::int64_t context);

  /// Dissemination barrier over `group`.
  void barrier(const std::vector<int>& group, std::int64_t context);

 private:
  std::int64_t collective_tag(std::int64_t context);
  /// The one progress-thread launcher of the nonblocking collectives: draws
  /// the tag on the caller and runs exchange(tag) on a helper thread. A
  /// group of one or an empty view completes at once.
  Request launch(const std::vector<int>& group, std::size_t n,
                 std::int64_t context,
                 std::function<void(std::int64_t)> exchange);
  void allreduce_with_tag(const FlatView& data, const std::vector<int>& group,
                          std::int64_t tag, AllreduceAlgo algo);
  /// The ring reduce-scatter's first send: segment me−1 of `data`, packed.
  Tensor first_partial(const FlatView& data,
                       const std::vector<int>& group) const;
  /// Returns this rank's reduced segment as a message (not unpacked home),
  /// ready to be forwarded as the ring allgather's first send. `msg` is
  /// the first send, first_partial(data, group).
  Tensor reduce_scatter_with_tag(const FlatView& data,
                                 const std::vector<int>& group,
                                 std::int64_t tag, Tensor msg);
  /// `own` is this rank's segment of `data`, packed.
  void allgather_with_tag(const FlatView& data, const std::vector<int>& group,
                          std::int64_t tag, Tensor own);

  World* world_;
  int rank_;
  /// Per-context sequence numbers for collective tag generation.
  std::unordered_map<std::int64_t, std::int64_t> seq_;
};

/// Canonical segment bounds used by reduce_scatter_sum/allgather: segment i
/// of g over n elements is [n·i/g, n·(i+1)/g).
inline std::size_t segment_begin(std::size_t n, int g, int i) {
  return n * static_cast<std::size_t>(i) / static_cast<std::size_t>(g);
}

template <class Fn>
void FlatView::for_each_piece(std::size_t b, std::size_t e, Fn&& fn) const {
  CHIMERA_CHECK_MSG(b <= e && e <= size_,
                    "range [" << b << ", " << e << ") outside view of " << size_);
  if (b == e) return;
  // The last piece that begins at or before b holds b (a zero-length piece
  // shares its begin with the next one, which then comes later).
  std::size_t k = static_cast<std::size_t>(
      std::upper_bound(pieces_.begin(), pieces_.end(), b,
                       [](std::size_t i, const Piece& p) { return i < p.begin; }) -
      pieces_.begin() - 1);
  for (std::size_t i = b; i < e; ++k) {
    const Piece& p = pieces_[k];
    const std::size_t len = std::min(e, p.begin + p.n) - i;
    if (len > 0) fn(k, i - p.begin, i - b, len);
    i += len;
  }
}

}  // namespace chimera::comm
