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
/// as one index space [0, size()). Every collective runs over one, through
/// the message primitives below, so a stage's gradients are reduced where they live
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

/// Handle for a nonblocking collective: the move-only owner of the helper
/// thread the operation progresses on (the "progress thread" model of MPI
/// nonblocking collectives). wait() blocks until completion; assigning over
/// or destroying an incomplete Request waits for it too — a collective is
/// never abandoned half-way through its message exchanges.
class Request {
 public:
  Request() = default;
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept;
  ~Request();

  /// Blocks until the collective has completed on this rank.
  void wait();

 private:
  friend class Communicator;
  explicit Request(std::thread thread) : thread_(std::move(thread)) {}
  std::thread thread_;
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
  Communicator(World& world, int rank);

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

  /// Ring reduce-scatter: returns rank i's fully reduced segment
  /// [segment_begin(i), segment_begin(i+1)) of `data` (the canonical even
  /// split of its size over the group) as a message, and leaves the whole
  /// view as scratch — the first half of the sharded optimizer step
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

  /// Ring allgather of the canonical segments, the inverse of
  /// reduce_scatter_segment: `own` must hold this rank's segment of `data`,
  /// which it is forwarded as (the view's own segment is neither read nor
  /// written); on return every rank's view holds every other segment.
  void allgather(const FlatView& data, const std::vector<int>& group,
                 std::int64_t context, Tensor own);

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

/// Canonical segment bounds of the ring reduce-scatter/allgather: segment i
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
