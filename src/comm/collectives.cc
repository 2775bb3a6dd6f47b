// Collective algorithms over the mailbox p2p layer. Every routine is a real
// distributed algorithm (the message pattern a cluster implementation would
// execute), not a shared-memory shortcut: ring reduce-scatter/allgather,
// recursive doubling and recursive halving (Rabenseifner) — the allreduce
// algorithms of Thakur/Rabenseifner/Gropp 2005 that the paper's cost model
// prices (§3.4).
#include <algorithm>
#include <climits>
#include <cstring>

#include "comm/world.h"
#include "support/check.h"
#include "tensor/kernels.h"

namespace chimera::comm {

const char* allreduce_algo_name(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kNaive: return "naive";
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kRecursiveDoubling: return "recursive-doubling";
    case AllreduceAlgo::kRabenseifner: return "rabenseifner";
  }
  return "?";
}

namespace {

int index_in(const std::vector<int>& group, int rank) {
  auto it = std::find(group.begin(), group.end(), rank);
  CHIMERA_CHECK_MSG(it != group.end(), "rank not in group");
  return static_cast<int>(it - group.begin());
}

bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

}  // namespace

Tensor FlatView::pack(std::size_t b, std::size_t e) const {
  CHIMERA_CHECK(e - b <= static_cast<std::size_t>(INT_MAX));
  Tensor msg;
  msg.reshape(1, static_cast<int>(e - b));  // arena storage, not zeroed
  for_each_piece(b, e, [&](std::size_t k, std::size_t off, std::size_t at,
                           std::size_t len) {
    std::memcpy(msg.data() + at, pieces_[k].data + off, len * sizeof(float));
  });
  return msg;
}

// vector_add is bitwise ≡ the scalar loop in every tier (one independent
// float add per element), so every reduction below stays deterministic.
void FlatView::add(std::size_t b, const Tensor& msg) const {
  for_each_piece(b, b + msg.numel(), [&](std::size_t k, std::size_t off,
                                         std::size_t at, std::size_t len) {
    vector_add(pieces_[k].data + off, msg.data() + at, len);
  });
}

void FlatView::add_to(std::size_t b, Tensor& msg) const {
  for_each_piece(b, b + msg.numel(), [&](std::size_t k, std::size_t off,
                                         std::size_t at, std::size_t len) {
    vector_add(msg.data() + at, pieces_[k].data + off, len);
  });
}

void FlatView::unpack(std::size_t b, const Tensor& msg) const {
  for_each_piece(b, b + msg.numel(), [&](std::size_t k, std::size_t off,
                                         std::size_t at, std::size_t len) {
    std::memcpy(pieces_[k].data + off, msg.data() + at, len * sizeof(float));
  });
}

Tensor Communicator::first_partial(const FlatView& data,
                                   const std::vector<int>& group) const {
  const int g = static_cast<int>(group.size());
  const int first = (index_in(group, rank_) - 1 + g) % g;
  return data.pack(segment_begin(data.size(), g, first),
                   segment_begin(data.size(), g, first + 1));
}

Tensor Communicator::reduce_scatter_with_tag(const FlatView& data,
                                             const std::vector<int>& group,
                                             std::int64_t tag, Tensor msg) {
  const int g = static_cast<int>(group.size());
  const int me = index_in(group, rank_);
  const int right = group[(me + 1) % g];
  const int left = group[(me - 1 + g) % g];
  auto seg = [&](int i) { return segment_begin(data.size(), g, i); };
  // Segment j starts one rank right of its owner and travels the ring
  // accumulating; after g−1 hops it lands fully reduced on rank j. At step
  // s, rank me therefore forwards segment me−s−1 and receives me−s−2. Only
  // the first send is packed (`msg`, segment me−1): each received partial
  // gets the local segment added into it and is forwarded by move as the
  // next step's message.
  for (int step = 0; step < g - 1; ++step) {
    send(right, tag + step, std::move(msg));
    msg = recv(left, tag + step);
    const int recv_seg = (me - step - 2 + 2 * g) % g;
    CHIMERA_CHECK(msg.numel() == seg(recv_seg + 1) - seg(recv_seg));
    data.add_to(seg(recv_seg), msg);
  }
  // The last partial received was this rank's own segment.
  return msg;
}

void Communicator::allgather_with_tag(const FlatView& data,
                                      const std::vector<int>& group,
                                      std::int64_t tag, Tensor own) {
  const int g = static_cast<int>(group.size());
  const int me = index_in(group, rank_);
  const int right = group[(me + 1) % g];
  const int left = group[(me - 1 + g) % g];
  auto seg = [&](int i) { return segment_begin(data.size(), g, i); };
  // Rank me owns segment me; at step s it forwards the segment it received
  // at step s−1 (its own at s=0) and receives segment me−s−1. Each received
  // segment is unpacked home and forwarded by move.
  Tensor msg = std::move(own);
  for (int step = 0; step < g - 1; ++step) {
    send(right, tag + step, std::move(msg));
    msg = recv(left, tag + step);
    const int recv_seg = (me - step - 1 + 2 * g) % g;
    CHIMERA_CHECK(msg.numel() == seg(recv_seg + 1) - seg(recv_seg));
    data.unpack(seg(recv_seg), msg);
  }
}

void Communicator::allreduce_with_tag(const FlatView& data,
                                      const std::vector<int>& group,
                                      std::int64_t tag, AllreduceAlgo algo) {
  const int g = static_cast<int>(group.size());
  const int me = index_in(group, rank_);
  const std::size_t n = data.size();

  if (algo == AllreduceAlgo::kNaive) {
    // Gather to group[0], reduce in group order, broadcast.
    if (me == 0) {
      for (int r = 1; r < g; ++r) {
        Tensor part = recv(group[r], tag);
        CHIMERA_CHECK(part.numel() == n);
        data.add(0, part);
      }
      for (int r = 1; r < g; ++r) send(group[r], tag, data.pack(0, n));
    } else {
      send(group[0], tag, data.pack(0, n));
      Tensor result = recv(group[0], tag);
      CHIMERA_CHECK(result.numel() == n);
      data.unpack(0, result);
    }
    return;
  }

  if ((algo == AllreduceAlgo::kRecursiveDoubling ||
       algo == AllreduceAlgo::kRabenseifner) &&
      !is_pow2(g)) {
    // Power-of-two algorithms fall back to ring for odd group sizes.
    algo = AllreduceAlgo::kRing;
  }

  if (algo == AllreduceAlgo::kRecursiveDoubling) {
    for (int dist = 1; dist < g; dist <<= 1) {
      const int partner = group[me ^ dist];
      send(partner, tag, data.pack(0, n));
      Tensor part = recv(partner, tag);
      CHIMERA_CHECK(part.numel() == n);
      data.add(0, part);
      tag += 1;
    }
    return;
  }

  if (algo == AllreduceAlgo::kRabenseifner) {
    // Recursive-halving reduce-scatter: after round k the rank owns a
    // contiguous 1/2^k fraction of the vector, fully reduced over its
    // subcube; then recursive-doubling allgather reassembles.
    //
    // range_at(r, stop): the segment rank-index r owns after applying the
    // halving splits for distances g/2 ... stop. stop=1 is the fully
    // scattered state; stop=2·dist is the state after the allgather step at
    // distance dist.
    const auto range_at = [&](int r, int stop) {
      std::size_t lo = 0, hi = n;
      for (int d = g >> 1; d >= stop; d >>= 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if ((r & d) == 0)
          hi = mid;
        else
          lo = mid;
      }
      return std::pair<std::size_t, std::size_t>{lo, hi};
    };
    {
      std::size_t lo = 0, hi = n;
      for (int dist = g >> 1; dist >= 1; dist >>= 1) {
        const int partner = group[me ^ dist];
        const std::size_t mid = lo + (hi - lo) / 2;
        const bool keep_low = (me & dist) == 0;
        const std::size_t send_b = keep_low ? mid : lo;
        const std::size_t send_e = keep_low ? hi : mid;
        send(partner, tag, data.pack(send_b, send_e));
        Tensor part = recv(partner, tag);
        const std::size_t keep_b = keep_low ? lo : mid;
        const std::size_t keep_e = keep_low ? mid : hi;
        CHIMERA_CHECK(part.numel() == keep_e - keep_b);
        data.add(keep_b, part);
        lo = keep_b;
        hi = keep_e;
        tag += 1;
      }
    }
    for (int dist = 1; dist < g; dist <<= 1) {
      const int partner = group[me ^ dist];
      const auto [cur_b, cur_e] = range_at(me, dist);
      const auto [mrg_b, mrg_e] = range_at(me, 2 * dist);
      send(partner, tag, data.pack(cur_b, cur_e));
      Tensor part = recv(partner, tag);
      // The partner holds the other half of the merged range.
      const std::size_t other_b = cur_b == mrg_b ? cur_e : mrg_b;
      const std::size_t other_e = cur_b == mrg_b ? mrg_e : cur_b;
      CHIMERA_CHECK(part.numel() == other_e - other_b);
      data.unpack(other_b, part);
      tag += 1;
    }
    return;
  }

  // Ring: g−1 reduce-scatter steps then g−1 allgather steps; the reduced
  // own segment, unpacked home, is the allgather's first message.
  Tensor own =
      reduce_scatter_with_tag(data, group, tag, first_partial(data, group));
  data.unpack(segment_begin(n, g, me), own);
  allgather_with_tag(data, group, tag + g, std::move(own));
}

void Communicator::allreduce_sum(const FlatView& data,
                                 const std::vector<int>& group,
                                 std::int64_t context, AllreduceAlgo algo) {
  if (group.size() <= 1 || data.size() == 0) return;
  allreduce_with_tag(data, group, collective_tag(context), algo);
}

Request Communicator::launch(const std::vector<int>& group, std::size_t n,
                             std::int64_t context,
                             std::function<void(std::int64_t)> exchange) {
  if (group.size() <= 1 || n == 0) return Request{};
  // The tag is drawn on the caller thread so that per-(group, context)
  // launch order defines matching across ranks; only the message exchange
  // itself runs on the progress thread.
  const std::int64_t tag = collective_tag(context);
  return Request{std::thread(std::move(exchange), tag)};
}

Request Communicator::iallreduce_sum(FlatView data,
                                     const std::vector<int>& group,
                                     std::int64_t context, AllreduceAlgo algo) {
  const std::size_t n = data.size();
  return launch(group, n, context,
                [this, data = std::move(data), group, algo](std::int64_t tag) {
                  allreduce_with_tag(data, group, tag, algo);
                });
}

Request Communicator::ireduce_scatter_segment(FlatView data,
                                              const std::vector<int>& group,
                                              std::int64_t context,
                                              Tensor* own) {
  const std::size_t n = data.size();
  if (group.size() <= 1 || n == 0) {
    *own = data.pack(0, n);
    return Request{};
  }
  // The first partial is packed here, from the launching thread's arena:
  // the segment handed back to this thread leaves through its allgather,
  // which parks the last message it receives there, so the pair keeps that
  // arena balanced (a progress thread's arena dies with the thread).
  Tensor first = first_partial(data, group);
  return launch(group, n, context,
                [this, data = std::move(data), group, own,
                 first = std::move(first)](std::int64_t tag) mutable {
                  *own = reduce_scatter_with_tag(data, group, tag,
                                                 std::move(first));
                });
}

Tensor Communicator::reduce_scatter_segment(const FlatView& data,
                                            const std::vector<int>& group,
                                            std::int64_t context) {
  if (group.size() <= 1 || data.size() == 0)
    return data.pack(0, data.size());
  return reduce_scatter_with_tag(data, group, collective_tag(context),
                                 first_partial(data, group));
}

void Communicator::allgather(const FlatView& data, const std::vector<int>& group,
                             std::int64_t context, Tensor own) {
  if (group.size() <= 1 || data.size() == 0) return;
  allgather_with_tag(data, group, collective_tag(context), std::move(own));
}

}  // namespace chimera::comm
