// Message-passing substrate tests: p2p ordering, tag matching, ranks outside
// the world, and every allreduce algorithm against the naive reference,
// across group sizes — including the bitwise cross-rank agreement the
// weight-replica consistency of the runtime depends on — and the piecewise
// flat view every collective runs over, which must reduce bit for bit like
// one contiguous buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "comm/world.h"
#include "support/rng.h"
#include "tensor/arena.h"

namespace chimera::comm {
namespace {

TEST(PointToPoint, DeliversByTagRegardlessOfArrivalOrder) {
  World world(2);
  Communicator a(world, 0), b(world, 1);
  Tensor t1(1, 1), t2(1, 1);
  t1[0] = 1.0f;
  t2[0] = 2.0f;
  a.send(1, /*tag=*/200, t2);
  a.send(1, /*tag=*/100, t1);
  EXPECT_FLOAT_EQ(b.recv(0, 100)[0], 1.0f);
  EXPECT_FLOAT_EQ(b.recv(0, 200)[0], 2.0f);
}

TEST(PointToPoint, BlocksUntilMessageArrives) {
  World world(2);
  std::thread sender([&] {
    Communicator a(world, 0);
    Tensor t(1, 3);
    t[0] = 4.0f;
    a.send(1, 7, t);
  });
  Communicator b(world, 1);
  Tensor r = b.recv(0, 7);
  EXPECT_EQ(r.cols(), 3);
  EXPECT_FLOAT_EQ(r[0], 4.0f);
  sender.join();
}

TEST(PointToPoint, CommunicatorForRankOutsideWorldThrows) {
  World world(2);
  EXPECT_THROW(Communicator(world, 2), CheckError);
  EXPECT_THROW(Communicator(world, -1), CheckError);
}

TEST(PointToPoint, RecvFromRankOutsideWorldThrows) {
  World world(2);
  Communicator c(world, 0);
  EXPECT_THROW(c.recv(2, 0), CheckError);
  EXPECT_THROW(c.recv(-1, 0), CheckError);
}

class AllreduceTest : public ::testing::TestWithParam<std::tuple<AllreduceAlgo, int, int>> {};

TEST_P(AllreduceTest, MatchesSumAndAgreesAcrossRanks) {
  const auto [algo, ranks, n] = GetParam();
  World world(ranks);
  std::vector<int> group(ranks);
  for (int i = 0; i < ranks; ++i) group[i] = i;

  std::vector<std::vector<float>> data(ranks);
  std::vector<double> expect(n, 0.0);
  Rng rng(91);
  for (int r = 0; r < ranks; ++r) {
    data[r].resize(n);
    for (int i = 0; i < n; ++i) {
      data[r][i] = static_cast<float>(rng.normal());
      expect[i] += data[r][i];
    }
  }

  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      Communicator c(world, r);
      c.allreduce_sum(data[r].data(), n, group, /*context=*/5, algo);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(data[0][i], expect[i], 1e-4 * ranks) << "element " << i;
  // Bitwise agreement across ranks (replica-consistency prerequisite).
  for (int r = 1; r < ranks; ++r) EXPECT_EQ(data[r], data[0]) << "rank " << r;
}

std::string allreduce_param_name(
    const ::testing::TestParamInfo<std::tuple<AllreduceAlgo, int, int>>& info) {
  std::string name = allreduce_algo_name(std::get<0>(info.param));
  for (auto& ch : name)
    if (ch == '-') ch = '_';
  return name + "_g" + std::to_string(std::get<1>(info.param)) + "_n" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AllreduceTest,
    ::testing::Combine(
        ::testing::Values(AllreduceAlgo::kNaive, AllreduceAlgo::kRing,
                          AllreduceAlgo::kRecursiveDoubling,
                          AllreduceAlgo::kRabenseifner),
        ::testing::Values(2, 3, 4, 7, 8),  // incl. non-power-of-two
        ::testing::Values(1, 5, 64, 1001)),
    allreduce_param_name);

TEST(Allreduce, SubgroupLeavesOthersUntouched) {
  World world(4);
  std::vector<float> a{1.0f}, b{2.0f}, c{100.0f};
  std::thread t0([&] {
    Communicator comm(world, 0);
    comm.allreduce_sum(a.data(), 1, {0, 2}, 1, AllreduceAlgo::kRing);
  });
  std::thread t2([&] {
    Communicator comm(world, 2);
    comm.allreduce_sum(b.data(), 1, {0, 2}, 1, AllreduceAlgo::kRing);
  });
  t0.join();
  t2.join();
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  EXPECT_FLOAT_EQ(b[0], 3.0f);
  EXPECT_FLOAT_EQ(c[0], 100.0f);
}

TEST(Allreduce, IndependentContextsKeepSeparateSequences) {
  // Blocking collectives follow MPI ordering semantics: all group members
  // must enter them in the same order. Different contexts still keep
  // independent tag sequences, so interleaving contexts (in matching order)
  // must not cross results.
  World world(2);
  std::vector<float> x{1.0f}, y{10.0f};
  std::thread t1([&] {
    Communicator c(world, 0);
    c.allreduce_sum(x.data(), 1, {0, 1}, /*context=*/1, AllreduceAlgo::kRing);
    c.allreduce_sum(y.data(), 1, {0, 1}, /*context=*/2, AllreduceAlgo::kRing);
  });
  std::vector<float> x2{2.0f}, y2{20.0f};
  Communicator c(world, 1);
  c.allreduce_sum(x2.data(), 1, {0, 1}, 1, AllreduceAlgo::kRing);
  c.allreduce_sum(y2.data(), 1, {0, 1}, 2, AllreduceAlgo::kRing);
  t1.join();
  EXPECT_FLOAT_EQ(x[0], 3.0f);
  EXPECT_FLOAT_EQ(x2[0], 3.0f);
  EXPECT_FLOAT_EQ(y[0], 30.0f);
  EXPECT_FLOAT_EQ(y2[0], 30.0f);
}

TEST(NonblockingAllreduce, OppositeLaunchOrderCompletes) {
  // The deadlock the blocking ordering contract forbids is legal with
  // nonblocking launches: each collective progresses on its own thread, so
  // ranks may launch independent contexts in any relative order (this is
  // what lets the §3.2 eager sync overlap gradient allreduces freely).
  World world(2);
  std::vector<float> x{1.0f}, y{10.0f};
  std::thread t1([&] {
    Communicator c(world, 0);
    Request rx = c.iallreduce_sum(x.data(), 1, {0, 1}, 1, AllreduceAlgo::kRing);
    Request ry = c.iallreduce_sum(y.data(), 1, {0, 1}, 2, AllreduceAlgo::kRing);
    rx.wait();
    ry.wait();
  });
  std::vector<float> x2{2.0f}, y2{20.0f};
  Communicator c(world, 1);
  Request ry = c.iallreduce_sum(y2.data(), 1, {0, 1}, 2, AllreduceAlgo::kRing);
  Request rx = c.iallreduce_sum(x2.data(), 1, {0, 1}, 1, AllreduceAlgo::kRing);
  ry.wait();
  rx.wait();
  t1.join();
  EXPECT_FLOAT_EQ(x[0], 3.0f);
  EXPECT_FLOAT_EQ(x2[0], 3.0f);
  EXPECT_FLOAT_EQ(y[0], 30.0f);
  EXPECT_FLOAT_EQ(y2[0], 30.0f);
}

TEST(NonblockingAllreduce, MatchesBlockingResult) {
  const int R = 4, n = 257;
  World world(R);
  std::vector<int> group{0, 1, 2, 3};
  std::vector<std::vector<float>> nb(R), bl(R);
  Rng rng(7);
  for (int r = 0; r < R; ++r) {
    nb[r].resize(n);
    for (auto& v : nb[r]) v = static_cast<float>(rng.normal());
    bl[r] = nb[r];
  }
  auto run = [&](std::vector<std::vector<float>>& data, bool nonblocking) {
    std::vector<std::thread> threads;
    for (int r = 0; r < R; ++r) {
      threads.emplace_back([&, r] {
        Communicator c(world, r);
        if (nonblocking) {
          Request req = c.iallreduce_sum(data[r].data(), n, group, 3,
                                         AllreduceAlgo::kRabenseifner);
          req.wait();
        } else {
          c.allreduce_sum(data[r].data(), n, group, 3,
                          AllreduceAlgo::kRabenseifner);
        }
      });
    }
    for (auto& t : threads) t.join();
  };
  run(nb, true);
  run(bl, false);
  for (int r = 0; r < R; ++r) EXPECT_EQ(nb[r], bl[r]) << "rank " << r;
}

TEST(NonblockingAllreduce, ManyOutstandingRequestsDrainInAnyOrder) {
  const int R = 2, kOps = 16;
  World world(R);
  std::vector<std::vector<float>> data(R, std::vector<float>(kOps));
  for (int r = 0; r < R; ++r)
    for (int i = 0; i < kOps; ++i) data[r][i] = static_cast<float>(i + r);
  std::vector<std::thread> threads;
  for (int r = 0; r < R; ++r) {
    threads.emplace_back([&, r] {
      Communicator c(world, r);
      std::vector<Request> reqs;
      for (int i = 0; i < kOps; ++i)
        reqs.push_back(c.iallreduce_sum(&data[r][i], 1, {0, 1}, /*context=*/i,
                                        AllreduceAlgo::kRing));
      // Drain newest-first on rank 0, oldest-first on rank 1.
      if (r == 0)
        for (int i = kOps - 1; i >= 0; --i) reqs[i].wait();
      else
        for (int i = 0; i < kOps; ++i) reqs[i].wait();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kOps; ++i) {
    EXPECT_FLOAT_EQ(data[0][i], static_cast<float>(2 * i + 1)) << i;
    EXPECT_FLOAT_EQ(data[1][i], static_cast<float>(2 * i + 1)) << i;
  }
}

TEST(NonblockingAllreduce, TrivialGroupReturnsCompletedRequest) {
  World world(1);
  Communicator c(world, 0);
  float x = 5.0f;
  Request r = c.iallreduce_sum(&x, 1, {0}, 0, AllreduceAlgo::kRing);
  r.wait();
  EXPECT_FLOAT_EQ(x, 5.0f);
}

// ---- Piecewise flat views ------------------------------------------------

/// Runs `body(rank, communicator)` on one thread per rank of a fresh world
/// whose group is all of it.
template <class Fn>
void run_world(int g, Fn&& body) {
  World world(g);
  std::vector<std::thread> threads;
  for (int r = 0; r < g; ++r)
    threads.emplace_back([&, r] {
      Communicator c(world, r);
      body(r, c);
    });
  for (auto& t : threads) t.join();
}

/// One rank's data split into separately allocated pieces at `bounds`
/// (0 = bounds.front() ≤ ... ≤ bounds.back() = n; a repeated bound is a
/// zero-length piece).
struct Pieces {
  std::vector<std::vector<float>> store;

  Pieces(const std::vector<float>& flat, const std::vector<std::size_t>& bounds) {
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k)
      store.emplace_back(flat.begin() + bounds[k], flat.begin() + bounds[k + 1]);
  }
  FlatView view() {
    FlatView v;
    for (auto& piece : store) v.append(piece.data(), piece.size());
    return v;
  }
  std::vector<float> flat() const {
    std::vector<float> out;
    for (const auto& piece : store) out.insert(out.end(), piece.begin(), piece.end());
    return out;
  }
};

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Piece layouts of [0, n) for a group of g: cuts doubled on every segment
/// bound (zero-length pieces there, and at both ends), cuts one past every
/// bound (boundaries inside segments), one piece per element, and random
/// cuts with repeats.
std::vector<std::vector<std::size_t>> layouts(std::size_t n, int g) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> on{0}, inside{0}, each{0}, random{0};
  for (int i = 0; i <= g; ++i) {
    on.push_back(segment_begin(n, g, i));
    on.push_back(segment_begin(n, g, i));
    inside.push_back(std::min(n, segment_begin(n, g, i) + 1));
  }
  for (std::size_t i = 1; i <= n; ++i) each.push_back(i);
  Rng rng(n * 31 + static_cast<std::size_t>(g));
  for (int k = 0; k < 5; ++k) random.push_back(rng.next_below(n + 1));
  for (auto* b : {&on, &inside, &each, &random}) {
    b->push_back(n);
    std::sort(b->begin(), b->end());
    out.push_back(*b);
  }
  return out;
}

std::vector<std::vector<float>> rank_inputs(int g, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(g, std::vector<float>(n));
  for (auto& row : data)
    for (auto& v : row) v = static_cast<float>(rng.normal());
  return data;
}

class FlatViewAllreduce
    : public ::testing::TestWithParam<std::tuple<AllreduceAlgo, int, bool>> {};

TEST_P(FlatViewAllreduce, MultiPieceViewBitwiseMatchesContiguous) {
  const auto [algo, g, nonblocking] = GetParam();
  std::vector<int> group(g);
  for (int i = 0; i < g; ++i) group[i] = i;
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{11},
                        std::size_t{100}}) {
    const auto inputs = rank_inputs(g, n, 40 + n);
    auto contiguous = inputs;
    run_world(g, [&](int r, Communicator& c) {
      c.allreduce_sum(contiguous[r].data(), n, group, 1, algo);
    });
    for (const auto& bounds : layouts(n, g)) {
      std::vector<Pieces> pieces;
      for (int r = 0; r < g; ++r) pieces.emplace_back(inputs[r], bounds);
      run_world(g, [&](int r, Communicator& c) {
        if (nonblocking)
          c.iallreduce_sum(pieces[r].view(), group, 1, algo).wait();
        else
          c.allreduce_sum(pieces[r].view(), group, 1, algo);
      });
      for (int r = 0; r < g; ++r)
        EXPECT_TRUE(same_bits(pieces[r].flat(), contiguous[r]))
            << "n " << n << " rank " << r << " pieces " << bounds.size() - 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryAlgoAndGroupSize, FlatViewAllreduce,
    ::testing::Combine(
        ::testing::Values(AllreduceAlgo::kNaive, AllreduceAlgo::kRing,
                          AllreduceAlgo::kRecursiveDoubling,
                          AllreduceAlgo::kRabenseifner),
        ::testing::Range(1, 7), ::testing::Bool()),
    [](const auto& info) {
      std::string name = allreduce_algo_name(std::get<0>(info.param));
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_g" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_nonblocking" : "_blocking");
    });

/// The sharded optimizer step's pair: the reduce-scatter hands this rank's
/// segment over as a message (blocking or not), which is unpacked home and
/// forwarded by the allgather as its own. `view` ends as the allreduce.
Tensor segment_pair(Communicator& c, const FlatView& view,
                    const std::vector<int>& group, int index, bool nonblocking) {
  Tensor own;
  if (nonblocking)
    c.ireduce_scatter_segment(view, group, 2, &own).wait();
  else
    own = c.reduce_scatter_segment(view, group, 2);
  Tensor segment = own;
  view.unpack(segment_begin(view.size(), static_cast<int>(group.size()), index),
              own);
  c.allgather(view, group, 3, std::move(own));
  return segment;
}

/// Rank index's segment of a reduced buffer.
std::vector<float> segment_of(const std::vector<float>& v, int g, int index) {
  return {v.begin() + segment_begin(v.size(), g, index),
          v.begin() + segment_begin(v.size(), g, index + 1)};
}

std::vector<float> floats_of(const Tensor& t) {
  return {t.data(), t.data() + t.numel()};
}

TEST(FlatView, ReduceScatterAndAllgatherBitwiseMatchContiguous) {
  for (int g = 1; g <= 6; ++g) {
    std::vector<int> group(g);
    for (int i = 0; i < g; ++i) group[i] = i;
    for (std::size_t n : {std::size_t{2}, std::size_t{13}, std::size_t{64}}) {
      const auto inputs = rank_inputs(g, n, 70 + n);
      auto contiguous = inputs;
      run_world(g, [&](int r, Communicator& c) {
        c.allreduce_sum(contiguous[r].data(), n, group, 1, AllreduceAlgo::kRing);
      });
      for (const auto& bounds : layouts(n, g)) {
        std::vector<Pieces> pieces;
        for (int r = 0; r < g; ++r) pieces.emplace_back(inputs[r], bounds);
        std::vector<std::vector<float>> segments(g);
        run_world(g, [&](int r, Communicator& c) {
          segments[r] = floats_of(
              segment_pair(c, pieces[r].view(), group, r, r % 2 == 1));
        });
        for (int r = 0; r < g; ++r) {
          EXPECT_TRUE(same_bits(segments[r], segment_of(contiguous[r], g, r)))
              << "segment g " << g << " n " << n << " rank " << r;
          EXPECT_TRUE(same_bits(pieces[r].flat(), contiguous[r]))
              << "g " << g << " n " << n << " rank " << r;
        }
      }
    }
  }
}

TEST(FlatView, SegmentRoundsKeepTheCallersArenaBalanced) {
  // The sharded step's pair: the reduce-scatter hands a segment message
  // back to the rank thread, whose allgather forwards it and parks the last
  // message it receives there. Packing the reduce-scatter's first send on
  // that same thread must reuse the parked buffer, so the thread's parked
  // storage stays flat round after round instead of growing to the arena's
  // cap (a peak-RSS leak of one segment per stage per iteration).
  constexpr int kRanks = 4;
  constexpr std::size_t kN = 4096;  // segments far above the recycled floor
  std::vector<int> group(kRanks);
  for (int r = 0; r < kRanks; ++r) group[r] = r;
  std::vector<std::size_t> early(kRanks), late(kRanks);
  run_world(kRanks, [&](int r, Communicator& c) {
    std::vector<float> data(kN, 1.0f);
    const FlatView view(data.data(), kN);
    for (int round = 0; round < 12; ++round) {
      Tensor own;
      if (round % 2 == 0)
        c.ireduce_scatter_segment(view, group, 4, &own).wait();
      else
        own = c.reduce_scatter_segment(view, group, 4);
      c.allgather(view, group, 5, std::move(own));
      if (round == 1) early[r] = detail::arena_parked();
    }
    late[r] = detail::arena_parked();
  });
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(late[r], early[r]) << "rank " << r;
}

TEST(FlatView, PrimitivesAddressPiecesAsOneIndexSpace) {
  std::vector<float> a{1, 2}, b{}, c{3, 4, 5};
  FlatView v;
  v.append(a.data(), a.size());
  v.append(b.data(), b.size());
  v.append(c.data(), c.size());
  ASSERT_EQ(v.size(), 5u);
  Tensor msg = v.pack(1, 4);
  ASSERT_EQ(msg.numel(), 3u);
  EXPECT_EQ(std::vector<float>(msg.data(), msg.data() + 3),
            (std::vector<float>{2, 3, 4}));
  v.add(1, msg);  // [1, 4, 6, 8, 5]
  v.add_to(2, msg);  // msg = [2+6, 3+8, 4+5]
  EXPECT_EQ(std::vector<float>(msg.data(), msg.data() + 3),
            (std::vector<float>{8, 11, 9}));
  v.unpack(2, msg);  // [1, 4, 8, 11, 9]
  EXPECT_EQ(a, (std::vector<float>{1, 4}));
  EXPECT_EQ(c, (std::vector<float>{8, 11, 9}));
  EXPECT_EQ(v.pack(5, 5).numel(), 0u);
}

}  // namespace
}  // namespace chimera::comm
