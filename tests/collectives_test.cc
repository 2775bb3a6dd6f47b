// Collective tests beyond allreduce itself: the ring reduce-scatter/allgather
// pair of the sharded optimizer step (`reduce_scatter_segment` /
// `ireduce_scatter_segment` + `allgather(…, own)`), checked bit for bit
// against the ring allreduce across group sizes (including non-power-of-two
// and non-contiguous subgroups) and payload sizes (including payloads smaller
// than the group, which exercise empty ring segments); the segment bounds
// they share; and disjoint groups running at once.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "comm/world.h"
#include "support/rng.h"

namespace chimera::comm {
namespace {

/// Runs `body(rank_in_group, communicator)` on one thread per group member.
void run_group(World& world, const std::vector<int>& group,
               const std::function<void(int, Communicator&)>& body) {
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < group.size(); ++i) {
    threads.emplace_back([&, i] {
      Communicator c(world, group[i]);
      body(static_cast<int>(i), c);
    });
  }
  for (auto& t : threads) t.join();
}

std::vector<std::vector<float>> random_inputs(int g, int n, unsigned seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(g, std::vector<float>(n));
  for (auto& row : data)
    for (auto& v : row) v = static_cast<float>(rng.normal());
  return data;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class GroupedCollective : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int group_size() const { return std::get<0>(GetParam()); }
  int payload() const { return std::get<1>(GetParam()); }
  /// A non-contiguous group inside a larger world (stride 2 then offset),
  /// so tests also cover rank↔index translation.
  std::vector<int> make_group() const {
    std::vector<int> g(group_size());
    for (int i = 0; i < group_size(); ++i) g[i] = 1 + 2 * i;
    return g;
  }
  int world_size() const { return 2 * group_size() + 1; }
};

TEST_P(GroupedCollective, SegmentPairBitwiseMatchesRingAllreduce) {
  // The reduce-scatter hands each member's segment over as a message
  // (blocking or not), which is unpacked home and forwarded by the allgather
  // as its own; the buffer then ends as the ring allreduce, bit for bit.
  const int g = group_size(), n = payload();
  World world(world_size());
  const auto group = make_group();
  const auto inputs = random_inputs(g, n, 700 + n);
  auto reference = inputs;
  run_group(world, group, [&](int i, Communicator& c) {
    c.allreduce_sum(reference[i].data(), n, group, 1, AllreduceAlgo::kRing);
  });
  for (bool nonblocking : {false, true}) {
    auto data = inputs;
    std::vector<std::vector<float>> segments(g);
    run_group(world, group, [&](int i, Communicator& c) {
      const FlatView view(data[i].data(), n);
      Tensor own;
      if (nonblocking)
        c.ireduce_scatter_segment(view, group, 2, &own).wait();
      else
        own = c.reduce_scatter_segment(view, group, 2);
      segments[i].assign(own.data(), own.data() + own.numel());
      view.unpack(segment_begin(n, g, i), own);
      c.allgather(view, group, 3, std::move(own));
    });
    for (int i = 0; i < g; ++i) {
      const std::vector<float> expect(
          reference[i].begin() + segment_begin(n, g, i),
          reference[i].begin() + segment_begin(n, g, i + 1));
      EXPECT_TRUE(same_bits(segments[i], expect))
          << "segment of member " << i << (nonblocking ? " nonblocking" : "");
      EXPECT_TRUE(same_bits(data[i], reference[i]))
          << "member " << i << (nonblocking ? " nonblocking" : "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPayloads, GroupedCollective,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 8),
                       ::testing::Values(1, 3, 64, 513)),
    [](const auto& info) {
      return "g" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Collectives, SegmentBoundsCoverExactly) {
  for (int g : {1, 2, 3, 7, 8}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{1000}}) {
      EXPECT_EQ(segment_begin(n, g, 0), 0u);
      EXPECT_EQ(segment_begin(n, g, g), n);
      for (int i = 0; i < g; ++i)
        EXPECT_LE(segment_begin(n, g, i), segment_begin(n, g, i + 1));
    }
  }
}

TEST(Collectives, ConcurrentDisjointGroupsDoNotInterfere) {
  // Two disjoint halves of the world run different collectives at the same
  // time — the fabric must keep them fully independent. The second half
  // mixes blocking and nonblocking launches of one ring allreduce.
  World world(8);
  std::vector<int> a{0, 1, 2, 3}, b{4, 5, 6, 7};
  std::vector<float> va{1, 2, 3, 4}, vb{10, 20, 30, 40};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      Communicator c(world, a[i]);
      c.allreduce_sum(&va[i], 1, a, 0, AllreduceAlgo::kRecursiveDoubling);
    });
    threads.emplace_back([&, i] {
      Communicator c(world, b[i]);
      if (i % 2 == 0)
        c.allreduce_sum(&vb[i], 1, b, 0, AllreduceAlgo::kRing);
      else
        c.iallreduce_sum(&vb[i], 1, b, 0, AllreduceAlgo::kRing).wait();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(va[i], 10.0f);
    EXPECT_FLOAT_EQ(vb[i], 100.0f);
  }
}

}  // namespace
}  // namespace chimera::comm
