// Hierarchical-interconnect tests: node placement arithmetic, link selection
// in the cost model, the two-level allreduce decomposition, and the effect
// on simulated pipelines (intra-node stages must beat cross-node stages).
#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "sim/simulate.h"

namespace chimera {
namespace {

TEST(Topology, SameNodePredicate) {
  MachineSpec m = MachineSpec::v100_cluster();
  ASSERT_EQ(m.node_size, 8);
  EXPECT_TRUE(m.same_node(0, 7));
  EXPECT_FALSE(m.same_node(7, 8));
  EXPECT_TRUE(m.same_node(8, 15));
  EXPECT_FALSE(m.same_node(0, 31));

  MachineSpec flat = MachineSpec::piz_daint();
  EXPECT_FALSE(flat.same_node(0, 1));  // one GPU per node: never intra
}

TEST(Topology, IntraNodeLinkIsFaster) {
  const MachineSpec m = MachineSpec::v100_cluster();
  const double bytes = 1 << 20;
  EXPECT_LT(m.p2p_seconds(bytes, /*intra_node=*/true),
            m.p2p_seconds(bytes, /*intra_node=*/false));
  // Flat machines ignore the flag.
  const MachineSpec flat = MachineSpec::piz_daint();
  EXPECT_DOUBLE_EQ(flat.p2p_seconds(bytes, true), flat.p2p_seconds(bytes, false));
}

TEST(Topology, TwoLevelAllreduceTradeoff) {
  const MachineSpec m = MachineSpec::v100_cluster();
  MachineSpec flat = m;
  flat.node_size = 0;  // force everything onto the inter-node fabric
  // Latency-dominated payloads: the two-level decomposition wins because the
  // inter-node phase shrinks from 32 to 4 participants.
  for (int r : {16, 32}) {
    EXPECT_LT(m.allreduce_seconds(r, 4096.0),
              flat.allreduce_seconds(r, 4096.0))
        << r << " replicas";
  }
  // Bandwidth-dominated payloads move the data twice (intra + inter); with
  // NVLink only ~2× faster than IB under a GLOO-era stack, the hierarchy is
  // honest about not helping there.
  EXPECT_GT(m.allreduce_seconds(32, 64.0e6), 0.0);
  // Within one node the two-level model degenerates to the flat formula.
  EXPECT_DOUBLE_EQ(m.allreduce_seconds(4, 4096.0),
                   flat.allreduce_seconds(4, 4096.0));
}

TEST(Topology, AllreduceMonotoneInReplicas) {
  const MachineSpec m = MachineSpec::v100_cluster();
  const double bytes = 1.0e7;
  double prev = 0.0;
  for (int r : {1, 2, 8, 16, 32}) {
    const double t = m.allreduce_seconds(r, bytes);
    EXPECT_GE(t, prev) << r;
    prev = t;
  }
}

TEST(Topology, EngineBillsIntraNodeTransfersCheaper) {
  // Two identical 8-deep pipelines; one fits in a node, one straddles two
  // 4-GPU nodes. The straddling one pays inter-node α–β on the boundary.
  const PipelineSchedule s =
      build_schedule(Scheme::kOneF1B, {8, 8, 1, ScaleMethod::kDirect});
  ReplayCosts costs;
  costs.forward_by_stage.assign(8, 1e-3);
  costs.backward_by_stage.assign(8, 1e-3 * 2.0);
  costs.network = ReplayCosts::Network{};
  costs.network->boundary_bytes = 4.0e6;
  costs.network->alpha = 25e-6;
  costs.network->beta = 1.0 / 1.0e9;  // slow fabric: 4 ms per boundary
  const ReplayResult cross = replay(s, costs);
  costs.network->node_size = 8;  // now all 8 workers share a node
  costs.network->intra_alpha = 1e-6;
  costs.network->intra_beta = 1.0 / 50.0e9;
  const ReplayResult intra = replay(s, costs);
  EXPECT_LT(intra.makespan, cross.makespan);
}

TEST(Topology, SimulateV100PrefersShallowIntraNodePipelines) {
  // On the V100 cluster, D=8 keeps all p2p inside a server; the same work
  // with D=16 crosses Infiniband and pays for it.
  const ModelSpec model = ModelSpec::bert48(512);
  const MachineSpec m = MachineSpec::v100_cluster();
  ExecConfig d8{Scheme::kChimera, 4, 8, 4, 256};
  ExecConfig d16{Scheme::kChimera, 2, 16, 4, 256};
  const sim::SimResult r8 = sim::simulate(d8, model, m);
  const sim::SimResult r16 = sim::simulate(d16, model, m);
  ASSERT_TRUE(r8.feasible);
  ASSERT_TRUE(r16.feasible);
  EXPECT_GT(r8.throughput, r16.throughput);
}

}  // namespace
}  // namespace chimera
