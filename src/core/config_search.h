// Configuration selection (paper §3.4 and §4.2).
//
// Baselines must sweep the whole (W, D, B) space because of the bubble vs
// computational-efficiency trade-off (Fig. 10/11). Chimera greatly
// alleviates the bubble problem, so it greedily picks the maximum
// micro-batch size B that fits device memory and only uses the performance
// model to choose (W, D) — a much smaller tuning space (§3.4).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/exec_config.h"
#include "core/model_spec.h"

namespace chimera {

struct Candidate {
  ExecConfig cfg;
  double throughput = 0.0;  ///< sequences/s under the evaluator
  bool recompute = false;
  bool feasible = false;
  std::string note;
};

struct SearchResult {
  Candidate best;
  std::vector<Candidate> all;  ///< every evaluated point (for Fig. 10/11)
};

/// Throughput evaluator: sequences/s for a (feasible) config. Benches plug
/// in either the performance model or the simulator.
using Evaluator = std::function<double(const ExecConfig&, bool recompute)>;

/// The partition planners in the default tuning space: the paper-faithful
/// even split plus both cost-balanced planners (core/partition.h).
const std::vector<PartitionPolicy>& all_partition_policies();

/// Full sweep for one scheme over D ∈ powers of two dividing P (W = P/D),
/// B ∈ powers of two up to `max_B`, and the given partition policies.
/// PipeDream's B̂ is fixed at B·W; all other schemes use `minibatch`.
/// Infeasible points (memory, divisibility, depth > layers) are recorded
/// with feasible=false.
SearchResult sweep_configs(
    Scheme scheme, const ModelSpec& model, const MachineSpec& machine, int P,
    long minibatch, int max_B, const Evaluator& eval,
    const std::vector<PartitionPolicy>& policies = all_partition_policies());

/// Chimera's greedy strategy: for each (W, D, partition policy) pick the
/// maximum power-of-two B that fits without recomputation under that
/// policy's planned split (falling back to the largest B that fits with
/// recomputation), then rank candidates by the evaluator.
SearchResult chimera_greedy_search(
    const ModelSpec& model, const MachineSpec& machine, int P, long minibatch,
    int max_B, const Evaluator& eval, int pipes_f = 1,
    ScaleMethod scale = ScaleMethod::kDirect,
    const std::vector<PartitionPolicy>& policies = all_partition_policies());

/// Candidate depths: powers of two d with d | P, d ≤ layers, d ≤ P.
std::vector<int> candidate_depths(int P, int layers);

}  // namespace chimera
