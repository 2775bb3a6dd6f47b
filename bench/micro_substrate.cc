// Substrate microbenchmarks (google-benchmark): GEMM kernels, allreduce
// algorithms over the thread fabric, schedule construction, plan lowering
// and the costed plan executor.
#include <benchmark/benchmark.h>

#include <thread>

#include "comm/world.h"
#include "core/execution_plan.h"
#include "core/sync_placement.h"
#include "tensor/kernels.h"

namespace chimera {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a(n, n), b(n, n), c(n, n);
  a.randn(rng, 1.0f);
  b.randn(rng, 1.0f);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Allreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto algo = static_cast<comm::AllreduceAlgo>(state.range(2));
  std::vector<int> group(ranks);
  for (int i = 0; i < ranks; ++i) group[i] = i;
  for (auto _ : state) {
    comm::World world(ranks);
    std::vector<std::vector<float>> data(ranks, std::vector<float>(n, 1.0f));
    std::vector<std::thread> threads;
    for (int r = 0; r < ranks; ++r)
      threads.emplace_back([&, r] {
        comm::Communicator c(world, r);
        c.allreduce_sum(data[r].data(), n, group, 1, algo);
      });
    for (auto& t : threads) t.join();
    benchmark::DoNotOptimize(data[0][0]);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long>(n) * 4 * ranks);
}
BENCHMARK(BM_Allreduce)
    ->Args({4, 1 << 16, static_cast<long>(comm::AllreduceAlgo::kRing)})
    ->Args({4, 1 << 16, static_cast<long>(comm::AllreduceAlgo::kRabenseifner)})
    ->Args({8, 1 << 16, static_cast<long>(comm::AllreduceAlgo::kRing)})
    ->Args({8, 1 << 16, static_cast<long>(comm::AllreduceAlgo::kRabenseifner)});

void BM_BuildChimeraSchedule(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PipelineSchedule s =
        build_schedule(Scheme::kChimera, ScheduleConfig{D, 4 * D, 1, ScaleMethod::kDirect});
    benchmark::DoNotOptimize(s.worker_ops.data());
  }
}
BENCHMARK(BM_BuildChimeraSchedule)->Arg(8)->Arg(32);

void BM_LowerPlan(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  PipelineSchedule s =
      build_schedule(Scheme::kChimera, ScheduleConfig{D, 4 * D, 1, ScaleMethod::kDirect});
  for (auto _ : state) {
    ExecutionPlan plan(s);
    benchmark::DoNotOptimize(&plan.worker_plan(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s.total_ops()));
}
BENCHMARK(BM_LowerPlan)->Arg(8)->Arg(32);

/// The executor alone on a prebuilt plan: Chimera at-end, N = D, without a
/// network (scan order) and with one (time order; links and collectives
/// queue).
void BM_PlanExecutor(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const bool contended = state.range(1) != 0;
  const PipelineSchedule s = with_gradient_sync(
      build_schedule(Scheme::kChimera, {D, D, 1, ScaleMethod::kDirect}),
      SyncPolicy::kAtEnd);
  const ExecutionPlan plan(s);
  ReplayCosts costs;
  costs.allreduce = 1.5;
  if (contended)
    costs.network = ReplayCosts::Network{.alpha = 0.05, .beta = 1e-3,
                                         .boundary_bytes = 400.0};
  for (auto _ : state) {
    ReplayResult r = replay(plan, costs);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(s.total_ops()));
}
BENCHMARK(BM_PlanExecutor)->ArgsProduct({{8, 32}, {0, 1}});

}  // namespace
}  // namespace chimera

BENCHMARK_MAIN();
