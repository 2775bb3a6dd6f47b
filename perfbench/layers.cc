// Per-layer probes of the traced run. probe_modules times calls into each
// module's public functions at the workload's shape; probe_trace reads the
// engine's recorded obs spans. README.md maps each metric to the end-to-end
// metric it should move.
#include <algorithm>
#include <barrier>
#include <memory>
#include <thread>

#include "common.h"
#include "comm/world.h"
#include "core/decode_schedule.h"
#include "core/execution_plan.h"
#include "core/inference_schedule.h"
#include "nn/kv_cache.h"
#include "obs/report.h"
#include "optim/optimizer.h"
#include "runtime/trainer.h"
#include "runtime/worker_pool.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"

namespace perfbench {
namespace {

using namespace chimera;

constexpr int kReps = 5;

Tensor random_tensor(Rng& rng, int rows, int cols) {
  Tensor t(rows, cols);
  t.randn(rng, 0.02f);
  return t;
}

/// Records the GFLOP/s of C[m,n] = A[m,k]·B[k,n] as metric `name`.
void gemm_gflops(Rng& rng, const char* name, int m, int k, int n, Report& r) {
  const Tensor a = random_tensor(rng, m, k), b = random_tensor(rng, k, n);
  Tensor c(m, n);
  const double us = median_call_us([&] { gemm(a, b, c); }, 20);
  r.layer(name, 2.0 * m * k * n / us / 1e3, "GFLOP/s",
          "[" + std::to_string(m) + "," + std::to_string(k) + "]x[" +
              std::to_string(k) + "," + std::to_string(n) + "]");
}

PipelineSchedule deployment_schedule(const LayerShape& sh) {
  const ScheduleConfig sc{sh.depth, sh.num_micro, 1, ScaleMethod::kDirect};
  switch (sh.plan) {
    case LayerShape::Plan::kTraining:
      return with_gradient_sync(build_schedule(Scheme::kChimera, sc), sh.sync);
    case LayerShape::Plan::kInference:
      return build_inference_schedule(Scheme::kChimera, sc);
    case LayerShape::Plan::kDecode:
      break;
  }
  return build_decode_schedule(Scheme::kChimera, sc);
}

nn::MicroBatch token_batch(Rng& rng, const nn::SmallModelConfig& m, int batch,
                           int seq) {
  nn::MicroBatch mb;
  mb.batch = batch;
  mb.seq = seq;
  for (int i = 0; i < batch * seq; ++i) {
    const int t = static_cast<int>(rng.next_below(m.vocab));
    mb.tokens.push_back(t);
    mb.targets.push_back((t + 1) % m.vocab);
  }
  return mb;
}

std::string stage_name(const char* prefix, int s) {
  return std::string(prefix) + ".s" + std::to_string(s);
}

void probe_stages(Rng& rng, const LayerShape& sh,
                  std::vector<std::unique_ptr<nn::StageModule>>& stages,
                  Report& r) {
  const nn::SmallModelConfig& m = sh.model;
  const int D = sh.depth;
  const nn::MicroBatch mb = token_batch(rng, m, sh.micro_batch, m.seq);
  const std::string n = "median of >=" + std::to_string(kReps);

  // Forward / backward (Chimera's Cf / Cb) and infer, stage by stage: each
  // stage's input is the previous stage's output.
  Tensor x;
  for (int s = 0; s < D; ++s) {
    nn::StageModule& st = *stages[s];
    std::vector<double> fwd, bwd;
    Tensor y;
    for (int i = 0; i < kReps; ++i) {
      const double t0 = wall_us();
      y = st.forward(mb, x, 0);
      const double t1 = wall_us();
      Tensor g(y.rows(), y.cols());
      g.fill(1e-3f);
      const double t2 = wall_us();
      (void)st.backward(mb, g, 0, 1.0f);
      bwd.push_back((wall_us() - t2) / 1e3);
      fwd.push_back((t1 - t0) / 1e3);
    }
    st.zero_grads();
    r.layer(stage_name("nn.fwd_ms", s), median(fwd), "ms", n);
    r.layer(stage_name("nn.bwd_ms", s), median(bwd), "ms", n);
    r.layer(stage_name("nn.infer_ms", s),
            median_call_us([&] { (void)st.infer(mb, x); }, kReps) / 1e3, "ms",
            n);
    x = std::move(y);
  }

  // Prefill of one chat and one doc prompt through every stage, and one
  // decode step over `lanes` sessions per stage at a mid-length context.
  const int page = 16;
  const int pages = nn::PagedKvCache::pages_for(m.seq, page);
  auto make_cache = [&](int s, int sessions) {
    return std::make_unique<nn::PagedKvCache>(
        stages[s]->layer_range().size(), sessions, m.seq, m.hidden, page,
        sessions * pages);
  };
  auto prefill_ms = [&](int len) {
    const nn::MicroBatch p = token_batch(rng, m, 1, len);
    std::vector<double> t;
    for (int i = 0; i < kReps; ++i) {
      double sum = 0.0;
      Tensor in;
      for (int s = 0; s < D; ++s) {
        auto cache = make_cache(s, 1);
        cache->claim(0);
        cache->ensure_writable(0, 0, len);
        const double t0 = wall_us();
        in = stages[s]->prefill(p, in, *cache, 0);
        sum += wall_us() - t0;
      }
      t.push_back(sum / 1e3);
    }
    return median(t);
  };
  const int chat = std::min(m.seq, (kChatPromptMin + kChatPromptMax) / 2);
  const int doc =
      std::min(m.seq, kDocPrefix + (kDocSuffixMin + kDocSuffixMax) / 2);
  r.layer("nn.prefill_ms.chat", prefill_ms(chat), "ms",
          n + ", " + std::to_string(chat) + " tokens, all stages");
  r.layer("nn.prefill_ms.doc", prefill_ms(doc), "ms",
          n + ", " + std::to_string(doc) + " tokens, all stages");

  const int ctx = m.seq / 2;
  const nn::MicroBatch prompt = token_batch(rng, m, 1, ctx);
  std::vector<int> tokens, slots, positions(sh.lanes, ctx);
  for (int l = 0; l < sh.lanes; ++l) {
    tokens.push_back(static_cast<int>(rng.next_below(m.vocab)));
    slots.push_back(l);
  }
  Tensor in_prefill, in_step;
  for (int s = 0; s < D; ++s) {
    auto cache = make_cache(s, sh.lanes);
    Tensor out_prefill;
    for (int l = 0; l < sh.lanes; ++l) {
      cache->claim(l);
      cache->ensure_writable(l, 0, ctx + 1);
      out_prefill = stages[s]->prefill(prompt, in_prefill, *cache, l);
    }
    Tensor out_step;
    const double us = median_call_us(
        [&] {
          out_step = stages[s]->decode_step(tokens, slots, positions, in_step,
                                            *cache);
        },
        20);
    r.layer(stage_name("nn.decode_step_ms", s), us / 1e3, "ms",
            std::to_string(sh.lanes) + " rows, ctx " + std::to_string(ctx));
    in_prefill = std::move(out_prefill);
    in_step = std::move(out_step);
  }
}

/// Ranks 0..3 of one World run `body(rank, comm)` `reps` times on their own
/// threads (rank 0 on the caller), starting each repetition together.
template <typename Body>
void on_four_ranks(int reps, Body body) {
  comm::World world(4);
  std::barrier sync(4);
  auto rank_main = [&](int rank) {
    comm::Communicator c(world, rank);
    for (int i = 0; i < reps; ++i) {
      sync.arrive_and_wait();
      body(rank, c);
    }
  };
  std::vector<std::thread> others;
  for (int rank = 1; rank < 4; ++rank) others.emplace_back(rank_main, rank);
  rank_main(0);
  for (std::thread& t : others) t.join();
}

void probe_comm(Rng& rng, const LayerShape& sh, std::size_t bucket,
                Report& r) {
  const int rows = sh.micro_batch * sh.model.seq;
  // p2p: one-way latency of an activation-sized transfer, half a ping-pong.
  {
    comm::World world(2);
    const int reps = 400;
    std::thread peer([&] {
      comm::Communicator c(world, 1);
      for (int i = 0; i < reps; ++i) c.send(0, 2 * i + 1, c.recv(0, 2 * i));
    });
    comm::Communicator c(world, 0);
    Tensor payload = random_tensor(rng, rows, sh.model.hidden);
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
      const double t0 = wall_us();
      c.send(1, 2 * i, std::move(payload));
      payload = c.recv(1, 2 * i + 1);
      t.push_back((wall_us() - t0) / 2);
    }
    peer.join();
    r.layer("comm.p2p_us", median(t), "us",
            count_note(t.size()) + " round trips / 2");
  }
  // Blocking ring allreduce of the largest stage's gradient bucket over 2
  // and 4 ranks, and the launch cost of the nonblocking form.
  const int reps = 15;
  std::vector<double> g2, g4, launch;
  on_four_ranks(reps, [&](int rank, comm::Communicator& c) {
    std::vector<float> buf(bucket, 1.0f);
    const double t0 = wall_us();
    c.allreduce_sum(buf.data(), buf.size(), {0, 1, 2, 3}, 1);
    if (rank == 0) g4.push_back((wall_us() - t0) / 1e3);
    if (rank < 2) {
      const double t1 = wall_us();
      c.allreduce_sum(buf.data(), buf.size(), {0, 1}, 2);
      if (rank == 0) g2.push_back((wall_us() - t1) / 1e3);
      const double t2 = wall_us();
      comm::Request q = c.iallreduce_sum(buf.data(), buf.size(), {0, 1}, 3);
      if (rank == 0) launch.push_back(wall_us() - t2);
      q.wait();
    }
  });
  const std::string n = count_note(reps) + ", " +
                        std::to_string(bucket) + " floats";
  r.layer("comm.allreduce_ms.g2", median(g2), "ms", n);
  r.layer("comm.allreduce_ms.g4", median(g4), "ms", n);
  r.layer("comm.iallreduce_launch_us", median(launch), "us", n);
}

}  // namespace

void probe_modules(const LayerShape& sh, Report& r) {
  ComputePool::instance().set_helpers(0);
  set_kernel_policy(KernelPolicy::kFast);
  Rng rng(2024);
  const nn::SmallModelConfig& m = sh.model;
  const int rows = sh.micro_batch * m.seq;

  gemm_gflops(rng, "tensor.gemm_gflops.mlp", rows, m.hidden, 4 * m.hidden, r);
  gemm_gflops(rng, "tensor.gemm_gflops.head", rows, m.hidden, m.vocab, r);
  gemm_gflops(rng, "tensor.gemm_gflops.decode", sh.lanes, m.hidden,
              4 * m.hidden, r);

  const Partition part =
      rt::runtime_partition(m, sh.depth, PartitionPolicy::kEven);
  std::vector<std::unique_ptr<nn::StageModule>> stages;
  std::size_t bucket = 0;
  std::vector<nn::Param*> params;
  for (int s = 0; s < sh.depth; ++s) {
    stages.push_back(
        std::make_unique<nn::StageModule>(m, s, sh.depth, part.range(s)));
    bucket = std::max(bucket, static_cast<std::size_t>(part.stage_params(s)));
    for (nn::Param* p : stages.back()->params()) params.push_back(p);
  }
  probe_stages(rng, sh, stages, r);
  probe_comm(rng, sh, bucket, r);

  {
    optim::Optimizer opt(params, sh.optimizer);
    r.layer("optim.step_ms",
            median_call_us([&] { opt.step(); }, kReps) / 1e3, "ms",
            std::string(optim::rule_name(sh.optimizer.rule)) + ", all stages");
  }
  {
    rt::WorkerPool pool(sh.depth * sh.data_parallel);
    r.layer("runtime.pool_dispatch_us",
            median_call_us([&] { pool.run([](int) {}); }, 200), "us",
            std::to_string(pool.ranks()) + " ranks, empty job");
  }
  const double plan_us = median_call_us(
      [&] { const ExecutionPlan plan(deployment_schedule(sh)); }, kReps);
  r.layer("core.plan_build_ms", plan_us / 1e3, "ms",
          "schedule + ExecutionPlan");
}

void probe_trace(const obs::TraceDoc& doc, const LayerShape& sh, Report& r) {
  const obs::TraceReport rep = obs::analyze_trace(doc);
  for (std::size_t w = 0; w < rep.workers.size() && w < 4; ++w)
    r.layer("runtime.bubble_share.w" + std::to_string(w),
            rep.workers[w].bubble_fraction, "share", "measured");
  r.layer("runtime.bubble_share_predicted",
          rep.has_prediction ? rep.predicted_bubble_ratio : 0.0, "share",
          rep.has_prediction ? "replay of measured stage costs"
                             : "no prediction for this workload");
  if (rep.iterations <= 0) return;

  // Training traces: per-iteration collective count and bytes, and the time
  // ranks spent blocked completing gradient allreduces.
  const Partition part =
      rt::runtime_partition(sh.model, sh.depth, PartitionPolicy::kEven);
  const double act_bytes =
      4.0 * sh.micro_batch * sh.model.seq * sh.model.hidden;
  double bytes = 0.0, collectives = 0.0, wait_us = 0.0;
  for (const obs::TraceEvent& ev : doc.events) {
    if (ev.kind == obs::EventKind::kSend) bytes += act_bytes;
    if (ev.kind == obs::EventKind::kAllReduceBegin) {
      collectives += 1;
      bytes += 4.0 * static_cast<double>(part.stage_params(ev.stage));
    }
    if (ev.kind == obs::EventKind::kAllReduceWait)
      wait_us += ev.t1_us - ev.t0_us;
  }
  const double it = rep.iterations;
  const std::string n = std::to_string(rep.iterations) + " traced iterations";
  r.layer("comm.bytes_per_iter", bytes / it, "bytes", n + ", p2p + allreduce");
  r.layer("comm.collectives_per_iter", collectives / it, "count", n);
  r.layer("runtime.sync_wait_ms",
          wait_us / it / static_cast<double>(rep.workers.size()) / 1e3, "ms",
          n + ", per rank");
}

obs::TraceMeta trace_meta(const LayerShape& sh) {
  obs::TraceMeta m;
  const bool training = sh.plan == LayerShape::Plan::kTraining;
  m.workload = training ? "training"
               : sh.plan == LayerShape::Plan::kDecode ? "decode"
                                                      : "serving";
  m.scheme = scheme_name(Scheme::kChimera);
  m.depth = sh.depth;
  m.num_micro = sh.num_micro;
  m.pipes_f = 1;
  m.scale = scale_method_name(ScaleMethod::kDirect);
  m.sync = training ? sync_policy_name(sh.sync) : "none";
  m.data_parallel = sh.data_parallel;
  m.micro_batch = training ? sh.micro_batch : sh.lanes;
  m.partition = partition_policy_name(PartitionPolicy::kEven);
  m.hidden = sh.model.hidden;
  m.heads = sh.model.heads;
  m.layers = sh.model.layers;
  m.seq = sh.model.seq;
  m.vocab = sh.model.vocab;
  m.causal = sh.model.causal;
  return m;
}

}  // namespace perfbench
