// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints every metric it measured as text (end-to-end, per-layer when
// traced, host diagnostics), then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"} whose metrics are the
// end-to-end set of BENCHMARK.json (--trace 0) or its per-layer set
// (--trace 1). Any failed correctness check exits 1. perfbench/README.md
// explains the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <thread>

#include "common.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace perfbench {
namespace {

struct Name {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json lists, in its order. Every workload emits every
// one; a per-layer metric a workload does not exercise reads 0 (a count of
// nothing), never absent.
const Name kEndToEnd[] = {{"setup_s", "s"},
                          {"peak_rss_mb", "MiB"},
                          {"ok_share", "share"},
                          {"cpu_us_per_token", "us"}};

const Name kPerLayer[] = {
    {"tensor.gemm_gflops.mlp", "GFLOP/s"},
    {"tensor.gemm_gflops.head", "GFLOP/s"},
    {"tensor.gemm_gflops.decode", "GFLOP/s"},
    {"nn.fwd_ms.s0", "ms"}, {"nn.fwd_ms.s1", "ms"},
    {"nn.fwd_ms.s2", "ms"}, {"nn.fwd_ms.s3", "ms"},
    {"nn.bwd_ms.s0", "ms"}, {"nn.bwd_ms.s1", "ms"},
    {"nn.bwd_ms.s2", "ms"}, {"nn.bwd_ms.s3", "ms"},
    {"nn.infer_ms.s0", "ms"}, {"nn.infer_ms.s1", "ms"},
    {"nn.infer_ms.s2", "ms"}, {"nn.infer_ms.s3", "ms"},
    {"nn.prefill_ms.chat", "ms"}, {"nn.prefill_ms.doc", "ms"},
    {"nn.decode_step_ms.s0", "ms"}, {"nn.decode_step_ms.s1", "ms"},
    {"nn.decode_step_ms.s2", "ms"}, {"nn.decode_step_ms.s3", "ms"},
    {"comm.p2p_us", "us"},
    {"comm.allreduce_ms.g2", "ms"},
    {"comm.allreduce_ms.g4", "ms"},
    {"comm.iallreduce_launch_us", "us"},
    {"comm.bytes_per_iter", "bytes"},
    {"comm.collectives_per_iter", "count"},
    {"optim.step_ms", "ms"},
    {"runtime.bubble_share.w0", "share"},
    {"runtime.bubble_share.w1", "share"},
    {"runtime.bubble_share.w2", "share"},
    {"runtime.bubble_share.w3", "share"},
    {"runtime.bubble_share_predicted", "share"},
    {"runtime.sync_wait_ms", "ms"},
    {"runtime.pool_dispatch_us", "us"},
    {"runtime.decode.step_ms_p50", "ms"},
    {"runtime.decode.prefill_share", "share"},
    {"runtime.decode.lane_occupancy", "share"},
    {"runtime.decode.admit_wait_ms_p50", "ms"},
    {"runtime.decode.prefix_hit_share", "share"},
    {"runtime.decode.kv_pages_peak_share", "share"},
    {"runtime.decode.evictions", "count"},
    {"runtime.serve.round_ms_p50", "ms"},
    {"runtime.serve.padded_row_share", "share"},
    {"runtime.serve.rows_per_round", "rows"},
    {"core.plan_build_ms", "ms"},
    {"obs.trace_overhead_share", "share"},
    // Wall-clock end-to-end metrics that do not hold a bound on a host with
    // CPU steal (README.md, "Steadiness"): recorded from the traced run's
    // untraced phase instead of gated.
    {"tokens_per_s", "tokens/s"},
    {"ttft_ms_p50", "ms"},
    {"ttft_ms_p90", "ms"},
    {"itl_ms_p50", "ms"},
    {"itl_ms_p99", "ms"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"goodput_share", "share"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train_chimera|train_dp_eager|decode_mixed|serve_score> "
               "--seed <n> --seconds <s> --trace <0|1> [--corrupt 1]\n",
               why);
  return 2;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_block(const char* title, const std::vector<Metric>& ms) {
  if (ms.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-36s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("missing value");
    const std::string key = argv[i], val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--corrupt") {
      a.corrupt = val == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  const std::map<std::string, void (*)(const Args&, Report&)> workloads = {
      {"train_chimera", run_train_chimera},
      {"train_dp_eager", run_train_dp_eager},
      {"decode_mixed", run_decode_mixed},
      {"serve_score", run_serve_score},
  };
  const auto it = workloads.find(a.workload);
  if (it == workloads.end()) return usage("unknown workload");

  Report r;
  try {
    it->second(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  r.e2e("peak_rss_mb", peak_rss_mb(), "MiB", "process high-water mark");
  r.e2e("ok_share",
        r.attempted > 0
            ? static_cast<double>(r.attempted - r.failed) / r.attempted
            : 0.0,
        "share", "of " + std::to_string(r.attempted) + " operations");

  // Host fingerprint: diagnostic only, never used to drop or rescale a run.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("host: nproc=%u kernel_tier=%s compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(),
              chimera::kernel_tier_name(chimera::active_kernel_tier()),
              compiler().c_str(), PERFBENCH_BUILD_TYPE);
  print_block("end-to-end:", r.end_to_end);
  print_block("per-layer:", r.layers);
  print_block("host diagnostics:", r.host);
  for (const std::string& m : r.mismatches)
    std::printf("MISMATCH: %s\n", m.c_str());

  // The JSON line: BENCHMARK.json's end-to-end set, or its per-layer set
  // when traced. The end-to-end set is measured on every workload.
  std::map<std::string, double> values;
  for (const Metric& m : r.layers) values[m.name] = m.value;
  if (!a.trace)
    for (const Metric& m : r.end_to_end) values[m.name] = m.value;
  std::ostringstream json;
  const bool correct = r.failed == 0 && r.attempted > 0;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const Name& n : a.trace ? std::vector<Name>(std::begin(kPerLayer),
                                                   std::end(kPerLayer))
                               : std::vector<Name>(std::begin(kEndToEnd),
                                                   std::end(kEndToEnd))) {
    const auto it = values.find(n.name);
    if (it == values.end() && !a.trace) {
      std::fprintf(stderr, "perfbench: no value for %s\n", n.name);
      return 1;
    }
    const double v = it == values.end() ? 0.0 : it->second;
    json << (first ? "" : ", ") << "\"" << n.name << "\": {\"value\": "
         << num(std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << n.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
