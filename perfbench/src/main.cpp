// hrf_perfbench: runs one benchmark workload and prints its metrics.
//
//   hrf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Lines before it record
// the environment and the sample behind each percentile. Exit status: 0
// when every prediction matched the oracle, 1 on any mismatch, 2 on a
// usage or set-up error (no result printed).

#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end list.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"goodput_share", "share"},
    {"gpusim_modeled_ns_per_row", "ns/row"},
    {"fpgasim_modeled_ns_per_row", "ns/row"},
};

// Must match BENCHMARK.json's per_layer list. A layer a workload does not
// exercise reports 0. The first seven are end-to-end wall-clock figures
// whose spread between runs on a shared host is too wide for a bound.
constexpr MetricSpec kPerLayer[] = {
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"latency_p99_us", "us"},
    {"requests_per_s", "1/s"},
    {"cpu_rows_per_s", "rows/s"},
    {"gpusim_rows_per_s", "rows/s"},
    {"fpgasim_rows_per_s", "rows/s"},
    {"setup.layout_s", "s"},
    {"setup.server_s", "s"},
    {"core.cpu.chunk_us_p50", "us"},
    {"core.cpu.chunk_us_p99", "us"},
    {"core.gpusim.chunk_us_p50", "us"},
    {"core.gpusim.chunk_us_p99", "us"},
    {"core.fpgasim.chunk_us_p50", "us"},
    {"core.fpgasim.chunk_us_p99", "us"},
    {"gpusim.gld_requests_per_row", "count"},
    {"gpusim.transactions_per_request", "count"},
    {"gpusim.l1_hit_share", "share"},
    {"gpusim.l2_hit_share", "share"},
    {"gpusim.dram_bytes_per_row", "B"},
    {"gpusim.smem_loads_per_row", "count"},
    {"gpusim.branch_efficiency", "share"},
    {"gpusim.warp_instructions_per_row", "count"},
    {"fpgasim.total_cycles_per_row", "cycles"},
    {"fpgasim.pipeline_cycles_per_row", "cycles"},
    {"fpgasim.stall_pct", "%"},
    {"serve.submit_us_p50", "us"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.execute_us_p50", "us"},
    {"serve.execute_us_p99", "us"},
    {"serve.return_us_p50", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.rejected", "count"},
    {"serve.retries", "count"},
    {"serve.fallback_served", "count"},
    {"cluster.route_us_p50", "us"},
    {"cluster.route_us_p99", "us"},
    {"cluster.failovers", "count"},
    {"cluster.hedged", "count"},
    {"cluster.probes_per_s", "1/s"},
    {"loadgen.late_us_p99", "us"},
    {"loadgen.max_outstanding", "count"},
    {"self.request_us", "us"},
    {"self.loadgen.late_us", "us"},
    {"self.serve.submit_us", "us"},
    {"self.serve.wait_us", "us"},
    {"self.serve.queue_us", "us"},
    {"self.serve.execute_us", "us"},
    {"self.cluster.query_us", "us"},
    {"self.core.cpu_us", "us"},
    {"self.core.gpusim_us", "us"},
    {"self.core.fpgasim_us", "us"},
    {"self.check_us", "us"},
    {"trace.overhead_latency_p50_share", "share"},
    {"trace.overhead_rows_per_s_share", "share"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: hrf_perfbench --workload offline-batch|serve-gpusim-open|"
               "cluster-cpu-light --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_env() {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::printf(
      "env {\"nproc\": %ld, \"hardware_concurrency\": %u, \"OMP_NUM_THREADS\": \"%s\", "
      "\"omp_max_threads\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      omp ? json_escape(omp).c_str() : "(unset)", omp_get_max_threads(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0 && std::isfinite(opt.seconds);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }

  try {
    if (!have_seed || !have_seconds || !have_trace) {
      usage("--workload, --seed, --seconds (> 0) and --trace are required");
    }
    perfbench::Result (*run)(const hrf::Forest&, const perfbench::RunOptions&) = nullptr;
    if (workload == "offline-batch") run = perfbench::run_offline_batch;
    if (workload == "serve-gpusim-open") run = perfbench::run_serve_gpusim_open;
    if (workload == "cluster-cpu-light") run = perfbench::run_cluster_cpu_light;
    if (!run) usage(("unknown workload '" + workload + "'").c_str());

    print_env();
    const hrf::Forest forest = perfbench::train_model();
    const perfbench::Result r = run(forest, opt);
    for (const std::string& n : r.notes) std::printf("note %s\n", n.c_str());
    std::printf("tally {\"attempted\": %llu, \"failed\": %llu, \"mismatched_ops\": %llu, "
                "\"mismatched_rows\": %llu, \"errors\": %llu}\n",
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed),
                static_cast<unsigned long long>(r.tally.mismatched_ops),
                static_cast<unsigned long long>(r.tally.mismatched_rows),
                static_cast<unsigned long long>(r.tally.errors));

    std::string metrics;
    for (const MetricSpec& m : opt.trace ? std::span<const MetricSpec>(kPerLayer)
                                         : std::span<const MetricSpec>(kEndToEnd)) {
      const auto it = r.metrics.find(m.name);
      double value = 0.0;
      if (it != r.metrics.end()) {
        value = it->second;
      } else if (!opt.trace) {
        std::fprintf(stderr, "error: workload did not measure %s\n", m.name);
        return 2;
      }
      if (!std::isfinite(value)) {
        std::fprintf(stderr, "error: %s is not finite\n", m.name);
        return 2;
      }
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", m.name, value, m.unit);
      metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                r.tally.correct() ? "true" : "false",
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed), metrics.c_str());
    std::fflush(stdout);
    return r.tally.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
