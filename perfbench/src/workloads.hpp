#pragma once

// The three benchmark workloads. Each drives hrf only through its public
// entry points (Classifier, ForestServer::submit, ClusterRouter::query and
// the stats/latency accessors) and returns raw metric values by name; the
// names, units and the exact set printed live in main.cpp.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.hpp"
#include "forest/forest.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Measurement window. A traced run measures twice as long, alternating
  /// untraced and traced slices, so it can report the tracing overhead.
  double seconds = 10.0;
  bool trace = false;
};

struct Result {
  Tally tally;
  std::map<std::string, double> metrics;
  /// Human-readable lines: sample counts, percentiles used, notes.
  std::vector<std::string> notes;
};

/// The shared model: a susy-like forest of 50 trees, depth 15, trained
/// from fixed seeds (independent of RunOptions::seed).
hrf::Forest train_model();

Result run_offline_batch(const hrf::Forest& forest, const RunOptions& opt);
Result run_serve_gpusim_open(const hrf::Forest& forest, const RunOptions& opt);
Result run_cluster_cpu_light(const hrf::Forest& forest, const RunOptions& opt);

}  // namespace perfbench
