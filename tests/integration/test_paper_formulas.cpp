// §3.2 gives closed-form memory-access estimates for the code variants:
//   independent ~ q*t*d irregular accesses (worst case),
//   hybrid      ~ q*t*2^s coalesced (stage 1) + q*t*(d-s) irregular (stage 2),
//   collaborative ~ q*t*2^(s*(floor(d/s)+2)) in the worst case.
// These tests check our measured counts against those formulas on
// complete trees of depth d (where the worst case is exact for path
// lengths), pinning the reproduction to the paper's own analysis.

#include <gtest/gtest.h>

#include "core/hrf.hpp"
#include "fpgakernels/fpga_kernels.hpp"
#include "fpgakernels/traversal_counts.hpp"
#include "gpukernels/kernels.hpp"
#include "util/math.hpp"

namespace hrf {
namespace {

struct Workload {
  std::size_t q = 600;
  int t = 6;
  int d = 12;
  int s = 4;
  Forest forest;
  HierarchicalForest hier;
  Dataset queries;

  Workload()
      : forest(make_random_forest({.num_trees = t,
                                   .max_depth = d,
                                   .branch_prob = 1.0,  // complete: worst case is exact
                                   .num_features = 10,
                                   .seed = 77})),
        hier(HierarchicalForest::build(forest, HierConfig{.subtree_depth = s})),
        queries(make_random_queries(q, 10, 78)) {}
};

TEST(PaperFormulas, IndependentVisitsEqualQtd) {
  const Workload w;
  const auto counts = fpgakernels::count_traversal(w.hier, w.queries);
  // Every (query, tree) pair walks exactly d nodes on a complete tree.
  EXPECT_EQ(counts.node_visits, w.q * w.t * static_cast<std::size_t>(w.d));
}

TEST(PaperFormulas, HybridStageSplitMatchesQtsAndQtdMinusS) {
  const Workload w;
  HierConfig cfg;
  cfg.subtree_depth = w.s;
  cfg.root_subtree_depth = w.s;  // RSD = SD = s, the formula's setting
  const auto hier = HierarchicalForest::build(w.forest, cfg);
  const auto counts = fpgakernels::count_traversal(hier, w.queries);
  // Stage 1 = q*t*s node visits; stage 2 = q*t*(d-s).
  EXPECT_EQ(counts.root_subtree_visits, w.q * w.t * static_cast<std::size_t>(w.s));
  EXPECT_EQ(counts.node_visits - counts.root_subtree_visits,
            w.q * w.t * static_cast<std::size_t>(w.d - w.s));
}

TEST(PaperFormulas, SubtreeHopsAreVisitsOverS) {
  const Workload w;
  const auto counts = fpgakernels::count_traversal(w.hier, w.queries);
  // With d = 12 and s = 4 every traversal crosses exactly d/s - 1 = 2
  // subtree boundaries.
  EXPECT_EQ(counts.subtree_hops, w.q * w.t * static_cast<std::size_t>(w.d / w.s - 1));
}

TEST(PaperFormulas, IndependentGpuLaneAccessesBoundedByQtdTimesConstant) {
  const Workload w;
  gpusim::Device dev(gpusim::DeviceConfig::titan_xp());
  const auto r =
      gpukernels::run_independent(dev, w.hier, gpukernels::pack_nodes(w.hier), w.queries);
  // Per step the kernel issues <= 3 lane accesses (node, query feature,
  // hop/metadata amortized); total warp requests x warp size bounds lane
  // accesses, which must stay within a small constant of q*t*d.
  const double qtd = static_cast<double>(w.q) * w.t * w.d;
  const double lane_accesses = static_cast<double>(r.counters.gld_requests) * 32.0;
  EXPECT_LT(lane_accesses, 4.0 * qtd);
  EXPECT_GT(lane_accesses, 1.0 * qtd);  // and not trivially small
}

TEST(PaperFormulas, HybridSharedMemoryServesStageOne) {
  const Workload w;
  HierConfig cfg;
  cfg.subtree_depth = w.s;
  cfg.root_subtree_depth = w.s;
  const auto hier = HierarchicalForest::build(w.forest, cfg);
  gpusim::Device dev(gpusim::DeviceConfig::titan_xp());
  const auto r = gpukernels::run_hybrid(dev, hier, gpukernels::pack_nodes(hier), w.queries);
  // Stage 1 reads one shared-memory word per (warp, step): q/32 * t * s,
  // plus the cooperative stores blocks * t * ceil(2^s-1 / 32).
  const std::uint64_t stage1_warp_steps = (w.q / 32 + 1) * w.t * w.s;
  EXPECT_GE(r.counters.smem_loads, stage1_warp_steps / 2);
  EXPECT_GT(r.counters.smem_stores, 0u);
}

TEST(PaperFormulas, CollaborativeSweepIsQTimesSubtreeCount) {
  // The collaborative variant pipelines every query through every subtree
  // (FPGA model): iterations = q * total subtrees, which for complete
  // trees is q * t * (2^s*(2^(d-s)) - 1) / (2^s - 1)-ish; we check the
  // exact subtree count from the layout.
  const Workload w;
  const auto result = fpgakernels::run_collaborative_fpga(w.hier, w.queries);
  // Reconstruct the modeled iteration count from the report's pipeline
  // cycles: stage 2 dominates with II 3. pipeline ~ depth*2 + 1*load_iters
  // + 3*q*S; just assert the subtree count itself matches the complete
  // trees' structure: per tree, subtrees = sum over levels k*s of 2^(k*s).
  std::size_t expected_subtrees_per_tree = 0;
  for (int level = 0; level < w.d; level += w.s) {
    expected_subtrees_per_tree += static_cast<std::size_t>(pow2(level));
  }
  EXPECT_EQ(w.hier.num_subtrees(),
            expected_subtrees_per_tree * static_cast<std::size_t>(w.t));
  EXPECT_FALSE(result.predictions.empty());
}

}  // namespace
}  // namespace hrf
