#include "gpukernels/kernels.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "../common/paper_example.hpp"
#include "core/classifier.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"
#include "util/error.hpp"

namespace hrf::gpukernels {
namespace {

gpusim::DeviceConfig small_gpu() {
  gpusim::DeviceConfig cfg = gpusim::DeviceConfig::titan_xp();
  cfg.num_sms = 4;
  return cfg;
}

struct Fixture {
  Forest forest;
  CsrForest csr;
  HierarchicalForest hier;
  std::vector<PackedNode> packed;
  Dataset queries;
  std::vector<std::uint8_t> reference;

  Fixture(const RandomForestSpec& spec, int sd, int rsd, std::size_t nq)
      : forest(make_random_forest(spec)),
        csr(CsrForest::build(forest)),
        hier(HierarchicalForest::build(forest,
                                       HierConfig{.subtree_depth = sd, .root_subtree_depth = rsd})),
        packed(pack_nodes(hier)),
        queries(make_random_queries(nq, spec.num_features, spec.seed + 1)),
        reference(forest.classify_batch(queries.features(), queries.num_samples())) {}
};

void expect_exact(const std::vector<std::uint8_t>& got, const std::vector<std::uint8_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]) << "query " << i;
}

class KernelEquivalence : public testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(KernelEquivalence, AllKernelsMatchReference) {
  const auto [depth, sd, branch_prob] = GetParam();
  RandomForestSpec spec;
  spec.num_trees = 8;
  spec.max_depth = depth;
  spec.branch_prob = branch_prob;
  spec.num_features = 9;
  spec.seed = static_cast<std::uint64_t>(depth * 100 + sd);
  const Fixture fx(spec, sd, 0, 700);

  {
    gpusim::Device d(small_gpu());
    expect_exact(run_csr(d, fx.csr, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_independent(d, fx.hier, fx.packed, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_hybrid(d, fx.hier, fx.packed, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_collaborative(d, fx.hier, fx.packed, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_fil_baseline(d, fx.forest, fx.queries).predictions, fx.reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, KernelEquivalence,
                         testing::Combine(testing::Values(4, 9, 14),   // tree depth
                                          testing::Values(3, 6, 8),    // SD
                                          testing::Values(0.5, 0.9)),  // sparsity
                         [](const auto& info) {
                           return "d" + std::to_string(std::get<0>(info.param)) + "sd" +
                                  std::to_string(std::get<1>(info.param)) + "p" +
                                  std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
                         });

TEST(GpuKernels, QueryCountNotMultipleOfBlockSize) {
  RandomForestSpec spec;
  spec.num_trees = 3;
  spec.max_depth = 6;
  const Fixture fx(spec, 4, 0, 257);  // 256-thread blocks + 1 stray lane
  gpusim::Device d(small_gpu());
  expect_exact(run_csr(d, fx.csr, fx.queries).predictions, fx.reference);
  gpusim::Device d2(small_gpu());
  expect_exact(run_hybrid(d2, fx.hier, fx.packed, fx.queries).predictions, fx.reference);
}

TEST(GpuKernels, RejectsMismatchedQueryWidth) {
  RandomForestSpec spec;
  spec.num_trees = 2;
  spec.max_depth = 4;
  const Fixture fx(spec, 4, 0, 32);
  const Dataset wrong = make_random_queries(32, spec.num_features + 3);
  gpusim::Device d(small_gpu());
  EXPECT_THROW(run_csr(d, fx.csr, wrong), ConfigError);
  EXPECT_THROW(run_independent(d, fx.hier, fx.packed, wrong), ConfigError);
  EXPECT_THROW(run_hybrid(d, fx.hier, fx.packed, wrong), ConfigError);
  EXPECT_THROW(run_fil_baseline(d, fx.forest, wrong), ConfigError);
}

TEST(GpuKernels, HybridRejectsRootSubtreeBiggerThanSharedMemory) {
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 16;
  spec.branch_prob = 1.0;  // complete tree so RSD 14 exists
  const Forest f = make_random_forest(spec);
  HierConfig cfg;
  cfg.subtree_depth = 4;
  cfg.root_subtree_depth = 14;  // (2^14 - 1) * 8 B = 131 KB > 48 KB
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  const Dataset q = make_random_queries(32, spec.num_features);
  gpusim::Device d(small_gpu());
  EXPECT_THROW(run_hybrid(d, h, pack_nodes(h), q), ResourceError);
}

TEST(GpuKernels, RsdTwelveIsTheSharedMemoryLimit) {
  // Table 2 stops at RSD 12 because (2^12 - 1) * 8 B = 32 KB fits in the
  // 48 KB shared memory while RSD 13 (64 KB) does not.
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 14;
  spec.branch_prob = 1.0;
  const Forest f = make_random_forest(spec);
  const Dataset q = make_random_queries(64, spec.num_features);
  {
    HierConfig cfg;
    cfg.subtree_depth = 8;
    cfg.root_subtree_depth = 12;
    const HierarchicalForest h = HierarchicalForest::build(f, cfg);
    gpusim::Device d(small_gpu());
    EXPECT_NO_THROW(run_hybrid(d, h, pack_nodes(h), q));
  }
  {
    HierConfig cfg;
    cfg.subtree_depth = 8;
    cfg.root_subtree_depth = 13;
    const HierarchicalForest h = HierarchicalForest::build(f, cfg);
    gpusim::Device d(small_gpu());
    EXPECT_THROW(run_hybrid(d, h, pack_nodes(h), q), ResourceError);
  }
}

TEST(GpuKernels, Fig2ForestWalkthrough) {
  const Forest f = testutil::fig2_forest();
  Dataset q(2, testutil::kFig2Features);
  q.push_back(testutil::fig2_query_class_a(), 0);
  q.push_back(testutil::fig2_query_class_b(), 1);
  const CsrForest csr = CsrForest::build(f);
  gpusim::Device d(small_gpu());
  const auto r = run_csr(d, csr, q);
  EXPECT_EQ(r.predictions[0], 0);
  EXPECT_EQ(r.predictions[1], 1);
}

TEST(GpuKernels, CountersShapeMatchesPaperFindings) {
  // The relationships behind Fig. 7/8: the hierarchical variants issue
  // fewer global load requests than CSR; the hybrid offloads node reads
  // to shared memory and has at least the independent's branch
  // efficiency; CSR does strictly more transactions per query step.
  RandomForestSpec spec;
  spec.num_trees = 10;
  spec.max_depth = 12;
  spec.branch_prob = 0.75;
  spec.num_features = 12;
  const Fixture fx(spec, 6, 0, 2048);

  gpusim::Device d_csr(small_gpu());
  const auto csr = run_csr(d_csr, fx.csr, fx.queries);
  gpusim::Device d_ind(small_gpu());
  const auto ind = run_independent(d_ind, fx.hier, fx.packed, fx.queries);
  gpusim::Device d_hyb(small_gpu());
  const auto hyb = run_hybrid(d_hyb, fx.hier, fx.packed, fx.queries);

  EXPECT_LT(ind.counters.gld_requests, csr.counters.gld_requests);
  EXPECT_LT(hyb.counters.gld_requests, ind.counters.gld_requests);
  EXPECT_GT(hyb.counters.smem_loads, 0u);
  EXPECT_EQ(ind.counters.smem_loads, 0u);
  EXPECT_GE(hyb.counters.branch_efficiency(), ind.counters.branch_efficiency());
  // And the headline: the hierarchical variants are simulated-faster.
  EXPECT_LT(ind.timing.seconds, csr.timing.seconds);
  EXPECT_LT(hyb.timing.seconds, csr.timing.seconds);
}

TEST(GpuKernels, CollaborativeIsSlowerThanIndependent) {
  // §3.2.1: the collaborative GPU kernel is 10-20x slower than the
  // independent one; at minimum the model must order them correctly.
  RandomForestSpec spec;
  spec.num_trees = 4;
  spec.max_depth = 10;
  spec.branch_prob = 0.8;
  const Fixture fx(spec, 4, 0, 1024);
  gpusim::Device d_ind(small_gpu());
  const auto ind = run_independent(d_ind, fx.hier, fx.packed, fx.queries);
  gpusim::Device d_col(small_gpu());
  const auto col = run_collaborative(d_col, fx.hier, fx.packed, fx.queries);
  EXPECT_GT(col.timing.seconds, 2.0 * ind.timing.seconds);
}

TEST(GpuKernels, SingleQuerySingleTree) {
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 3;
  const Fixture fx(spec, 2, 0, 1);
  gpusim::Device d(small_gpu());
  expect_exact(run_independent(d, fx.hier, fx.packed, fx.queries).predictions, fx.reference);
}

// Two classify() runs agree on predictions, every counter and the timing.
void expect_identical_runs(const RunReport& a, const RunReport& b, const std::string& what) {
  EXPECT_EQ(a.predictions, b.predictions) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  ASSERT_TRUE(a.gpu_counters && b.gpu_counters) << what;
  const gpusim::Counters& x = *a.gpu_counters;
  const gpusim::Counters& y = *b.gpu_counters;
  EXPECT_EQ(x.gld_requests, y.gld_requests) << what;
  EXPECT_EQ(x.gst_requests, y.gst_requests) << what;
  EXPECT_EQ(x.gld_transactions, y.gld_transactions) << what;
  EXPECT_EQ(x.gst_transactions, y.gst_transactions) << what;
  EXPECT_EQ(x.l1_hits, y.l1_hits) << what;
  EXPECT_EQ(x.l2_hits, y.l2_hits) << what;
  EXPECT_EQ(x.dram_transactions, y.dram_transactions) << what;
  EXPECT_EQ(x.smem_loads, y.smem_loads) << what;
  EXPECT_EQ(x.smem_stores, y.smem_stores) << what;
  EXPECT_EQ(x.branches, y.branches) << what;
  EXPECT_EQ(x.divergent_branches, y.divergent_branches) << what;
  EXPECT_EQ(x.atomic_transactions, y.atomic_transactions) << what;
  EXPECT_EQ(x.warp_instructions, y.warp_instructions) << what;
  ASSERT_TRUE(a.gpu_timing && b.gpu_timing) << what;
  const gpusim::Timing& s = *a.gpu_timing;
  const gpusim::Timing& t = *b.gpu_timing;
  EXPECT_EQ(s.cycles, t.cycles) << what;
  EXPECT_EQ(s.seconds, t.seconds) << what;
  EXPECT_EQ(s.compute_cycles, t.compute_cycles) << what;
  EXPECT_EQ(s.dram_cycles, t.dram_cycles) << what;
  EXPECT_EQ(s.l2_cycles, t.l2_cycles) << what;
  EXPECT_EQ(s.atomic_cycles, t.atomic_cycles) << what;
  EXPECT_EQ(s.limiter, t.limiter) << what;
}

TEST(GpuKernels, PackedNodesHeldByAClassifierCarryNoStateBetweenRuns) {
  // A GpuSim classifier packs its layout once and every launch reads that
  // one array. Back-to-back runs on one classifier must match each other
  // and a freshly compiled classifier exactly.
  RandomForestSpec spec;
  spec.num_trees = 8;
  spec.max_depth = 10;
  spec.branch_prob = 0.8;
  spec.num_features = 9;
  spec.seed = 515;
  const Forest forest = make_random_forest(spec);
  const Dataset queries = make_random_queries(300, spec.num_features, 516);
  const std::vector<std::uint8_t> reference =
      forest.classify_batch(queries.features(), queries.num_samples());
  for (const Variant v : {Variant::Hybrid, Variant::Independent, Variant::Collaborative}) {
    ClassifierOptions opt;
    opt.backend = Backend::GpuSim;
    opt.variant = v;
    opt.layout.subtree_depth = 4;
    opt.gpu = small_gpu();
    const Classifier shared(forest, opt);
    const RunReport first = shared.classify(queries);
    const RunReport second = shared.classify(queries);
    const RunReport fresh = Classifier(forest, opt).classify(queries);
    expect_identical_runs(first, second, std::string(to_string(v)) + ": repeat run");
    expect_identical_runs(first, fresh, std::string(to_string(v)) + ": fresh classifier");
    expect_exact(first.predictions, reference);
  }
}

}  // namespace
}  // namespace hrf::gpukernels
