// Reproduces the paper's remaining negative results on the simulated GPU:
//  * §3.2.1 Optimization 2 — one tree per thread block (2-10x slowdown
//    relative to the independent variant; global vote atomics);
//  * §5 — query presorting (Goldfarb et al.): helps lockstep traversal but
//    "would lead to an extra cost that cannot be amortized" on
//    high-dimensional ML data.

#include <cstdio>

#include "bench_common.hpp"
#include "gpukernels/ablation_kernels.hpp"
#include "gpukernels/kernels.hpp"

int main(int argc, char** argv) {
  using namespace hrf;
  CliArgs args(argc, argv);
  bench::add_common_flags(args);
  args.allow("trees", "trees per forest (default 100)")
      .allow("sd", "max subtree depth (default 8)");
  if (!args.validate()) return 1;
  const auto opt = bench::parse_common(args);
  const int num_trees = static_cast<int>(args.get_int("trees", 100));
  const int sd = static_cast<int>(args.get_int("sd", 8));

  const auto kind = paper::DatasetKind::Susy;
  const std::size_t samples = paper::default_samples(kind, opt.scale);
  const Dataset queries =
      bench::head(paper::test_half(kind, samples, opt.cache_dir), opt.max_gpu_queries);
  const int depth = paper::selected_depths(kind)[1];
  const Forest forest = paper::cached_forest(kind, depth, num_trees, samples, opt.cache_dir);
  HierConfig cfg;
  cfg.subtree_depth = sd;
  const HierarchicalForest hier = HierarchicalForest::build(forest, cfg);
  const std::vector<gpukernels::PackedNode> packed = gpukernels::pack_nodes(hier);

  Table table({"configuration", "sim-s", "vs independent", "branch eff", "note"});

  gpusim::Device d_ind(gpusim::DeviceConfig::titan_xp());
  const auto ind = gpukernels::run_independent(d_ind, hier, packed, queries);
  table.row().cell("independent (baseline)").cell(ind.timing.seconds, 5).cell(1.0, 2).cell(
      ind.counters.branch_efficiency(), 3).cell("");

  // --- Optimization 2: tree per block.
  gpusim::Device d_tpb(gpusim::DeviceConfig::titan_xp());
  const auto tpb = gpukernels::run_tree_per_block(d_tpb, hier, packed, queries);
  bool same = tpb.predictions == ind.predictions;
  table.row()
      .cell("tree-per-block (Opt. 2)")
      .cell(tpb.timing.seconds, 5)
      .cell(ind.timing.seconds / tpb.timing.seconds, 2)
      .cell(tpb.counters.branch_efficiency(), 3)
      .cell(same ? "predictions identical" : "MISMATCH");

  // --- Query presorting (Goldfarb et al.).
  WallTimer sort_timer;
  const auto order = gpukernels::presort_queries(queries);
  const Dataset sorted = gpukernels::permute_queries(queries, order);
  const double sort_wall = sort_timer.seconds();
  gpusim::Device d_sorted(gpusim::DeviceConfig::titan_xp());
  const auto srt = gpukernels::run_independent(d_sorted, hier, packed, sorted);
  char note[96];
  std::snprintf(note, sizeof note, "host presort cost: %.3f wall-s for %zu queries", sort_wall,
                queries.num_samples());
  table.row()
      .cell("independent + presorted")
      .cell(srt.timing.seconds, 5)
      .cell(ind.timing.seconds / srt.timing.seconds, 2)
      .cell(srt.counters.branch_efficiency(), 3)
      .cell(note);

  bench::emit(args, "Ablations — negative results the paper reports (Susy, depth " +
                        std::to_string(depth) + ")",
              table);
  std::printf(
      "\nPaper reference: Optimization 2 'resulted in significant slowdown'\n"
      "(the 2-10x band; our model shows the slowdown via vote-atomic\n"
      "serialization but understates it — the L2 contention of ~60\n"
      "concurrent single-tree blocks is not simulated). Presorting\n"
      "improves lockstep locality but its preprocessing cost 'cannot be\n"
      "amortized' for high-dimensional ML queries (§5) — compare the sort\n"
      "wall-time against the simulated traversal gain.\n");
  return 0;
}
