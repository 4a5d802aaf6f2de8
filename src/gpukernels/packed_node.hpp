#pragma once

// Packed per-node attribute record used by the hierarchical GPU kernels.
//
// The paper stores a subtree node's attributes in 48 bits (§3.2: the
// collaborative capacity formula divides shared memory by 48 bits/node),
// i.e. feature id and value travel in ONE memory access. The CSR baseline
// keeps the separate feature_id / value / children arrays of Fig. 2 —
// that asymmetry (1 packed load vs 4 scattered loads per step) is a large
// part of the hierarchical layout's GPU win.

#include <cstdint>
#include <vector>

#include "layout/hierarchical.hpp"

namespace hrf::gpukernels {

struct PackedNode {
  std::int32_t feature;  // kLeafFeature marks a tree leaf (or padding)
  float value;           // threshold, or the leaf's class vote
};
static_assert(sizeof(PackedNode) == 8);

/// Interleaves the layout's attribute arrays into packed records, one per
/// stored node. Done once per compiled layout (the on-device image the
/// hierarchical kernels read), never per launch.
inline std::vector<PackedNode> pack_nodes(const HierarchicalForest& forest) {
  const auto fid = forest.feature_id();
  const auto val = forest.value();
  std::vector<PackedNode> nodes(fid.size());
  for (std::size_t i = 0; i < fid.size(); ++i) nodes[i] = {fid[i], val[i]};
  return nodes;
}

}  // namespace hrf::gpukernels
