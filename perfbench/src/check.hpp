#pragma once

// Correctness accounting: every prediction the program returns is compared
// with Forest::classify_batch on the same rows.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "forest/forest.hpp"

namespace perfbench {

/// Reference predictions of a query pool, from the Forest oracle.
class Oracle {
 public:
  Oracle(const hrf::Forest& forest, const hrf::Dataset& pool);

  /// Reference predictions for pool rows [first, first + count).
  std::span<const std::uint8_t> rows(std::size_t first, std::size_t count) const;

 private:
  std::vector<std::uint8_t> want_;
};

/// Operations attempted and failed in one run. An operation fails when it
/// throws, is refused, or returns any prediction that differs from the
/// oracle; a mismatch also makes the whole run incorrect.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched_ops = 0;
  std::uint64_t mismatched_rows = 0;
  std::uint64_t errors = 0;

  /// Records one operation's outcome; returns true when it was correct.
  bool check(std::span<const std::uint8_t> got, std::span<const std::uint8_t> want);
  /// Records one operation that threw or was refused.
  void error();
  void merge(const Tally& other);
  bool correct() const { return mismatched_ops == 0; }
};

}  // namespace perfbench
