#include "check.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

Oracle::Oracle(const hrf::Forest& forest, const hrf::Dataset& pool)
    : want_(forest.classify_batch(pool.features(), pool.num_samples())) {}

std::span<const std::uint8_t> Oracle::rows(std::size_t first, std::size_t count) const {
  if (first > want_.size() || count > want_.size() - first) {
    throw std::out_of_range("oracle rows out of range");
  }
  return std::span<const std::uint8_t>(want_).subspan(first, count);
}

bool Tally::check(std::span<const std::uint8_t> got, std::span<const std::uint8_t> want) {
  ++attempted;
  std::uint64_t wrong = 0;
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) wrong += got[i] != want[i];
  // A short or long answer is wrong in every row it lacks or adds.
  wrong += std::max(got.size(), want.size()) - n;
  if (wrong == 0) return true;
  ++failed;
  ++mismatched_ops;
  mismatched_rows += wrong;
  return false;
}

void Tally::error() {
  ++attempted;
  ++failed;
  ++errors;
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatched_ops += other.mismatched_ops;
  mismatched_rows += other.mismatched_rows;
  errors += other.errors;
}

}  // namespace perfbench
