// Self-tests of the benchmark's own arithmetic and correctness check.
// Run: python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "check.hpp"
#include "data/dataset.hpp"
#include "forest/forest.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void test_percentiles() {
  using perfbench::percentile_sorted;
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT(near(percentile_sorted(v, 50), 3));
  EXPECT(near(percentile_sorted(v, 0), 1));
  EXPECT(near(percentile_sorted(v, 100), 5));
  EXPECT(near(percentile_sorted(v, 25), 2));
  EXPECT(near(percentile_sorted(v, 90), 4.6));  // between ranks 4 and 5
  EXPECT(near(percentile_sorted({10, 20}, 50), 15));
  EXPECT(percentile_sorted({}, 50) == 0.0);
}

void test_tail_support() {
  using perfbench::supported_tail_pct;
  // At least ten samples must lie beyond the reported percentile.
  EXPECT(supported_tail_pct(999) == 95.0);
  EXPECT(supported_tail_pct(1000) == 99.0);
  EXPECT(supported_tail_pct(9999) == 99.0);
  EXPECT(supported_tail_pct(10000) == 99.9);
  EXPECT(supported_tail_pct(200) == 95.0);
  EXPECT(supported_tail_pct(199) == 90.0);
  EXPECT(supported_tail_pct(39) == 50.0);
}

void test_summary() {
  // 1..1000 shuffled: p50 = 500.5, p99 = 990.01, mean = 500.5.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const perfbench::Summary s = perfbench::summarize(v);
  EXPECT(s.n == 1000);
  EXPECT(near(s.p50, 500.5));
  EXPECT(s.tail_pct == 99.0);
  EXPECT(near(s.tail, 990.01));
  EXPECT(near(s.mean, 500.5));
  // Too few samples for p99: the tail falls back to p95.
  std::vector<double> small(500, 7.0);
  const perfbench::Summary t = perfbench::summarize(small);
  EXPECT(t.tail_pct == 95.0);
  EXPECT(t.tail == 7.0);
  EXPECT(perfbench::summarize({}).n == 0);
  EXPECT(near(perfbench::quantile({4, 1, 3, 2}, 75), 3.25));
}

void test_slices() {
  using perfbench::slice_values;
  const auto width = [](std::size_t a, std::size_t b) { return static_cast<double>(b - a); };
  const auto first = [](std::size_t a, std::size_t) { return static_cast<double>(a); };
  // 250 items in slices of 100: two full slices, the remainder left out.
  EXPECT(slice_values(250, 100, width) == std::vector<double>({100, 100}));
  EXPECT(slice_values(250, 100, first) == std::vector<double>({0, 100}));
  // Fewer items than one slice: one slice holds them all.
  EXPECT(slice_values(40, 100, width) == std::vector<double>({40}));
  EXPECT(slice_values(0, 100, width).empty());
}

void test_self_time() {
  using perfbench::Span;
  // root [0, 100] with children [10, 30] and [20, 50] (overlapping, union
  // 40) and [90, 120] (clipped to 10): self = 100 - 50 = 50.
  // Child [20, 50] has its own child [25, 35]: self = 30 - 10 = 20.
  const std::vector<Span> spans = {
      {1, 0, "request", 0, 100},  {2, 1, "a", 10, 30}, {3, 1, "b", 20, 50},
      {4, 1, "c", 90, 120},       {5, 3, "d", 25, 35},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 10);
  const auto layers = perfbench::layer_times(spans);
  EXPECT(layers.at("request").count == 1);
  EXPECT(layers.at("request").self_ns == 50.0);
  EXPECT(layers.at("request").total_ns == 100.0);
  // Disjoint children that exactly tile the parent leave no self time.
  const std::vector<Span> tiled = {{1, 0, "r", 0, 10}, {2, 1, "x", 0, 4}, {3, 1, "y", 4, 10}};
  EXPECT(perfbench::self_times(tiled)[0] == 0);
}

/// A one-tree forest whose single split sends x[0] < 0.5 to class 0.
hrf::Forest stump() {
  std::vector<hrf::TreeNode> nodes(3);
  nodes[0].feature = 0;
  nodes[0].value = 0.5f;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].value = 0.0f;
  nodes[2].value = 1.0f;
  std::vector<hrf::DecisionTree> trees;
  trees.emplace_back(std::move(nodes));
  return hrf::Forest(std::move(trees), 1);
}

void test_correctness_check() {
  const hrf::Forest forest = stump();
  hrf::Dataset pool(4, 1);
  for (const float x : {0.1f, 0.9f, 0.4f, 0.6f}) pool.push_back(std::vector<float>{x}, 0);
  const perfbench::Oracle oracle(forest, pool);
  const std::vector<std::uint8_t> want = {0, 1, 0, 1};
  EXPECT(std::vector<std::uint8_t>(oracle.rows(0, 4).begin(), oracle.rows(0, 4).end()) == want);

  perfbench::Tally tally;
  EXPECT(tally.check(want, oracle.rows(0, 4)));
  EXPECT(tally.correct());

  // A doctored prediction must fail the check and make the run incorrect.
  std::vector<std::uint8_t> doctored = want;
  doctored[2] = 1;
  EXPECT(!tally.check(doctored, oracle.rows(0, 4)));
  EXPECT(!tally.correct());
  EXPECT(tally.attempted == 2);
  EXPECT(tally.failed == 1);
  EXPECT(tally.mismatched_rows == 1);

  // A short answer is wrong in every row it lacks.
  perfbench::Tally short_tally;
  EXPECT(!short_tally.check(std::vector<std::uint8_t>{0, 1}, oracle.rows(0, 4)));
  EXPECT(short_tally.mismatched_rows == 2);

  // Errors count as failed operations but not as mismatches.
  perfbench::Tally err;
  err.error();
  EXPECT(err.failed == 1 && err.correct());
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_support();
  test_summary();
  test_slices();
  test_self_time();
  test_correctness_check();
  if (failures) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
