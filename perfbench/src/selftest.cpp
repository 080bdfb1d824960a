// Tests of the benchmark's own helpers, run at the start of every
// benchmark run (they take milliseconds): a wrong percentile, a schedule
// that changes under a fixed seed, or a checker that accepts a corrupted
// output would make every number the benchmark prints meaningless.
#include <cstdio>

#include "check.hpp"
#include "kernels/reference.hpp"
#include "kernels/vec_ref.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentiles() {
  expect(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "median of 1..4 is 2.5");
  expect(near(percentile({4, 1, 3, 2}, 0.25), 1.75), "p25 of 1..4 is 1.75");
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  expect(near(percentile(ten, 0.9), 9.1), "p90 of 1..10 is 9.1");
  expect(near(percentile(ten, 0.0), 1) && near(percentile(ten, 1.0), 10),
         "p0 and p100 are the extremes");
  expect(near(percentile({7}, 0.99), 7), "any quantile of one sample is it");
  expect(percentile({}, 0.5) == 0, "an empty sample reads 0");
  const Metric m = median_metric({3, 1, 2}, "ms");
  expect(m.n == 3 && near(m.value, 2) && near(m.q1, 1.5) && near(m.q3, 2.5),
         "median_metric records the sample count and quartiles");
}

void test_schedule() {
  const auto a = poisson_schedule(7, 1000, 2.0);
  const auto b = poisson_schedule(7, 1000, 2.0);
  const auto c = poisson_schedule(8, 1000, 2.0);
  expect(a == b, "the same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  expect(a.size() > 1900 && a.size() < 2100, "2 s at 1000/s holds ~2000 sends");
  expect(std::is_sorted(a.begin(), a.end()) && a.back() < 2.0,
         "sends are ordered and inside the phase");
  auto r1 = input_rng(3, 1, 4), r2 = input_rng(3, 1, 4), r3 = input_rng(3, 1, 5);
  const auto x1 = bits_f16(r1, 100), x2 = bits_f16(r2, 100), x3 = bits_f16(r3, 100);
  expect(std::equal(x1.begin(), x1.end(), x2.begin()) &&
             !std::equal(x1.begin(), x1.end(), x3.begin()),
         "inputs regenerate from (seed, stream, index)");
}

void test_checkers() {
  auto rng = input_rng(1, 2, 3);
  const auto x = bits_f16(rng, 1000);
  auto y16 = ascend::vecref::inclusive_scan_f16(x);
  auto y32 = ascend::vecref::inclusive_scan_f32(x);
  expect(check_cumsum_f16(x, y16) && check_cumsum_f32(x, y32),
         "cumsum checkers accept the reference");
  y16[500] = half(float(y16[500]) + 1.0f);
  y32[999] += 1.0f;
  expect(!check_cumsum_f16(x, y16), "fp16 cumsum checker flags one wrong element");
  expect(!check_cumsum_f32(x, y32), "fp32 cumsum checker flags one wrong element");
  y32.pop_back();
  expect(!check_cumsum_f32(x, y32), "fp32 cumsum checker flags a short output");

  auto flags = rng.mask_i8(x.size(), 0.1);
  auto seg = ascend::vecref::segmented_inclusive_scan(x, flags);
  expect(check_segmented(x, flags, seg), "segmented checker accepts the reference");
  seg[10] += 1.0f;
  expect(!check_segmented(x, flags, seg), "segmented checker flags a wrong element");

  const auto keys = rng.uniform_f16(500, -10.0, 10.0);
  auto sorted = ascend::ref::stable_sort(keys, true);
  expect(check_sort(keys, true, sorted.values, sorted.indices),
         "sort checker accepts the reference");
  expect(!check_sort(keys, false, sorted.values, sorted.indices),
         "sort checker flags the wrong order");
  std::swap(sorted.indices[3], sorted.indices[4]);
  expect(!check_sort(keys, true, sorted.values, sorted.indices),
         "sort checker flags swapped indices");

  const auto mask = rng.mask_i8(keys.size(), 0.5);
  auto sp = ascend::ref::split(keys, mask);
  expect(check_split(keys, mask, sp.values, sp.indices, sp.num_true),
         "split checker accepts the reference");
  expect(!check_split(keys, mask, sp.values, sp.indices, sp.num_true + 1),
         "split checker flags a wrong true count");
  sp.values[0] = half(float(sp.values[0]) + 0.5f);
  expect(!check_split(keys, mask, sp.values, sp.indices, sp.num_true),
         "split checker flags a wrong value");

  const auto probs = exact_probs_f16(rng, 4096);
  const double u = 0.37;
  const auto token = ascend::ref::top_p_sample(probs, 0.9, u);
  expect(check_top_p(probs, 0.9, u, token), "top-p checker accepts the reference");
  const auto tail = ascend::ref::stable_sort(probs, true).indices.back();
  expect(!check_top_p(probs, 0.9, u, tail), "top-p checker flags a token outside the nucleus");
  expect(!check_top_p(probs, 0.9, u, -1), "top-p checker flags an invalid token");

  const auto vals = rng.uniform_f16(100000, 0.0, 1.0);
  double sum = 0;
  for (half h : vals) sum += static_cast<float>(h);
  expect(check_reduce(vals, static_cast<float>(sum)), "reduce checker accepts the fp32 sum");
  expect(!check_reduce(vals, sum * 1.001), "reduce checker flags a 0.1% error");
}

}  // namespace

int run_selftest() {
  failures = 0;
  test_percentiles();
  test_schedule();
  test_checkers();
  return failures;
}

}  // namespace perfbench
