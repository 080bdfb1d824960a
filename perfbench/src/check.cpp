#include "check.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/reference.hpp"
#include "kernels/vec_ref.hpp"

namespace perfbench {

namespace {

bool same_bits(std::span<const half> a, std::span<const half> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](half l, half r) { return l.bits() == r.bits(); });
}

bool same_ints(std::span<const std::int32_t> a, std::span<const std::int32_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

bool check_cumsum_f16(std::span<const half> x, std::span<const half> got) {
  ascend::vecref::VerifyStats st;
  ascend::vecref::verify_cumsum(x, got, st);
  return st.clean();
}

bool check_cumsum_f32(std::span<const half> x, std::span<const float> got) {
  return ascend::vecref::mismatch_count(ascend::vecref::inclusive_scan_f32(x),
                                        got) == 0;
}

bool check_segmented(std::span<const half> x, std::span<const std::int8_t> flags,
                     std::span<const float> got) {
  ascend::vecref::VerifyStats st;
  ascend::vecref::verify_segmented(x, flags, got, st);
  return st.clean();
}

bool check_sort(std::span<const half> x, bool descending,
                std::span<const half> values,
                std::span<const std::int32_t> indices) {
  const auto want = ascend::ref::stable_sort(x, descending);
  return same_bits(want.values, values) && same_ints(want.indices, indices);
}

bool check_split(std::span<const half> x, std::span<const std::int8_t> mask,
                 std::span<const half> values,
                 std::span<const std::int32_t> indices, std::size_t num_true) {
  const auto want = ascend::ref::split(x, mask);
  return want.num_true == num_true && same_bits(want.values, values) &&
         same_ints(want.indices, indices);
}

bool check_top_p(std::span<const half> probs, double p, double u,
                 std::int32_t token) {
  if (token == ascend::ref::top_p_sample(probs, p, u)) return true;
  // The device compares fp32 cumulative sums against the draw threshold;
  // accept a neighbouring token only when the threshold sits within fp32
  // rounding of the cumulative sum that separates the two.
  const auto sorted = ascend::ref::stable_sort(probs, /*descending=*/true);
  std::vector<double> cum(sorted.values.size());
  double acc = 0;
  for (std::size_t i = 0; i < cum.size(); ++i) {
    acc += static_cast<double>(static_cast<float>(sorted.values[i]));
    cum[i] = acc;
  }
  const auto it = std::find(sorted.indices.begin(), sorted.indices.end(), token);
  if (it == sorted.indices.end()) return false;
  const auto pos = static_cast<std::size_t>(it - sorted.indices.begin());
  const double tol = 4 * std::ldexp(1.0, -24) * std::max(1.0, acc);
  std::size_t kept = cum.size();
  for (std::size_t i = 1; i < cum.size(); ++i) {
    if (cum[i - 1] > p) {
      kept = i;
      break;
    }
  }
  if (pos >= kept) return false;
  const double theta = u * cum[kept - 1];
  const double lo = pos == 0 ? 0.0 : cum[pos - 1];
  return theta >= lo - tol && theta <= cum[pos] + tol;
}

bool check_reduce(std::span<const half> x, double got) {
  double sum = 0, abs_sum = 0;
  for (half h : x) {
    const double v = static_cast<float>(h);
    sum += v;
    abs_sum += std::fabs(v);
  }
  // fp32 rounding grows like a random walk over the n additions; four
  // standard deviations of it, plus one ulp of the sum.
  const double bound =
      4 * std::sqrt(static_cast<double>(x.size())) * std::ldexp(abs_sum, -24) +
      std::ldexp(std::fabs(sum), -23);
  return std::fabs(got - sum) <= bound;
}

}  // namespace perfbench
