// Functional tests of the segmented scan operator.
#include <gtest/gtest.h>

#include "kernels/segmented_scan.hpp"
#include "test_helpers.hpp"

namespace ascend::kernels {
namespace {

using acc::Device;

std::vector<float> ref_segmented_scan(std::span<const half> x,
                                      std::span<const std::int8_t> flags) {
  std::vector<float> out(x.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (flags[i] != 0) acc = 0.0;
    acc += double(float(x[i]));
    out[i] = static_cast<float>(acc);
  }
  return out;
}

class SegScan : public ::testing::TestWithParam<
                    std::tuple<std::size_t, double, int>> {};

TEST_P(SegScan, MatchesReference) {
  const auto [n, start_density, blocks] = GetParam();
  Device dev;
  Rng rng(n * 17 + static_cast<std::size_t>(start_density * 100));
  std::vector<half> x(n);
  for (auto& v : x) v = half(rng.bernoulli(0.05) ? 1.0f : 0.0f);
  auto f = rng.mask_i8(n, start_density);
  auto gx = dev.upload(x);
  auto gf = dev.upload(f);
  auto gy = dev.alloc<float>(n, -1.0f);
  segmented_scan(dev, gx.tensor(), gf.tensor(), gy.tensor(), n,
                 {.blocks = blocks});
  const auto want = ref_segmented_scan(std::span<const half>(x),
                                       std::span<const std::int8_t>(f));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(gy[i], want[i]) << "n=" << n << " d=" << start_density
                              << " blocks=" << blocks << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegScan,
    ::testing::Combine(::testing::Values<std::size_t>(1, 100, 4096, 4097,
                                                      100000),
                       ::testing::Values(0.0, 0.001, 0.1, 1.0),
                       ::testing::Values(1, 20)),
    [](const auto& ti) {
      return "n" + std::to_string(std::get<0>(ti.param)) + "_d" +
             std::to_string(
                 static_cast<int>(std::get<1>(ti.param) * 1000)) +
             "_b" + std::to_string(std::get<2>(ti.param));
    });

TEST(SegScanEdge, SingleSegmentEqualsPlainScan) {
  const std::size_t n = 30000;
  Device dev;
  Rng rng(4);
  std::vector<half> x(n);
  for (auto& v : x) v = half(rng.bernoulli(0.1) ? 1.0f : 0.0f);
  std::vector<std::int8_t> f(n, 0);  // no explicit starts
  auto gx = dev.upload(x);
  auto gf = dev.upload(f);
  auto gy = dev.alloc<float>(n);
  segmented_scan(dev, gx.tensor(), gf.tensor(), gy.tensor(), n, {});
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; i += 37) {
    // recompute reference lazily
  }
  double racc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    racc += double(float(x[i]));
    if (i % 37 == 0 || i == n - 1) {
      ASSERT_EQ(gy[i], racc) << i;
    }
  }
  (void)acc;
}

TEST(SegScanEdge, EveryElementItsOwnSegment) {
  // Integer-valued data: the cs - base formulation is exact (general
  // floats would show fp32 cancellation noise, as on real hardware).
  const std::size_t n = 10000;
  Device dev;
  Rng rng(5);
  std::vector<half> x(n);
  for (auto& v : x) {
    v = half(static_cast<float>(rng.next_below(7)) - 3.0f);
  }
  std::vector<std::int8_t> f(n, 1);
  auto gx = dev.upload(x);
  auto gf = dev.upload(f);
  auto gy = dev.alloc<float>(n);
  segmented_scan(dev, gx.tensor(), gf.tensor(), gy.tensor(), n, {});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(gy[i], float(x[i])) << i;
  }
}

TEST(SegScanEdge, SegmentSpanningManyChunksAndWorkers) {
  // One start near the beginning; the segment spans every chunk boundary
  // and every worker boundary.
  const std::size_t n = 200000;
  Device dev;
  std::vector<half> x(n, half(0.0f));
  std::vector<std::int8_t> f(n, 0);
  f[3] = 1;
  for (std::size_t i = 0; i < n; i += 1000) x[i] = half(1.0f);
  auto gx = dev.upload(x);
  auto gf = dev.upload(f);
  auto gy = dev.alloc<float>(n);
  segmented_scan(dev, gx.tensor(), gf.tensor(), gy.tensor(), n, {});
  // y[n-1] = number of 1.0 marks at positions >= 3... all multiples of
  // 1000 except position 0 restart? position 0 starts segment A (implicit),
  // position 3 starts segment B which runs to the end.
  double want = 0.0;
  for (std::size_t i = 3; i < n; ++i) want += double(float(x[i]));
  ASSERT_EQ(gy[n - 1], want);
  ASSERT_EQ(gy[2], 1.0f);  // implicit first segment: x[0] = 1
}

}  // namespace
}  // namespace ascend::kernels
