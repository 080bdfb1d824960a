// Functional tests of the alternative scan strategies (StreamScan and
// decoupled look-back) against the CPU reference and MCScan.
#include <gtest/gtest.h>

#include "kernels/mcscan.hpp"
#include "kernels/reference.hpp"
#include "kernels/scan_strategies.hpp"
#include "test_helpers.hpp"

namespace ascend::kernels {
namespace {

using acc::Device;
using StrategyFn = sim::Report (*)(Device&, acc::GlobalTensor<half>,
                                   acc::GlobalTensor<float>, std::size_t,
                                   const StrategyOptions&);

struct Case {
  const char* name;
  StrategyFn fn;
};

class ScanStrategy
    : public ::testing::TestWithParam<std::tuple<Case, std::size_t, int>> {};

TEST_P(ScanStrategy, MatchesReferenceExactly) {
  const auto [c, n, blocks] = GetParam();
  Device dev;
  auto x = dev.upload(testing::exact_scan_workload(n, n * 13 + 1));
  auto y = dev.alloc<float>(n, -1.0f);
  c.fn(dev, x.tensor(), y.tensor(), n, {.blocks = blocks});
  const auto want =
      ref::inclusive_scan<half, float>(std::span<const half>(x.host()));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(y[i], want[i]) << c.name << " n=" << n << " blocks=" << blocks
                             << " i=" << i;
  }
}

const Case kCases[] = {
    {"stream_scan", &stream_scan},
    {"lookback_scan", &lookback_scan},
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScanStrategy,
    ::testing::Combine(
        ::testing::ValuesIn(kCases),
        ::testing::Values<std::size_t>(1, 100, 8192, 8193, 70000, 500000),
        ::testing::Values(1, 3, 40)),
    [](const auto& ti) {
      return std::string(std::get<0>(ti.param).name) + "_n" +
             std::to_string(std::get<1>(ti.param)) + "_b" +
             std::to_string(std::get<2>(ti.param));
    });

TEST(ScanStrategyNoise, LookbackWithinFp32Tolerance) {
  const std::size_t n = 200000;
  Device dev;
  auto host = testing::noise_workload(n, 9);
  auto x = dev.upload(host);
  auto y = dev.alloc<float>(n, 0.0f);
  lookback_scan(dev, x.tensor(), y.tensor(), n, {});
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += double(float(host[i]));
    if (i % 997 == 0 || i == n - 1) {
      EXPECT_NEAR(y[i], acc, 0.25) << i;
    }
  }
}

TEST(ScanStrategyTiming, LookbackBeatsStreamScanAtScale) {
  const std::size_t n = 1 << 21;
  Device dev;
  auto x = dev.alloc<half>(n, half(0.0f));
  auto y = dev.alloc<float>(n, 0.0f);
  const double t_ss = stream_scan(dev, x.tensor(), y.tensor(), n, {}).time_s;
  const double t_lb = lookback_scan(dev, x.tensor(), y.tensor(), n, {}).time_s;
  // The serial GM-latency chain of StreamScan dominates at scale; the
  // look-back decouples it (the point of [36]).
  EXPECT_LT(t_lb, t_ss);
}

TEST(ScanStrategyTiming, McScanCompetitiveWithSinglePassStrategies) {
  const std::size_t n = 1 << 21;
  Device dev;
  auto x = dev.alloc<half>(n, half(0.0f));
  auto y = dev.alloc<float>(n, 0.0f);
  const double t_mc =
      mcscan<half, float>(dev, x.tensor(), y.tensor(), n, {}).time_s;
  const double t_lb = lookback_scan(dev, x.tensor(), y.tensor(), n, {}).time_s;
  // Neither should dominate by an order of magnitude; MCScan's win is
  // using the otherwise-idle cube cores.
  EXPECT_LT(t_mc, 5.0 * t_lb);
  EXPECT_LT(t_lb, 5.0 * t_mc);
}

}  // namespace
}  // namespace ascend::kernels
