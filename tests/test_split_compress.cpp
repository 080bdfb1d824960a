// Functional tests of SplitInd, Compress, and the masked_select baseline.
#include <gtest/gtest.h>

#include "kernels/reference.hpp"
#include "kernels/split.hpp"
#include "test_helpers.hpp"

namespace ascend::kernels {
namespace {

using acc::Device;

class SplitInd : public ::testing::TestWithParam<
                     std::tuple<std::size_t, double, std::size_t>> {};

TEST_P(SplitInd, StableSplitWithIndices) {
  const auto [n, density, s] = GetParam();
  Device dev;
  Rng rng(n * 7 + s);
  auto keys_host = rng.uniform_f16(n, -4.0, 4.0);
  auto mask_host = rng.mask_i8(n, density);
  auto keys = dev.upload(keys_host);
  auto mask = dev.upload(mask_host);
  auto keys_out = dev.alloc<half>(n, half(0.0f));
  auto idx_out = dev.alloc<std::int32_t>(n, -1);

  const auto r =
      split_ind<half>(dev, keys.tensor(), {}, mask.tensor(),
                      keys_out.tensor(), idx_out.tensor(), n, {.s = s});

  const auto want = ref::split(std::span<const half>(keys_host),
                               std::span<const std::int8_t>(mask_host));
  ASSERT_EQ(r.num_true, want.num_true);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys_out[i].bits(), want.values[i].bits()) << "value @" << i;
    ASSERT_EQ(idx_out[i], want.indices[i]) << "index @" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplitInd,
    ::testing::Combine(::testing::Values<std::size_t>(1, 100, 8192, 100001),
                       ::testing::Values(0.0, 0.1, 0.5, 1.0),
                       ::testing::Values<std::size_t>(32, 128)),
    [](const auto& ti) {
      return "n" + std::to_string(std::get<0>(ti.param)) + "_p" +
             std::to_string(static_cast<int>(std::get<1>(ti.param) * 10)) +
             "_s" + std::to_string(std::get<2>(ti.param));
    });

TEST(SplitIndPayload, CarriesCallerIndices) {
  const std::size_t n = 5000;
  Device dev;
  Rng rng(2);
  auto keys_host = rng.uniform_f16(n, 0.0, 1.0);
  auto mask_host = rng.mask_i8(n, 0.4);
  std::vector<std::int32_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::int32_t>(1000000 + i * 3);
  }
  auto keys = dev.upload(keys_host);
  auto mask = dev.upload(mask_host);
  auto idx_in = dev.upload(payload);
  auto keys_out = dev.alloc<half>(n);
  auto idx_out = dev.alloc<std::int32_t>(n);
  split_ind<half>(dev, keys.tensor(), idx_in.tensor(), mask.tensor(),
                  keys_out.tensor(), idx_out.tensor(), n, {});
  const auto want = ref::split(std::span<const half>(keys_host),
                               std::span<const std::int8_t>(mask_host));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(idx_out[i],
              payload[static_cast<std::size_t>(want.indices[i])])
        << i;
  }
}

TEST(SplitIndU16, EncodedKeysPath) {
  const std::size_t n = 30000;
  Device dev;
  Rng rng(4);
  std::vector<std::uint16_t> keys_host(n);
  for (auto& v : keys_host) {
    v = static_cast<std::uint16_t>(rng.next_below(65536));
  }
  auto mask_host = rng.mask_i8(n, 0.5);
  auto keys = dev.upload(keys_host);
  auto mask = dev.upload(mask_host);
  auto keys_out = dev.alloc<std::uint16_t>(n);
  auto idx_out = dev.alloc<std::int32_t>(n);
  const auto r = split_ind<std::uint16_t>(dev, keys.tensor(), {},
                                          mask.tensor(), keys_out.tensor(),
                                          idx_out.tensor(), n, {});
  // Verify against a hand-rolled stable split.
  std::size_t pos = 0;
  for (int want_flag = 1; want_flag >= 0; --want_flag) {
    for (std::size_t i = 0; i < n; ++i) {
      if (mask_host[i] == want_flag) {
        ASSERT_EQ(keys_out[pos], keys_host[i]) << pos;
        ASSERT_EQ(idx_out[pos], static_cast<std::int32_t>(i)) << pos;
        ++pos;
      }
    }
    if (want_flag == 1) {
      ASSERT_EQ(pos, r.num_true);
    }
  }
}

class Compress
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(Compress, MatchesMaskedSelectReference) {
  const auto [n, density] = GetParam();
  Device dev;
  Rng rng(n + 17);
  auto x_host = rng.uniform_f16(n, -1.0, 1.0);
  auto mask_host = rng.mask_i8(n, density);
  auto x = dev.upload(x_host);
  auto mask = dev.upload(mask_host);
  auto out = dev.alloc<half>(n, half(7.0f));
  const auto r = compress(dev, x.tensor(), mask.tensor(), out.tensor(), n, {});
  const auto want = ref::compress(std::span<const half>(x_host),
                                  std::span<const std::int8_t>(mask_host));
  ASSERT_EQ(r.num_true, want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i].bits(), want[i].bits()) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Compress,
    ::testing::Combine(::testing::Values<std::size_t>(1, 1000, 65536, 200000),
                       ::testing::Values(0.0, 0.25, 0.5, 0.9, 1.0)),
    [](const auto& ti) {
      return "n" + std::to_string(std::get<0>(ti.param)) + "_p" +
             std::to_string(static_cast<int>(std::get<1>(ti.param) * 100));
    });

TEST(MaskedSelectBaseline, SameResultMuchSlower) {
  const std::size_t n = 200000;
  Device dev;
  Rng rng(23);
  auto x_host = rng.uniform_f16(n, -1.0, 1.0);
  auto mask_host = rng.mask_i8(n, 0.5);
  auto x = dev.upload(x_host);
  auto mask = dev.upload(mask_host);
  auto out_fast = dev.alloc<half>(n);
  auto out_slow = dev.alloc<half>(n);
  const auto fast =
      compress(dev, x.tensor(), mask.tensor(), out_fast.tensor(), n, {});
  const auto slow = masked_select_baseline(dev, x.tensor(), mask.tensor(),
                                           out_slow.tensor(), n);
  ASSERT_EQ(fast.num_true, slow.num_true);
  for (std::size_t i = 0; i < fast.num_true; ++i) {
    ASSERT_EQ(out_fast[i].bits(), out_slow[i].bits()) << i;
  }
  // Fig. 10: the baseline "is not optimized on Ascend" — orders slower.
  EXPECT_GT(slow.report.time_s, 10.0 * fast.report.time_s);
}

TEST(CompressEdge, OutputBufferSizedToKeptCount) {
  const std::size_t n = 1000;
  Device dev;
  std::vector<std::int8_t> mask_host(n, 0);
  mask_host[10] = mask_host[500] = 1;
  auto x = dev.upload(std::vector<half>(n, half(2.0f)));
  auto mask = dev.upload(mask_host);
  auto out = dev.alloc<half>(2);
  const auto r = compress(dev, x.tensor(), mask.tensor(), out.tensor(), n, {});
  EXPECT_EQ(r.num_true, 2u);
  auto small = dev.alloc<half>(1);
  EXPECT_THROW(compress(dev, x.tensor(), mask.tensor(), small.tensor(), n, {}),
               Error);
}

}  // namespace
}  // namespace ascend::kernels
