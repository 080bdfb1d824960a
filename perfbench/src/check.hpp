// Output checkers, one per op kind. Each returns true when `got` is a
// correct answer for input `x`; the workloads call them outside the timed
// window on every output they produce.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/half.hpp"

namespace perfbench {

using ascend::half;

/// fp16 row cumsum of integer-valued input: bit-exact (vecref).
bool check_cumsum_f16(std::span<const half> x, std::span<const half> got);
/// fp32 cumsum of integer-valued input: bit-exact (vecref).
bool check_cumsum_f32(std::span<const half> x, std::span<const float> got);
/// Segmented cumsum of integer-valued input: bit-exact (vecref).
bool check_segmented(std::span<const half> x, std::span<const std::int8_t> flags,
                     std::span<const float> got);
/// Stable sort: values and indices equal ref::stable_sort.
bool check_sort(std::span<const half> x, bool descending,
                std::span<const half> values,
                std::span<const std::int32_t> indices);
/// Stable split: values, indices and true-count equal ref::split.
bool check_split(std::span<const half> x, std::span<const std::int8_t> mask,
                 std::span<const half> values,
                 std::span<const std::int32_t> indices, std::size_t num_true);
/// Top-p draw: `token` equals ref::top_p_sample(probs, p, u), or the draw
/// threshold lies within fp32 rounding of the boundary between the two
/// tokens' cumulative sums.
bool check_top_p(std::span<const half> probs, double p, double u,
                 std::int32_t token);
/// Sum reduction: within 4 * sqrt(n) * 2^-24 * sum|x| (plus one fp32 ulp)
/// of the fp64 sum.
bool check_reduce(std::span<const half> x, double got);

}  // namespace perfbench
