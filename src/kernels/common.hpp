// Shared helpers for the scan kernels: the GM views of the constant
// matrices of §4 (U_s upper-triangular all-ones, L_s^- strictly-lower
// all-ones, 1_s all-ones; see acc::ConstMatrix) and tiling arithmetic.
#pragma once

#include <cstdint>

#include "ascendc/ascendc.hpp"
#include "common/check.hpp"
#include "common/half.hpp"
#include "common/math_util.hpp"

namespace ascend::kernels {

/// Valid matrix-multiplication tile edges on the cube unit. s = 128
/// maximises L0A/L0B utilisation (paper §6.1); smaller values trade
/// efficiency for latency.
inline bool valid_tile_size(std::size_t s) {
  return s == 16 || s == 32 || s == 64 || s == 128;
}

/// ScanUL1's three constant matrices as one launch's GM views, acquired in
/// member order. Their host bytes belong to the Device, which builds each
/// once (the paper's PyTorch operator likewise "statically pre-allocates"
/// U_s, §6.1); a launch only takes GM addresses for them.
template <typename T>
struct ScanConstants {
  acc::ConstBuffer<T> upper;         // U_s
  acc::ConstBuffer<T> strict_lower;  // L_s^-
  acc::ConstBuffer<T> ones;          // 1_s

  ScanConstants(acc::Device& dev, std::size_t s)
      : upper(dev.constant<T>(acc::ConstKind::UpperOnes, s)),
        strict_lower(dev.constant<T>(acc::ConstKind::StrictLowerOnes, s)),
        ones(dev.constant<T>(acc::ConstKind::AllOnes, s)) {}
};

/// Contiguous [begin, end) element range of tile `t` among tiles of
/// length `tile` covering `n` elements.
struct TileRange {
  std::size_t begin;
  std::size_t len;
};

inline std::size_t num_tiles(std::size_t n, std::size_t tile) {
  return ceil_div(n, tile);
}

inline TileRange tile_range(std::size_t t, std::size_t n, std::size_t tile) {
  const std::size_t begin = t * tile;
  ASCAN_ASSERT(begin < n);
  return {begin, std::min(tile, n - begin)};
}

/// Static block partition of `count` items over `blocks` workers:
/// block b owns [item_begin, item_begin + item_count).
struct BlockShare {
  std::size_t begin;
  std::size_t count;
};

inline BlockShare block_share(std::size_t count, int blocks, int b) {
  const std::size_t base = count / static_cast<std::size_t>(blocks);
  const std::size_t rem = count % static_cast<std::size_t>(blocks);
  const auto ub = static_cast<std::size_t>(b);
  const std::size_t begin = ub * base + std::min(ub, rem);
  const std::size_t cnt = base + (ub < rem ? 1 : 0);
  return {begin, cnt};
}

}  // namespace ascend::kernels
