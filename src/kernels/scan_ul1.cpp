#include "kernels/scan_ul1.hpp"

#include "kernels/common.hpp"

namespace ascend::kernels {

using namespace acc;

sim::Report scan_ul1(Device& dev, GlobalTensor<half> x, GlobalTensor<half> y,
                     std::size_t n, std::size_t s) {
  ASCAN_CHECK(valid_tile_size(s), "scan_ul1: invalid tile size " << s);
  ASCAN_CHECK(x.size() >= n && y.size() >= n, "scan_ul1: tensors too small");
  if (n == 0) {
    sim::Report r;
    r.launches = 1;
    r.time_s = dev.config().launch_overhead_s;
    return r;
  }

  ScanConstants<half> consts(dev, s);
  auto u_gm = consts.upper.tensor();
  auto lm_gm = consts.strict_lower.tensor();
  auto ones_gm = consts.ones.tensor();

  const std::size_t l = s * s;
  const std::size_t tiles = num_tiles(n, l);

  return launch(
      dev,
      {.block_dim = 1, .mode = LaunchMode::Mix, .name = "scan_ul1",
       .outputs = {guard_output(y)}},
      [&, n, s, l, tiles](KernelContext& ctx) {
    auto& tile_ready = ctx.shared().flags("tile_ready", tiles);

    if (ctx.is_cube()) {
      TPipe pipe(ctx);
      // L1 staging: the three constant matrices (loaded once, Algorithm 2
      // line 4), the streamed A tile, and the C1 round-trip buffer.
      TBuf u_l1(ctx, TPosition::B1), lm_l1(ctx, TPosition::B1),
          ones_l1(ctx, TPosition::B1), c1_l1(ctx, TPosition::B1);
      for (auto* b : {&u_l1, &lm_l1, &ones_l1, &c1_l1}) {
        pipe.InitBuffer(*b, l * sizeof(half));
      }
      TQue a_l1(ctx, TPosition::A1);
      pipe.InitBuffer(a_l1, 2, l * sizeof(half));
      // L0A holds A then L^-; L0B cycles 1_s, U_s, C1. L0C holds C1 and C2.
      TQue a_l0(ctx, TPosition::A2), b_l0(ctx, TPosition::B2),
          c_l0(ctx, TPosition::CO1);
      pipe.InitBuffer(a_l0, 2, l * sizeof(half));
      pipe.InitBuffer(b_l0, 2, l * sizeof(half));
      pipe.InitBuffer(c_l0, 2, l * sizeof(float));

      auto u_stage = u_l1.Get<half>();
      auto lm_stage = lm_l1.Get<half>();
      auto ones_stage = ones_l1.Get<half>();
      auto c1_stage = c1_l1.Get<half>();
      DataCopy(ctx, u_stage, u_gm, l);
      DataCopy(ctx, lm_stage, lm_gm, l);
      DataCopy(ctx, ones_stage, ones_gm, l);

      for (std::size_t t = 0; t < tiles; ++t) {
        const TileRange r = tile_range(t, n, l);
        auto stage = a_l1.AllocTensor<half>();
        if (r.len < l) InitConstValue(ctx, stage, half(0.0f), l);
        DataCopy(ctx, stage, x.sub(r.begin, r.len), r.len);
        a_l1.EnQue(stage);

        auto st = a_l1.DeQue<half>();
        auto a_tile = a_l0.AllocTensor<half>();
        LoadData(ctx, a_tile, st, l);  // A stays in L0A for two Mmads
        a_l1.FreeTensor(st);

        // C1 = A @ 1_s  (lines 6-7; no accumulation, inputs kept)
        auto b_tile = b_l0.AllocTensor<half>();
        LoadData(ctx, b_tile, ones_stage, l);
        auto c1 = c_l0.AllocTensor<float>();
        Mmad(ctx, c1, a_tile, b_tile, s, s, s, /*accumulate=*/false);
        b_l0.FreeTensor(b_tile);

        // Copy C1 from L0C to L1 (line 8), quantised to f16 for reuse as a
        // matmul operand.
        FixpipeLocal(ctx, c1_stage, c1, l);
        c_l0.FreeTensor(c1);

        // C2 = A @ U_s  (lines 9-10)
        auto u_tile = b_l0.AllocTensor<half>();
        LoadData(ctx, u_tile, u_stage, l);
        auto c2 = c_l0.AllocTensor<float>();
        Mmad(ctx, c2, a_tile, u_tile, s, s, s, /*accumulate=*/false);
        b_l0.FreeTensor(u_tile);
        a_l0.FreeTensor(a_tile);

        // C2 += L^- @ C1  (lines 11-12; accumulation on, frees all inputs)
        auto lm_tile = a_l0.AllocTensor<half>();
        LoadData(ctx, lm_tile, lm_stage, l);
        auto c1_tile = b_l0.AllocTensor<half>();
        LoadData(ctx, c1_tile, c1_stage, l);
        Mmad(ctx, c2, lm_tile, c1_tile, s, s, s, /*accumulate=*/true);
        a_l0.FreeTensor(lm_tile);
        b_l0.FreeTensor(c1_tile);

        Fixpipe(ctx, y.sub(r.begin, r.len), c2, r.len);  // line 13
        c_l0.FreeTensor(c2);
        tile_ready.set(ctx, t);
      }
    } else if (ctx.GetSubBlockIdx() == 0) {
      TPipe pipe(ctx);
      TQue ub(ctx, TPosition::VECIN);
      pipe.InitBuffer(ub, 2, l * sizeof(half));

      half partial(0.0f);
      auto fetch = [&](std::size_t t) {
        const TileRange r = tile_range(t, n, l);
        tile_ready.wait(ctx, t);
        auto tile = ub.AllocTensor<half>();
        DataCopy(ctx, tile, y.sub(r.begin, r.len), r.len);
        ub.EnQue(tile);
      };
      if (tiles > 0) fetch(0);
      for (std::size_t t = 0; t < tiles; ++t) {
        const TileRange r = tile_range(t, n, l);
        if (t + 1 < tiles) fetch(t + 1);
        auto tile = ub.DeQue<half>();
        Adds(ctx, tile, tile, partial, r.len);     // line 16: whole tile
        partial = GetValue(ctx, tile, r.len - 1);  // line 17
        DataCopy(ctx, y.sub(r.begin, r.len), tile, r.len);
        ub.FreeTensor(tile);
      }
    }
  });
}

}  // namespace ascend::kernels
