#include "kernels/scan_u.hpp"

#include "kernels/common.hpp"

namespace ascend::kernels {

using namespace acc;

sim::Report scan_u(Device& dev, GlobalTensor<half> x, GlobalTensor<half> y,
                   std::size_t n, std::size_t s) {
  ASCAN_CHECK(valid_tile_size(s), "scan_u: invalid tile size " << s);
  ASCAN_CHECK(x.size() >= n && y.size() >= n, "scan_u: tensors too small");
  if (n == 0) {
    sim::Report r;
    r.launches = 1;
    r.time_s = dev.config().launch_overhead_s;
    return r;
  }

  // U_s, built once per Device (the static pre-allocation of paper §6.1).
  auto upper = dev.constant<half>(ConstKind::UpperOnes, s);
  auto u_gm = upper.tensor();

  const std::size_t l = s * s;
  const std::size_t tiles = num_tiles(n, l);

  return launch(dev,
                {.block_dim = 1, .mode = LaunchMode::Mix, .name = "scan_u",
                 .outputs = {guard_output(y)}},
                [&, n, s, l, tiles](KernelContext& ctx) {
    auto& tile_ready = ctx.shared().flags("tile_ready", tiles);

    if (ctx.is_cube()) {
      TPipe pipe(ctx);
      TBuf u_l1(ctx, TPosition::B1), u_l0(ctx, TPosition::B2);
      pipe.InitBuffer(u_l1, l * sizeof(half));
      pipe.InitBuffer(u_l0, l * sizeof(half));
      TQue a_l1(ctx, TPosition::A1), a_l0(ctx, TPosition::A2),
          c_out(ctx, TPosition::CO1);
      pipe.InitBuffer(a_l1, 2, l * sizeof(half));
      pipe.InitBuffer(a_l0, 2, l * sizeof(half));
      pipe.InitBuffer(c_out, 2, l * sizeof(float));

      // Load U_s once into L0B (Algorithm 1 line 4).
      auto u_stage = u_l1.Get<half>();
      DataCopy(ctx, u_stage, u_gm, l);
      auto u_tile = u_l0.Get<half>();
      LoadData(ctx, u_tile, u_stage, l);

      for (std::size_t t = 0; t < tiles; ++t) {
        const TileRange r = tile_range(t, n, l);
        auto stage = a_l1.AllocTensor<half>();
        if (r.len < l) InitConstValue(ctx, stage, half(0.0f), l);
        DataCopy(ctx, stage, x.sub(r.begin, r.len), r.len);
        a_l1.EnQue(stage);

        auto st = a_l1.DeQue<half>();
        auto a_tile = a_l0.AllocTensor<half>();
        LoadData(ctx, a_tile, st, l);
        a_l1.FreeTensor(st);

        auto c_tile = c_out.AllocTensor<float>();
        Mmad(ctx, c_tile, a_tile, u_tile, s, s, s, /*accumulate=*/false);
        a_l0.FreeTensor(a_tile);

        // Local row scans land in GM for the vector core (cast f32->f16).
        Fixpipe(ctx, y.sub(r.begin, r.len), c_tile, r.len);
        c_out.FreeTensor(c_tile);
        tile_ready.set(ctx, t);
      }
    } else if (ctx.GetSubBlockIdx() == 0) {
      // A single vector core propagates the partial sums (Fig. 2).
      TPipe pipe(ctx);
      TQue ub(ctx, TPosition::VECIN);
      pipe.InitBuffer(ub, 2, l * sizeof(half));

      half partial(0.0f);  // scalar register (Algorithm 1 line 2)
      // Software pipelining: wait + fetch the next tile before propagating
      // through the current one, hiding the GM round trip.
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
        for (std::size_t off = 0; off < r.len; off += s) {
          const std::size_t len = std::min(s, r.len - off);
          auto row = tile.sub(off, len);
          Adds(ctx, row, row, partial, len);             // line 12
          partial = GetValue(ctx, row, len - 1);         // line 13
        }
        DataCopy(ctx, y.sub(r.begin, r.len), tile, r.len);
        ub.FreeTensor(tile);
      }
    }
  });
}

}  // namespace ascend::kernels
