#include "kernels/batched_scan.hpp"

#include "kernels/common.hpp"

namespace ascend::kernels {

using namespace acc;

namespace {

sim::Report empty_launch(Device& dev) {
  sim::Report r;
  r.launches = 1;
  r.time_s = dev.config().launch_overhead_s;
  return r;
}

/// The ScanU vector-side chain over one row tile held in UB.
void propagate_row_tile(KernelContext& ctx, const LocalTensor<half>& tile,
                        std::size_t len, std::size_t s, half& partial) {
  for (std::size_t off = 0; off < len; off += s) {
    const std::size_t chunk = std::min(s, len - off);
    auto row = tile.sub(off, chunk);
    Adds(ctx, row, row, partial, chunk);
    partial = GetValue(ctx, row, chunk - 1);
  }
}

}  // namespace

sim::Report batched_scan_u(Device& dev, GlobalTensor<half> x,
                           GlobalTensor<half> y, std::size_t batch,
                           std::size_t len, const BatchedScanOptions& opt) {
  const std::size_t s = opt.s;
  ASCAN_CHECK(valid_tile_size(s), "batched_scan_u: invalid tile size " << s);
  ASCAN_CHECK(x.size() >= batch * len && y.size() >= batch * len,
              "batched_scan_u: tensors too small");
  if (batch == 0 || len == 0) return empty_launch(dev);

  const sim::MachineConfig& cfg = dev.config();
  const int blocks = opt.blocks > 0 ? opt.blocks : cfg.num_ai_cores;
  const int vpc = cfg.vec_per_core;

  auto upper = dev.constant<half>(ConstKind::UpperOnes, s);
  auto u_gm = upper.tensor();

  const std::size_t l = s * s;
  const std::size_t row_tiles = num_tiles(len, l);
  // Row pairs are dealt round-robin to AI cores; within a core, vector
  // core v owns row (pair*vpc + v).
  const std::size_t groups = ceil_div(batch, static_cast<std::size_t>(vpc));

  return launch(
      dev,
      {.block_dim = blocks, .mode = LaunchMode::Mix, .name = "batched_scan_u",
       .outputs = {guard_output(y)}},
      [&, batch, len, s, l, row_tiles, groups, blocks, vpc](KernelContext& ctx) {
    const int b = ctx.GetBlockIdx();
    // A vector core that owns no row skips its set-up (it records no op).
    if (ctx.is_vector() &&
        static_cast<std::size_t>(b * vpc + ctx.GetSubBlockIdx()) >= batch) {
      return;
    }
    auto& ready = ctx.shared().flags("row_tile_ready", batch * row_tiles);

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

      auto u_stage = u_l1.Get<half>();
      DataCopy(ctx, u_stage, u_gm, l);
      auto u_tile = u_l0.Get<half>();
      LoadData(ctx, u_tile, u_stage, l);

      for (std::size_t g = static_cast<std::size_t>(b); g < groups;
           g += static_cast<std::size_t>(blocks)) {
        // Interleave the tiles of the group's rows so both vector cores
        // receive work at the same rate (Fig. 4).
        for (std::size_t t = 0; t < row_tiles; ++t) {
          for (int v = 0; v < vpc; ++v) {
            const std::size_t row = g * static_cast<std::size_t>(vpc) +
                                    static_cast<std::size_t>(v);
            if (row >= batch) continue;
            const TileRange r = tile_range(t, len, l);
            const std::size_t base = row * len + r.begin;
            auto stage = a_l1.AllocTensor<half>();
            if (r.len < l) InitConstValue(ctx, stage, half(0.0f), l);
            DataCopy(ctx, stage, x.sub(base, r.len), r.len);
            a_l1.EnQue(stage);
            auto st = a_l1.DeQue<half>();
            auto a_tile = a_l0.AllocTensor<half>();
            LoadData(ctx, a_tile, st, l);
            a_l1.FreeTensor(st);
            auto c_tile = c_out.AllocTensor<float>();
            Mmad(ctx, c_tile, a_tile, u_tile, s, s, s, false);
            a_l0.FreeTensor(a_tile);
            Fixpipe(ctx, y.sub(base, r.len), c_tile, r.len);
            c_out.FreeTensor(c_tile);
            ready.set(ctx, row * row_tiles + t);
          }
        }
      }
    } else {
      const int v = ctx.GetSubBlockIdx();
      TPipe pipe(ctx);
      TQue ub(ctx, TPosition::VECIN);
      pipe.InitBuffer(ub, 2, l * sizeof(half));

      for (std::size_t g = static_cast<std::size_t>(b); g < groups;
           g += static_cast<std::size_t>(blocks)) {
        const std::size_t row =
            g * static_cast<std::size_t>(vpc) + static_cast<std::size_t>(v);
        if (row >= batch) continue;
        half partial(0.0f);
        for (std::size_t t = 0; t < row_tiles; ++t) {
          const TileRange r = tile_range(t, len, l);
          const std::size_t base = row * len + r.begin;
          ready.wait(ctx, row * row_tiles + t);
          auto tile = ub.AllocTensor<half>();
          DataCopy(ctx, tile, y.sub(base, r.len), r.len);
          propagate_row_tile(ctx, tile, r.len, s, partial);
          DataCopy(ctx, y.sub(base, r.len), tile, r.len);
          ub.FreeTensor(tile);
        }
      }
    }
  });
}

sim::Report batched_scan_ul1(Device& dev, GlobalTensor<half> x,
                             GlobalTensor<half> y, std::size_t batch,
                             std::size_t len, const BatchedScanOptions& opt) {
  const std::size_t s = opt.s;
  ASCAN_CHECK(valid_tile_size(s), "batched_scan_ul1: invalid tile size " << s);
  ASCAN_CHECK(x.size() >= batch * len && y.size() >= batch * len,
              "batched_scan_ul1: tensors too small");
  if (batch == 0 || len == 0) return empty_launch(dev);

  const sim::MachineConfig& cfg = dev.config();
  const int blocks = opt.blocks > 0 ? opt.blocks : cfg.num_ai_cores;
  const int vpc = cfg.vec_per_core;

  ScanConstants<half> consts(dev, s);
  auto u_gm = consts.upper.tensor();
  auto lm_gm = consts.strict_lower.tensor();
  auto ones_gm = consts.ones.tensor();

  const std::size_t l = s * s;
  const std::size_t row_tiles = num_tiles(len, l);

  return launch(
      dev, {.block_dim = blocks, .mode = LaunchMode::Mix,
            .name = "batched_scan_ul1", .outputs = {guard_output(y)}},
      [&, batch, len, s, l, row_tiles, blocks, vpc](KernelContext& ctx) {
    const int b = ctx.GetBlockIdx();
    // A vector core that owns no row skips its set-up (it records no op).
    if (ctx.is_vector() &&
        static_cast<std::size_t>(b + ctx.GetSubBlockIdx() * blocks) >= batch) {
      return;
    }
    auto& ready = ctx.shared().flags("row_tile_ready", batch * row_tiles);

    if (ctx.is_cube()) {
      TPipe pipe(ctx);
      TBuf u_l1(ctx, TPosition::B1), lm_l1(ctx, TPosition::B1),
          ones_l1(ctx, TPosition::B1), c1_l1(ctx, TPosition::B1);
      for (auto* buf : {&u_l1, &lm_l1, &ones_l1, &c1_l1}) {
        pipe.InitBuffer(*buf, l * sizeof(half));
      }
      TQue a_l1(ctx, TPosition::A1), a_l0(ctx, TPosition::A2),
          b_l0(ctx, TPosition::B2), c_l0(ctx, TPosition::CO1);
      pipe.InitBuffer(a_l1, 2, l * sizeof(half));
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

      for (std::size_t row = static_cast<std::size_t>(b); row < batch;
           row += static_cast<std::size_t>(blocks)) {
        for (std::size_t t = 0; t < row_tiles; ++t) {
          const TileRange r = tile_range(t, len, l);
          const std::size_t base = row * len + r.begin;
          auto stage = a_l1.AllocTensor<half>();
          if (r.len < l) InitConstValue(ctx, stage, half(0.0f), l);
          DataCopy(ctx, stage, x.sub(base, r.len), r.len);
          a_l1.EnQue(stage);
          auto st = a_l1.DeQue<half>();
          auto a_tile = a_l0.AllocTensor<half>();
          LoadData(ctx, a_tile, st, l);
          a_l1.FreeTensor(st);

          auto b1_tile = b_l0.AllocTensor<half>();
          LoadData(ctx, b1_tile, ones_stage, l);
          auto c1 = c_l0.AllocTensor<float>();
          Mmad(ctx, c1, a_tile, b1_tile, s, s, s, false);
          b_l0.FreeTensor(b1_tile);
          FixpipeLocal(ctx, c1_stage, c1, l);
          c_l0.FreeTensor(c1);

          auto u_tile = b_l0.AllocTensor<half>();
          LoadData(ctx, u_tile, u_stage, l);
          auto c2 = c_l0.AllocTensor<float>();
          Mmad(ctx, c2, a_tile, u_tile, s, s, s, false);
          b_l0.FreeTensor(u_tile);
          a_l0.FreeTensor(a_tile);

          auto lm_tile = a_l0.AllocTensor<half>();
          LoadData(ctx, lm_tile, lm_stage, l);
          auto c1_tile = b_l0.AllocTensor<half>();
          LoadData(ctx, c1_tile, c1_stage, l);
          Mmad(ctx, c2, lm_tile, c1_tile, s, s, s, true);
          a_l0.FreeTensor(lm_tile);
          b_l0.FreeTensor(c1_tile);

          Fixpipe(ctx, y.sub(base, r.len), c2, r.len);
          c_l0.FreeTensor(c2);
          ready.set(ctx, row * row_tiles + t);
        }
      }
    } else {
      // The block's rows alternate between its two vector cores.
      const int v = ctx.GetSubBlockIdx();
      TPipe pipe(ctx);
      TQue ub(ctx, TPosition::VECIN);
      pipe.InitBuffer(ub, 2, l * sizeof(half));

      std::size_t local = 0;
      for (std::size_t row = static_cast<std::size_t>(b); row < batch;
           row += static_cast<std::size_t>(blocks), ++local) {
        if (local % static_cast<std::size_t>(vpc) !=
            static_cast<std::size_t>(v)) {
          continue;
        }
        half partial(0.0f);
        for (std::size_t t = 0; t < row_tiles; ++t) {
          const TileRange r = tile_range(t, len, l);
          const std::size_t base = row * len + r.begin;
          ready.wait(ctx, row * row_tiles + t);
          auto tile = ub.AllocTensor<half>();
          DataCopy(ctx, tile, y.sub(base, r.len), r.len);
          Adds(ctx, tile, tile, partial, r.len);  // one add per l-tile
          partial = GetValue(ctx, tile, r.len - 1);
          DataCopy(ctx, y.sub(base, r.len), tile, r.len);
          ub.FreeTensor(tile);
        }
      }
    }
  });
}

}  // namespace ascend::kernels
