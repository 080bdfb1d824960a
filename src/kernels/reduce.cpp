#include "kernels/reduce.hpp"

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
}  // namespace

ReduceResult reduce_cube(Device& dev, GlobalTensor<half> x, std::size_t n,
                         const ReduceOptions& opt) {
  const std::size_t s = opt.s;
  ASCAN_CHECK(valid_tile_size(s), "reduce_cube: invalid tile size " << s);
  ASCAN_CHECK(x.size() >= n, "reduce_cube: tensor too small");
  ReduceResult result;
  if (n == 0) {
    result.report = empty_launch(dev);
    return result;
  }

  const sim::MachineConfig& cfg = dev.config();
  const int blocks = opt.blocks > 0 ? opt.blocks : cfg.num_ai_cores;
  const std::size_t l = s * s;
  const std::size_t tiles = num_tiles(n, l);
  const auto active =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(blocks), tiles));

  auto ones = dev.constant<half>(ConstKind::AllOnes, s);
  auto ones_gm = ones.tensor();
  // Per-block partial sums: each block drains its whole accumulator tile
  // (every entry of column j equals the row sum, so the grand total is the
  // tile sum divided by s — exact for power-of-two s).
  auto partials = dev.alloc<float>(static_cast<std::size_t>(active) * l, 0.0f);
  auto part_gm = partials.tensor();
  // Stage-2 per-block partials and the final result.
  auto stage2 = dev.alloc<float>(static_cast<std::size_t>(active), 0.0f);
  auto st2_gm = stage2.tensor();
  auto out = dev.alloc<float>(1, 0.0f);
  auto out_gm = out.tensor();

  result.report = launch(
      dev,
      {.block_dim = active, .mode = LaunchMode::Mix, .name = "reduce_cube"},
      [&, n, s, l, tiles, active](KernelContext& ctx) {
        const int b = ctx.GetBlockIdx();
        if (ctx.is_cube()) {
          TPipe pipe(ctx);
          TBuf ones_l1(ctx, TPosition::B1), ones_l0(ctx, TPosition::B2),
              acc_l0(ctx, TPosition::CO1);
          pipe.InitBuffer(ones_l1, l * sizeof(half));
          pipe.InitBuffer(ones_l0, l * sizeof(half));
          pipe.InitBuffer(acc_l0, l * sizeof(float));
          TQue a_l1(ctx, TPosition::A1), a_l0(ctx, TPosition::A2);
          pipe.InitBuffer(a_l1, 3, l * sizeof(half));
          pipe.InitBuffer(a_l0, 2, l * sizeof(half));

          auto ones_stage = ones_l1.Get<half>();
          DataCopy(ctx, ones_stage, ones_gm, l);
          auto ones_tile = ones_l0.Get<half>();
          LoadData(ctx, ones_tile, ones_stage, l);
          auto acc = acc_l0.Get<float>();

          const BlockShare share = block_share(tiles, active, b);
          bool first = true;
          for (std::size_t t = share.begin; t < share.begin + share.count;
               ++t) {
            const TileRange r = tile_range(t, n, l);
            auto stage = a_l1.AllocTensor<half>();
            if (r.len < l) InitConstValue(ctx, stage, half(0.0f), l);
            DataCopy(ctx, stage, x.sub(r.begin, r.len), r.len);
            a_l1.EnQue(stage);
            auto st = a_l1.DeQue<half>();
            auto a_tile = a_l0.AllocTensor<half>();
            LoadData(ctx, a_tile, st, l);
            a_l1.FreeTensor(st);
            // The whole share accumulates into one L0C tile.
            Mmad(ctx, acc, a_tile, ones_tile, s, s, s, /*accumulate=*/!first);
            first = false;
            a_l0.FreeTensor(a_tile);
          }
          if (share.count > 0) {
            // Drain the whole accumulator tile: row i repeats its row sum
            // in every column, so the tile total is s * (block partial).
            Fixpipe(ctx, part_gm.sub(static_cast<std::size_t>(b) * l, l),
                    acc, l);
          }
          ctx.SyncAll();
          ctx.SyncAll();  // stage-2 barrier (vector folds)
        } else if (ctx.GetSubBlockIdx() == 0) {
          TPipe pipe(ctx);
          TBuf pb(ctx, TPosition::VECIN), sb(ctx, TPosition::VECCALC);
          constexpr std::size_t kRed = 8192;
          pipe.InitBuffer(pb, kRed * sizeof(float));
          pipe.InitBuffer(sb, 64);
          ctx.SyncAll();
          // Each block folds its own accumulator tile in parallel.
          auto parts = pb.Get<float>();
          auto sum = sb.Get<float>();
          float acc2 = 0.0f;
          for (std::size_t off = 0; off < l; off += kRed) {
            const std::size_t len = std::min(kRed, l - off);
            DataCopy(ctx, parts,
                     part_gm.sub(static_cast<std::size_t>(b) * l + off, len),
                     len);
            ReduceSum(ctx, sum, parts, len);
            acc2 += GetValue(ctx, sum, 0);
          }
          // Every row sum is repeated s times across the columns.
          SetValue(ctx, sum, 0, acc2 / static_cast<float>(s));
          DataCopy(ctx, st2_gm.sub(static_cast<std::size_t>(b), 1), sum, 1);
          ctx.SyncAll();
          if (b == 0) {
            DataCopy(ctx, parts, st2_gm, static_cast<std::size_t>(active));
            ReduceSum(ctx, sum, parts, static_cast<std::size_t>(active));
            DataCopy(ctx, out_gm, sum, 1);
          }
        } else {
          ctx.SyncAll();
          ctx.SyncAll();
        }
      });
  result.value = out[0];
  result.report += dev.host_sync_report();
  return result;
}

ReduceResult reduce_vector(Device& dev, GlobalTensor<half> x, std::size_t n,
                           int blocks) {
  ASCAN_CHECK(x.size() >= n, "reduce_vector: tensor too small");
  ReduceResult result;
  if (n == 0) {
    result.report = empty_launch(dev);
    return result;
  }
  const int nb = (blocks > 0 ? blocks : dev.config().num_ai_cores) *
                 dev.config().vec_per_core;
  constexpr std::size_t kChunk = 8192;
  const std::size_t chunks = num_tiles(n, kChunk);
  const auto active = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(nb), chunks));
  auto partials = dev.alloc<float>(static_cast<std::size_t>(active), 0.0f);
  auto part_gm = partials.tensor();

  result.report = launch(
      dev,
      {.block_dim = active, .mode = LaunchMode::VectorOnly,
       .name = "reduce_vector"},
      [&, n, chunks](KernelContext& ctx) {
        TPipe pipe(ctx);
        TQue in_q(ctx, TPosition::VECIN);
        pipe.InitBuffer(in_q, 3, kChunk * sizeof(half));
        TBuf wb(ctx, TPosition::VECCALC), sb(ctx, TPosition::VECCALC);
        pipe.InitBuffer(wb, kChunk * sizeof(float));
        pipe.InitBuffer(sb, 64);
        auto wide = wb.Get<float>();
        auto sum = sb.Get<float>();
        const BlockShare share =
            block_share(chunks, ctx.GetBlockDim(), ctx.GetBlockIdx());
        auto fetch = [&](std::size_t c) {
          const TileRange r = tile_range(c, n, kChunk);
          auto t = in_q.AllocTensor<half>();
          DataCopy(ctx, t, x.sub(r.begin, r.len), r.len);
          in_q.EnQue(t);
        };
        float acc = 0.0f;
        const std::size_t end = share.begin + share.count;
        if (share.count > 0) fetch(share.begin);
        for (std::size_t c = share.begin; c < end; ++c) {
          const TileRange r = tile_range(c, n, kChunk);
          if (c + 1 < end) fetch(c + 1);
          auto t = in_q.DeQue<half>();
          Cast(ctx, wide, t, r.len);
          in_q.FreeTensor(t);
          ReduceSum(ctx, sum, wide, r.len);
          acc += GetValue(ctx, sum, 0);
        }
        SetValue(ctx, sum, 0, acc);
        DataCopy(ctx,
                 part_gm.sub(static_cast<std::size_t>(ctx.GetBlockIdx()), 1),
                 sum, 1);
      });

  double total = 0.0;
  for (int b = 0; b < active; ++b) {
    total += partials[static_cast<std::size_t>(b)];
  }
  result.value = static_cast<float>(total);
  result.report += dev.host_sync_report();
  return result;
}

}  // namespace ascend::kernels
