// Ablation A1: MCScan's phase-I *recomputation* strategy (vector cores
// re-read the input to build the reductions while the cube cores scan —
// the paper's stated novelty, §4.3) versus a classic SSA-style schedule
// where the reduction runs as a separate pass before the local scans (no
// cube/vector overlap on the input).
//
// Expectation: the recomputing kernel wins because the input read is
// shared between the phases in time — the vector pass otherwise serialises
// a full extra traversal.
#include "bench_common.hpp"
#include "kernels/common.hpp"
#include "kernels/mcscan.hpp"

using namespace ascend;
using namespace ascend::bench;
using namespace ascend::acc;
using namespace ascend::kernels;

namespace {

/// SSA-style variant: pass 1 (vector-only) computes the sub-chunk
/// reductions; pass 2 is MCScan's cube phase + propagation, with the
/// vector units idle during phase I. Implemented with the same building
/// blocks to isolate the scheduling difference.
sim::Report mcscan_no_recompute(Device& dev, GlobalTensor<half> x,
                                GlobalTensor<float> y, std::size_t n) {
  const auto& cfg = dev.config();
  const int blocks = cfg.num_ai_cores;
  const int vpc = cfg.vec_per_core;
  const std::size_t s = 128, l = s * s;
  constexpr std::size_t kVecChunk = 8192;
  const std::size_t vtiles = num_tiles(n, kVecChunk);
  const std::size_t tiles = num_tiles(n, l);

  auto upper = dev.constant<half>(ConstKind::UpperOnes, s);
  auto u_gm = upper.tensor();
  auto r_buf = dev.alloc<float>(static_cast<std::size_t>(blocks * vpc), 0.0f);
  auto r_gm = r_buf.tensor();

  // Pass 1: reductions only (vector cores, cubes idle).
  sim::Report rep = launch(
      dev, {.block_dim = blocks * vpc, .mode = LaunchMode::VectorOnly,
            .name = "ssa_reduce"},
      [&, n, vtiles](KernelContext& ctx) {
        TPipe pipe(ctx);
        TQue in_q(ctx, TPosition::VECIN);
        pipe.InitBuffer(in_q, 2, kVecChunk * sizeof(half));
        TBuf wide_buf(ctx, TPosition::VECCALC), sum_buf(ctx,
                                                        TPosition::VECCALC);
        pipe.InitBuffer(wide_buf, kVecChunk * sizeof(float));
        pipe.InitBuffer(sum_buf, 64);
        auto wide = wide_buf.Get<float>();
        auto sum = sum_buf.Get<float>();
        const BlockShare share =
            block_share(vtiles, ctx.GetBlockDim(), ctx.GetBlockIdx());
        float acc = 0.0f;
        for (std::size_t t = share.begin; t < share.begin + share.count;
             ++t) {
          const TileRange r = tile_range(t, n, kVecChunk);
          auto chunk = in_q.AllocTensor<half>();
          DataCopy(ctx, chunk, x.sub(r.begin, r.len), r.len);
          in_q.EnQue(chunk);
          auto ch = in_q.DeQue<half>();
          Cast(ctx, wide, ch, r.len);
          in_q.FreeTensor(ch);
          ReduceSum(ctx, sum, wide, r.len);
          acc += GetValue(ctx, sum, 0);
        }
        SetValue(ctx, sum, 0, acc);
        DataCopy(ctx,
                 r_gm.sub(static_cast<std::size_t>(ctx.GetBlockIdx()), 1),
                 sum, 1);
      });

  // Pass 2: cube local scans + vector propagation (the vector cores wait
  // for the cube output instead of recomputing).
  rep += launch(
      dev, {.block_dim = blocks, .mode = LaunchMode::Mix, .name = "ssa_scan"},
      [&, n, tiles, blocks, vpc](KernelContext& ctx) {
        const int b = ctx.GetBlockIdx();
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
          const BlockShare share = block_share(tiles, blocks, b);
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
            auto c_tile = c_out.AllocTensor<float>();
            Mmad(ctx, c_tile, a_tile, u_tile, s, s, s, false);
            a_l0.FreeTensor(a_tile);
            Fixpipe(ctx, y.sub(r.begin, r.len), c_tile, r.len);
            c_out.FreeTensor(c_tile);
          }
          ctx.SyncAll();
        } else {
          const int v = ctx.GetSubBlockIdx();
          const int sub_idx = b * vpc + v;
          TPipe pipe(ctx);
          TQue y_q(ctx, TPosition::VECOUT);
          pipe.InitBuffer(y_q, 2, kVecChunk * sizeof(float));
          TBuf r_ub(ctx, TPosition::VECCALC), sum_buf(ctx,
                                                      TPosition::VECCALC);
          pipe.InitBuffer(r_ub,
                          static_cast<std::size_t>(blocks * vpc) *
                              sizeof(float));
          pipe.InitBuffer(sum_buf, 64);
          ctx.SyncAll();  // wait for the cube scans
          auto r_local = r_ub.Get<float>();
          auto sum = sum_buf.Get<float>();
          DataCopy(ctx, r_local, r_gm,
                   static_cast<std::size_t>(blocks * vpc));
          float base = 0.0f;
          if (sub_idx > 0) {
            ReduceSum(ctx, sum, r_local,
                      static_cast<std::size_t>(sub_idx));
            base = GetValue(ctx, sum, 0);
          }
          const BlockShare blk = block_share(vtiles, blocks, b);
          const BlockShare subshare = block_share(blk.count, vpc, v);
          float partial = base;
          for (std::size_t t = blk.begin + subshare.begin;
               t < blk.begin + subshare.begin + subshare.count; ++t) {
            const TileRange r = tile_range(t, n, kVecChunk);
            auto tile = y_q.AllocTensor<float>();
            DataCopy(ctx, tile, y.sub(r.begin, r.len), r.len);
            for (std::size_t off = 0; off < r.len; off += s) {
              const std::size_t len = std::min(s, r.len - off);
              auto row = tile.sub(off, len);
              Adds(ctx, row, row, partial, len);
              partial = GetValue(ctx, row, len - 1);
            }
            DataCopy(ctx, y.sub(r.begin, r.len), tile, r.len);
            y_q.FreeTensor(tile);
          }
        }
      });
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = BenchArgs::parse(argc, argv);
  print_header("Ablation A1",
               "MCScan phase-I recomputation vs SSA-style separate passes");

  Table table({"n", "mcscan_us", "ssa_variant_us", "recompute_gain"});
  const int max_pow = args.quick ? 21 : 23;
  for (int p = 15; p <= max_pow; ++p) {
    const std::size_t n = 1ull << p;
    acc::Device dev;
    auto x = dev.alloc<half>(n, half(0.0f));
    auto y = dev.alloc<float>(n, 0.0f);
    const auto mc =
        mcscan<half, float>(dev, x.tensor(), y.tensor(), n, {});
    const auto ssa = mcscan_no_recompute(dev, x.tensor(), y.tensor(), n);
    table.add_row({static_cast<std::int64_t>(n), us(mc), us(ssa),
                   ssa.time_s / mc.time_s});
  }
  table.print(std::cout);
  std::printf("\nexpectation: the recomputation schedule wins by hiding the "
              "reduction read under the cube phase (§4.3)\n");
  return 0;
}
