#include "kernels/mcscan.hpp"

#include "kernels/common.hpp"

namespace ascend::kernels {

using namespace acc;

namespace {

/// Sub-chunks of phase-I vector reduction / phase-II propagation: each
/// block's tile range is split between its two AIV cores, so the r array
/// has blocks * vec_per_core entries (the 2:1 ratio of §4.2 / §4.3).
struct SubChunk {
  std::size_t tile_begin;
  std::size_t tile_count;
};

SubChunk subchunk_of(std::size_t tiles, int blocks, int vec_per_core, int b,
                     int v) {
  const BlockShare blk = block_share(tiles, blocks, b);
  const BlockShare sub =
      block_share(blk.count, vec_per_core, v);
  return {blk.begin + sub.begin, sub.count};
}

}  // namespace

template <typename In, typename Out>
sim::Report mcscan(Device& dev, GlobalTensor<In> x, GlobalTensor<Out> y,
                   std::size_t n, const McScanOptions& opt) {
  static_assert(std::is_same_v<Out, cube_accum_t<In>>,
                "MCScan output type must be the cube accumulator type");
  const std::size_t s = opt.s;
  ASCAN_CHECK(valid_tile_size(s), "mcscan: invalid tile size " << s);
  ASCAN_CHECK(x.size() >= n && y.size() >= n, "mcscan: tensors too small");
  if (n == 0) {
    sim::Report r;
    r.launches = 1;
    r.time_s = dev.config().launch_overhead_s;
    return r;
  }

  const sim::MachineConfig& cfg = dev.config();
  const int blocks = opt.blocks > 0 ? opt.blocks : cfg.num_ai_cores;
  const int vpc = cfg.vec_per_core;

  auto upper = dev.constant<In>(ConstKind::UpperOnes, s);
  auto u_gm = upper.tensor();

  const std::size_t l = s * s;
  const std::size_t tiles = num_tiles(n, l);
  // Phase-I reductions and phase-II propagation work on UB-friendly
  // chunks (independent of the matmul tile so big s still fits the UB).
  const std::size_t kVecChunk = 8192;
  const std::size_t vtiles = num_tiles(n, kVecChunk);

  // Block-level (strictly: sub-chunk-level) reduction array r in GM.
  auto r_buf = dev.alloc<Out>(static_cast<std::size_t>(blocks * vpc), Out{});
  auto r_gm = r_buf.tensor();

  // Exclusive scans write shifted by one element (§4.3); the local scans
  // then need their own GM buffer, otherwise a vector core's shifted write
  // could overwrite the local-scan value of its neighbour's first tile
  // before the neighbour has read it.
  acc::GlobalBuffer<Out> scratch;
  if (opt.exclusive) scratch = dev.alloc<Out>(n);
  auto local_scans = opt.exclusive ? scratch.tensor() : y;

  auto rep = launch(
      dev,
      {.block_dim = blocks, .mode = LaunchMode::Mix, .name = "mcscan",
       .timeline = opt.timeline,
       .outputs = {guard_output(y), guard_output(r_gm)}},
      [&, n, s, l, tiles, vtiles, blocks, vpc](KernelContext& ctx) {
    const int b = ctx.GetBlockIdx();

    if (ctx.is_cube()) {
      // ---- Phase I, cube side: local s-row scans of this block's tiles.
      TPipe pipe(ctx);
      TBuf u_l1(ctx, TPosition::B1), u_l0(ctx, TPosition::B2);
      pipe.InitBuffer(u_l1, l * sizeof(In));
      pipe.InitBuffer(u_l0, l * sizeof(In));
      TQue a_l1(ctx, TPosition::A1), a_l0(ctx, TPosition::A2),
          c_out(ctx, TPosition::CO1);
      pipe.InitBuffer(a_l1, 3, l * sizeof(In));  // hide GM latency
      pipe.InitBuffer(a_l0, 2, l * sizeof(In));
      pipe.InitBuffer(c_out, 2, l * sizeof(Out));

      auto u_stage = u_l1.Get<In>();
      DataCopy(ctx, u_stage, u_gm, l);
      auto u_tile = u_l0.Get<In>();
      LoadData(ctx, u_tile, u_stage, l);

      const BlockShare share = block_share(tiles, blocks, b);
      for (std::size_t t = share.begin; t < share.begin + share.count; ++t) {
        const TileRange r = tile_range(t, n, l);
        auto stage = a_l1.AllocTensor<In>();
        if (r.len < l) InitConstValue(ctx, stage, In{}, l);
        DataCopy(ctx, stage, x.sub(r.begin, r.len), r.len);
        a_l1.EnQue(stage);

        auto st = a_l1.DeQue<In>();
        auto a_tile = a_l0.AllocTensor<In>();
        LoadData(ctx, a_tile, st, l);
        a_l1.FreeTensor(st);

        auto c_tile = c_out.AllocTensor<Out>();
        Mmad(ctx, c_tile, a_tile, u_tile, s, s, s, /*accumulate=*/false);
        a_l0.FreeTensor(a_tile);
        Fixpipe(ctx, local_scans.sub(r.begin, r.len), c_tile, r.len);
        c_out.FreeTensor(c_tile);
      }
      ctx.SyncAll();
      // Cube cores are idle in phase II.
    } else {
      const int v = ctx.GetSubBlockIdx();
      const int sub_idx = b * vpc + v;
      TPipe pipe(ctx);
      // Phase I buffers: input chunks + widened copy for the reduction.
      TQue in_q(ctx, TPosition::VECIN);
      pipe.InitBuffer(in_q, 3, kVecChunk * sizeof(In));  // hide GM latency
      TBuf wide_buf(ctx, TPosition::VECCALC), sum_buf(ctx, TPosition::VECCALC);
      pipe.InitBuffer(wide_buf, kVecChunk * sizeof(Out));
      pipe.InitBuffer(sum_buf, 64);
      // Phase II buffers: local-scan chunks of the Out type + the r array.
      TQue y_q(ctx, TPosition::VECOUT);
      pipe.InitBuffer(y_q, 3, kVecChunk * sizeof(Out));  // hide GM latency
      TBuf r_ub(ctx, TPosition::VECCALC);
      pipe.InitBuffer(r_ub, static_cast<std::size_t>(blocks * vpc) *
                                sizeof(Out));

      // ---- Phase I, vector side: recompute the sub-chunk reduction from
      // the *input* (lines 11-13) — in parallel with the cube's scans.
      const SubChunk sc = subchunk_of(vtiles, blocks, vpc, b, v);
      auto wide = wide_buf.Get<Out>();
      auto sum = sum_buf.Get<Out>();
      Out acc{};  // scalar register
      // Software pipelining: the next chunk's DataCopy is issued before the
      // current chunk is consumed, hiding the GM latency behind compute.
      auto fetch_in = [&](std::size_t t) {
        const TileRange r = tile_range(t, n, kVecChunk);
        auto chunk = in_q.AllocTensor<In>();
        DataCopy(ctx, chunk, x.sub(r.begin, r.len), r.len);
        in_q.EnQue(chunk);
        return r;
      };
      const std::size_t sc_end = sc.tile_begin + sc.tile_count;
      if (sc.tile_count > 0) fetch_in(sc.tile_begin);
      for (std::size_t t = sc.tile_begin; t < sc_end; ++t) {
        const TileRange r = tile_range(t, n, kVecChunk);
        if (t + 1 < sc_end) fetch_in(t + 1);
        auto ch = in_q.DeQue<In>();
        Cast(ctx, wide, ch, r.len);  // widen: f16->f32 / i8->i32
        in_q.FreeTensor(ch);
        ReduceSum(ctx, sum, wide, r.len);
        acc = acc + GetValue(ctx, sum, 0);
      }
      // Write this sub-chunk's reduction into r (line 13).
      SetValue(ctx, sum, 0, acc);
      DataCopy(ctx, r_gm.sub(static_cast<std::size_t>(sub_idx), 1), sum, 1);

      ctx.SyncAll();  // line 15

      // ---- Phase II: prefix the reductions, then propagate (lines 16-26).
      auto r_local = r_ub.Get<Out>();
      DataCopy(ctx, r_local, r_gm, static_cast<std::size_t>(blocks * vpc));
      Out base{};
      if (sub_idx > 0) {
        ReduceSum(ctx, sum, r_local, static_cast<std::size_t>(sub_idx));
        base = GetValue(ctx, sum, 0);
      }

      const bool excl = opt.exclusive;
      Out partial = base;
      auto fetch_y = [&](std::size_t t) {
        const TileRange r = tile_range(t, n, kVecChunk);
        auto tile = y_q.AllocTensor<Out>();
        DataCopy(ctx, tile, local_scans.sub(r.begin, r.len), r.len);
        y_q.EnQue(tile);
      };
      if (sc.tile_count > 0) fetch_y(sc.tile_begin);
      for (std::size_t t = sc.tile_begin; t < sc_end; ++t) {
        const TileRange r = tile_range(t, n, kVecChunk);
        if (t + 1 < sc_end) fetch_y(t + 1);
        auto tile = y_q.DeQue<Out>();
        for (std::size_t off = 0; off < r.len; off += s) {
          const std::size_t len = std::min(s, r.len - off);
          auto row = tile.sub(off, len);
          Adds(ctx, row, row, partial, len);
          partial = GetValue(ctx, row, len - 1);
        }
        if (!excl) {
          DataCopy(ctx, y.sub(r.begin, r.len), tile, r.len);
        } else {
          // Exclusive scan: write shifted one element right, dropping the
          // globally last value (§4.3).
          const std::size_t end = r.begin + r.len;
          const std::size_t wlen = end >= n ? r.len - 1 : r.len;
          if (wlen > 0) DataCopy(ctx, y.sub(r.begin + 1, wlen), tile, wlen);
        }
        y_q.FreeTensor(tile);
      }
      if (excl && b == 0 && v == 0) {
        // A single block writes the leading zero (§4.3).
        SetValue(ctx, sum, 0, Out{});
        DataCopy(ctx, y.sub(0, 1), sum, 1);
      }
    }
  });
  return rep;
}

template sim::Report mcscan<half, float>(Device&, GlobalTensor<half>,
                                         GlobalTensor<float>, std::size_t,
                                         const McScanOptions&);
template sim::Report mcscan<std::int8_t, std::int32_t>(
    Device&, GlobalTensor<std::int8_t>, GlobalTensor<std::int32_t>,
    std::size_t, const McScanOptions&);

}  // namespace ascend::kernels
