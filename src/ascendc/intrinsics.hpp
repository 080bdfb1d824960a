// AscendC-style intrinsics: data movement (DataCopy/LoadData/Fixpipe), the
// cube engine (Mmad), and the vector engine instruction set used by the
// paper's kernels (Adds, ReduceSum, GatherMask, ShiftRight, Not/Xor,
// Compare, Select, Cast, CumSum, Sort32/MergeSorted, ...).
//
// Every intrinsic executes its functional semantics eagerly on the host
// copies of GM/UB/L0 and records one timed op on the issuing sub-core's
// trace. Cost formulas live in this header next to each instruction so the
// model is auditable in one place; the constants come from
// sim::MachineConfig (see the calibration note there).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "ascendc/context.hpp"
#include "ascendc/tensor.hpp"
#include "common/dtype.hpp"
#include "common/math_util.hpp"

namespace ascend::acc {

// ---------------------------------------------------------------------------
// Cost helpers

namespace detail {

inline double vec_cycles(const sim::MachineConfig& cfg, std::size_t bytes) {
  return cfg.vec_issue_cycles +
         static_cast<double>(bytes) / cfg.vec_bytes_per_cycle;
}
inline double gather_cycles(const sim::MachineConfig& cfg, std::size_t bytes) {
  return cfg.vec_issue_cycles +
         static_cast<double>(bytes) / cfg.gather_bytes_per_cycle;
}
inline double local_copy_cycles(const sim::MachineConfig& cfg,
                                std::size_t bytes) {
  return cfg.mte_issue_cycles +
         static_cast<double>(bytes) / cfg.local_copy_bytes_per_cycle;
}

/// Arithmetic performed "as the vector unit does": float16 lanes compute in
/// a widened form and round once per op.
template <typename T>
struct lane {
  using wide = T;
  static T narrow(wide w) { return w; }
};
template <>
struct lane<half> {
  using wide = float;
  static half narrow(float w) { return half(w); }
};

/// Structure of an Mmad B operand. The paper's scan kernels only ever
/// multiply data against the constant matrices U_s (upper-triangular ones:
/// A@U is a row-wise inclusive prefix sum) and 1_s (all ones: A@1 is a
/// row-sum broadcast), so when B holds one of those by reference the
/// emulation replaces the O(M*K*N) MAC loop with an O(M*N) recurrence that
/// yields the generic loop's result bit for bit (see Mmad for why per data
/// path). Any other B, including a data tile that happens to equal U_s or
/// 1_s, takes the generic loop.
enum class MmadBKind { Generic, UpperOnes, AllOnes };

/// B's structure when B is a Device constant of the right shape, known
/// without looking at its bytes.
inline MmadBKind mmad_b_kind(ConstKind k) {
  switch (k) {
    case ConstKind::UpperOnes: return MmadBKind::UpperOnes;
    case ConstKind::AllOnes: return MmadBKind::AllOnes;
    case ConstKind::StrictLowerOnes: return MmadBKind::Generic;
  }
  return MmadBKind::Generic;
}

/// c[j] += a * b[j], 8 float lanes at a time. Deliberately multiply-then-add
/// (no FMA): each lane rounds twice, matching the scalar expression
/// `c[j] += a * b[j]` bit for bit.
inline void axpy_row(float* c, float a, const float* b, std::size_t n) {
  std::size_t j = 0;
#if defined(ASCEND_HALF_HW) && defined(__AVX2__)
  const __m256 av = _mm256_set1_ps(a);
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(b + j));
    _mm256_storeu_ps(c + j, _mm256_add_ps(_mm256_loadu_ps(c + j), prod));
  }
#endif
  for (; j < n; ++j) {
    const float prod = a * b[j];
    c[j] = c[j] + prod;
  }
}

// Zero-tail extents (BufferState). Bytes of a cube-side slot past its
// extent read as zero whatever memory holds there, so an intrinsic touches
// only the live bytes:
// - a write raises the extent to the end of what it wrote, zero-filling any
//   gap between the old extent and the write's start;
// - a write of data followed by zeros that reaches the extent lowers the
//   extent to the end of the data and writes no zeros (an all-zero
//   InitConstValue, LoadData/DataCopyLocal/FixpipeLocal of a short source,
//   a non-accumulating Mmad on short A);
// - a reader copies only live bytes and hands the extent on, or writes real
//   zeros where its destination is not a tracked slot (Fixpipe and
//   local -> GM DataCopy);
// - an intrinsic that cannot honour the extent materializes the bytes it
//   reads or writes first (real zeros up to their end).
//
// By-reference slots (BufferState::ref). A cube-side slot can hold one of
// the Device's constant matrices by reference instead of in memory:
// - a DataCopy of a whole constant into a whole slot of its size only sets
//   the reference, and LoadData/DataCopyLocal of a whole by-reference slot
//   into a whole slot of the same size only passes it on;
// - Mmad reads a by-reference A or B straight from the constant's bytes and
//   takes B's kind from the constant; a B not held by reference is generic;
// - every other reader materializes the constant's bytes into the slot
//   first; every other writer replaces the reference when it writes the
//   whole slot and materializes it first when it writes part of it;
// - InitBuffer clears the reference, as it resets the extent.
//
// Only the functional pass sees extents and references: every record_*
// call keeps its declared sizes and addresses, so traces and simulated time
// do not depend on them. Vector intrinsics never meet a tracked slot:
// cube-side positions exist only on the cube core.

inline bool tracked(const BufferState* st) {
  return st != nullptr && st->base != nullptr;
}

template <typename T>
std::size_t slot_offset(const LocalTensor<T>& t) {
  return static_cast<std::size_t>(
      reinterpret_cast<const std::byte*>(t.data()) - t.state()->base);
}

/// Whether t's first n elements are exactly its tracked slot.
template <typename T>
bool whole_slot(const LocalTensor<T>& t, std::size_t n) {
  const BufferState* st = t.state();
  return tracked(st) &&
         reinterpret_cast<const std::byte*>(t.data()) == st->base &&
         n * sizeof(T) == st->bytes;
}

/// The constant t's slot holds by reference when t starts at the slot, or
/// null: its elements are then the constant's, from the first on.
template <typename T>
const ConstMatrix* ref_of(const LocalTensor<T>& t) {
  const BufferState* st = t.state();
  if (st == nullptr || st->ref == nullptr ||
      reinterpret_cast<const std::byte*>(t.data()) != st->base) {
    return nullptr;
  }
  return st->ref;
}

/// Makes the slot hold constant m (of the slot's size) by reference.
inline void hold_ref(BufferState* st, const ConstMatrix* m) {
  st->ref = m;
  st->extent = st->bytes;
#ifndef NDEBUG
  // Poison the slot's memory, so a reader that ignores the reference fails
  // the bit-exact tests instead of reading a copy left by chance.
  std::memset(st->base, 0xFF, st->bytes);
#endif
}

/// Copies a by-reference slot's constant into its memory and drops the
/// reference.
inline void unref(BufferState* st) {
  if (st == nullptr || st->ref == nullptr) return;
  std::memcpy(st->base, st->ref->bytes.data(), st->bytes);
  st->ref = nullptr;
}

/// Before a write of t's first n elements: a write of the whole slot
/// replaces a reference, a partial one materializes it first.
template <typename T>
void drop_ref(const LocalTensor<T>& t, std::size_t n) {
  BufferState* st = t.state();
  if (st == nullptr || st->ref == nullptr) return;
  if (whole_slot(t, n)) {
    st->ref = nullptr;
  } else {
    unref(st);
  }
}

/// How many of t's first n elements lie before the extent; the rest read
/// as zero. The caller reads memory, so a by-reference slot is
/// materialized first.
template <typename T>
std::size_t live_elems(const LocalTensor<T>& t, std::size_t n) {
  BufferState* st = t.state();
  if (!tracked(st)) return n;
  unref(st);
  const std::size_t off = slot_offset(t);
  if (st->extent <= off) return 0;
  return std::min(n, ceil_div(st->extent - off, sizeof(T)));
}

/// Makes t's first n elements real: the part past the extent becomes zeros
/// in memory and the extent covers it.
template <typename T>
void materialize(const LocalTensor<T>& t, std::size_t n) {
  BufferState* st = t.state();
  if (!tracked(st)) return;
  unref(st);
  const std::size_t end = slot_offset(t) + n * sizeof(T);
  if (end <= st->extent) return;
  std::memset(st->base + st->extent, 0, end - st->extent);
  st->extent = end;
}

/// Bookkeeping for a write of t's first n elements: raises the extent to
/// the write's end. Call before or after the write.
template <typename T>
void note_write(const LocalTensor<T>& t, std::size_t n) {
  BufferState* st = t.state();
  if (!tracked(st) || n == 0) return;
  drop_ref(t, n);
  const std::size_t off = slot_offset(t);
  const std::size_t end = off + n * sizeof(T);
  if (end <= st->extent) return;
  if (off > st->extent) std::memset(st->base + st->extent, 0, off - st->extent);
  st->extent = end;
}

/// Bookkeeping for a write of t's first n elements whose first `live` carry
/// data and whose rest are zeros: writes the zeros that must be real and
/// sets the extent. The caller then writes the `live` data elements.
template <typename T>
void note_zero_tail_write(const LocalTensor<T>& t, std::size_t live,
                          std::size_t n) {
  BufferState* st = t.state();
  if (!tracked(st)) {
    std::memset(static_cast<void*>(t.data() + live), 0,
                (n - live) * sizeof(T));
    return;
  }
  drop_ref(t, n);
  const std::size_t off = slot_offset(t);
  const std::size_t live_end = off + live * sizeof(T);
  const std::size_t end = off + n * sizeof(T);
  if (end < st->extent) {  // live bytes follow the write: zeros are real
    std::memset(st->base + live_end, 0, end - live_end);
    return;
  }
  if (live == 0) {
    st->extent = std::min(st->extent, off);
  } else {
    if (off > st->extent) {
      std::memset(st->base + st->extent, 0, off - st->extent);
    }
    st->extent = live_end;
  }
#ifndef NDEBUG
  // Poison what now reads as zero (0xFF is a NaN in fp16 and fp32), so a
  // reader that ignores the extent fails the bit-exact tests instead of
  // reading zeros left by chance in a fresh arena.
  std::memset(st->base + st->extent, 0xFF, st->bytes - st->extent);
#endif
}

}  // namespace detail

// ---------------------------------------------------------------------------
// DataCopy: GM <-> local scratchpads (MTE2 / MTE3), local <-> local (MTE1)

/// GM -> local (MTE2).
template <typename T>
void DataCopy(KernelContext& ctx, const LocalTensor<T>& dst,
              const GlobalTensor<T>& src, std::size_t n) {
  ASCAN_CHECK(n <= dst.size() && n <= src.size(),
              "DataCopy overflow: n=" << n << " dst=" << dst.size()
                                      << " src=" << src.size());
  if (src.constant() != nullptr && n == src.size() &&
      detail::whole_slot(dst, n)) {
    detail::hold_ref(dst.state(), src.constant());
  } else {
    detail::note_write(dst, n);
    std::memcpy(dst.data(), src.data(), n * sizeof(T));
  }
  ctx.record_transfer(sim::EngineKind::Mte2, n * sizeof(T), src.gm_addr(),
                      /*gm_write=*/false, "datacopy.in", nullptr, dst.state());
}

/// Local -> GM (MTE3).
template <typename T>
void DataCopy(KernelContext& ctx, const GlobalTensor<T>& dst,
              const LocalTensor<T>& src, std::size_t n) {
  ASCAN_CHECK(n <= dst.size() && n <= src.size(),
              "DataCopy overflow: n=" << n << " dst=" << dst.size()
                                      << " src=" << src.size());
  const std::size_t live = detail::live_elems(src, n);
  std::memcpy(dst.data(), src.data(), live * sizeof(T));
  std::memset(static_cast<void*>(dst.data() + live), 0, (n - live) * sizeof(T));
  ctx.record_transfer(sim::EngineKind::Mte3, n * sizeof(T), dst.gm_addr(),
                      /*gm_write=*/true, "datacopy.out", src.state(), nullptr);
}

/// Local -> local (MTE1: L1 <-> L0, or UB staging moves).
template <typename T>
void DataCopyLocal(KernelContext& ctx, const LocalTensor<T>& dst,
                   const LocalTensor<T>& src, std::size_t n) {
  ASCAN_CHECK(n <= dst.size() && n <= src.size(), "DataCopyLocal overflow");
  if (detail::whole_slot(src, n) && src.state()->ref != nullptr &&
      detail::whole_slot(dst, n)) {
    detail::hold_ref(dst.state(), src.state()->ref);
  } else {
    const std::size_t live = detail::live_elems(src, n);
    detail::note_zero_tail_write(dst, live, n);
    std::memcpy(dst.data(), src.data(), live * sizeof(T));
  }
  ctx.record_compute(sim::EngineKind::Mte1,
                     detail::local_copy_cycles(ctx.cfg(), n * sizeof(T)),
                     "datacopy.local", {src.state()}, {dst.state()});
}

/// Strided 2-D copy parameters (element units).
struct DataCopy2DParams {
  std::size_t block_count = 1;  ///< number of contiguous rows
  std::size_t block_len = 0;    ///< elements per row
  std::size_t src_stride = 0;   ///< elements between consecutive src rows
  std::size_t dst_stride = 0;   ///< elements between consecutive dst rows
};

template <typename T>
void DataCopy2D(KernelContext& ctx, const LocalTensor<T>& dst,
                const GlobalTensor<T>& src, const DataCopy2DParams& p) {
  const std::size_t src_stride = p.src_stride == 0 ? p.block_len : p.src_stride;
  const std::size_t dst_stride = p.dst_stride == 0 ? p.block_len : p.dst_stride;
  ASCAN_CHECK((p.block_count - 1) * dst_stride + p.block_len <= dst.size(),
              "DataCopy2D dst overflow");
  ASCAN_CHECK((p.block_count - 1) * src_stride + p.block_len <= src.size(),
              "DataCopy2D src overflow");
  // The stride gaps keep their contents, so the span must be real first.
  detail::materialize(dst, (p.block_count - 1) * dst_stride + p.block_len);
  for (std::size_t r = 0; r < p.block_count; ++r) {
    std::memcpy(dst.data() + r * dst_stride, src.data() + r * src_stride,
                p.block_len * sizeof(T));
  }
  ctx.record_transfer(sim::EngineKind::Mte2,
                      p.block_count * p.block_len * sizeof(T), src.gm_addr(),
                      false, "datacopy2d.in", nullptr, dst.state());
}

template <typename T>
void DataCopy2D(KernelContext& ctx, const GlobalTensor<T>& dst,
                const LocalTensor<T>& src, const DataCopy2DParams& p) {
  const std::size_t src_stride = p.src_stride == 0 ? p.block_len : p.src_stride;
  const std::size_t dst_stride = p.dst_stride == 0 ? p.block_len : p.dst_stride;
  ASCAN_CHECK((p.block_count - 1) * src_stride + p.block_len <= src.size(),
              "DataCopy2D src overflow");
  ASCAN_CHECK((p.block_count - 1) * dst_stride + p.block_len <= dst.size(),
              "DataCopy2D dst overflow");
  detail::materialize(src, (p.block_count - 1) * src_stride + p.block_len);
  for (std::size_t r = 0; r < p.block_count; ++r) {
    std::memcpy(dst.data() + r * dst_stride, src.data() + r * src_stride,
                p.block_len * sizeof(T));
  }
  ctx.record_transfer(sim::EngineKind::Mte3,
                      p.block_count * p.block_len * sizeof(T), dst.gm_addr(),
                      true, "datacopy2d.out", src.state(), nullptr);
}

// ---------------------------------------------------------------------------
// Cube-core instructions

/// L1 -> L0A/L0B (MTE1). The fractal layout conversion of real hardware is
/// abstracted: matrices are row-major host arrays.
template <typename T>
void LoadData(KernelContext& ctx, const LocalTensor<T>& dst_l0,
              const LocalTensor<T>& src_l1, std::size_t n) {
  ASCAN_CHECK(ctx.is_cube(), "LoadData runs on the cube core");
  ASCAN_CHECK(dst_l0.position() == TPosition::A2 ||
                  dst_l0.position() == TPosition::B2,
              "LoadData destination must be L0A or L0B");
  DataCopyLocal(ctx, dst_l0, src_l1, n);
}

/// Cube matrix multiply-accumulate: C[M,N] (+)= A[M,K] @ B[K,N].
/// float16 inputs accumulate into float32, int8 into int32 (§3.1).
template <typename In, typename Acc>
void Mmad(KernelContext& ctx, const LocalTensor<Acc>& c,
          const LocalTensor<In>& a, const LocalTensor<In>& b, std::size_t M,
          std::size_t K, std::size_t N, bool accumulate) {
  static_assert(std::is_same_v<Acc, cube_accum_t<In>>,
                "Mmad accumulator type must match the cube unit's");
  ASCAN_CHECK(ctx.is_cube(), "Mmad runs on the cube core");
  ASCAN_CHECK(a.position() == TPosition::A2, "Mmad A operand must be in L0A");
  ASCAN_CHECK(b.position() == TPosition::B2, "Mmad B operand must be in L0B");
  ASCAN_CHECK(c.position() == TPosition::CO1, "Mmad C operand must be in L0C");
  ASCAN_CHECK(M * K <= a.size() && K * N <= b.size() && M * N <= c.size(),
              "Mmad shape exceeds operand tiles");

  // Host work follows A's zero-tail extent: rows past it are all zeros, and
  // the generic loop leaves C's row unchanged for an all-zero A row (it
  // skips every av == 0), so only the live rows are computed. A's partial
  // last row, all of B (a zero B row is not skippable: -0.0 + 0 and
  // inf * 0 differ from leaving C alone) and the C rows an accumulating
  // call adds to become real first. A fresh C is zero past the live rows.
  // A by-reference A or B is read straight from its constant, whole.
  const ConstMatrix* a_ref = detail::ref_of(a);
  const ConstMatrix* b_ref = detail::ref_of(b);
  std::size_t rows = M;
  if (a_ref == nullptr) {
    rows = K == 0 ? 0 : std::min(M, ceil_div(detail::live_elems(a, M * K), K));
    detail::materialize(a, rows * K);
  }
  if (b_ref == nullptr) detail::materialize(b, K * N);
  if (accumulate) {
    detail::materialize(c, rows * N);
  } else {
    detail::note_zero_tail_write(c, rows * N, M * N);
  }

  Acc* cd = c.data();
  const In* ad = a_ref != nullptr
                     ? reinterpret_cast<const In*>(a_ref->bytes.data())
                     : a.data();
  const In* bd = b_ref != nullptr
                     ? reinterpret_cast<const In*>(b_ref->bytes.data())
                     : b.data();
  if (!accumulate) std::fill(cd, cd + rows * N, Acc{});
  const detail::MmadBKind bkind =
      b_ref != nullptr && b_ref->dtype == dtype_of_v<In> && b_ref->s == K &&
              K == N
          ? detail::mmad_b_kind(b_ref->kind)
          : detail::MmadBKind::Generic;
  if constexpr (std::is_same_v<In, half>) {
    // Widen the A tile to float once (8 lanes per F16C instruction) instead
    // of converting elements inside the MAC loop; arithmetic then runs as
    // pure float mul+add, exactly the per-lane operations of the scalar
    // path (no FMA contraction anywhere), so results stay bit-identical.
    thread_local std::vector<float> a_wide, b_wide;
    a_wide.resize(rows * K);
    half_to_float_n(ad, a_wide.data(), rows * K);
    bool b_widened = false;
    // The generic loop for one row of C: crow[j] += A[i][k] * B[k][j] in
    // increasing k. The closed forms below hand it the rows they cannot
    // reproduce bit for bit.
    auto generic_row = [&](std::size_t i) {
      if (!b_widened) {
        b_wide.resize(K * N);
        half_to_float_n(bd, b_wide.data(), K * N);
        b_widened = true;
      }
      float* crow = cd + i * N;
      for (std::size_t k = 0; k < K; ++k) {
        const float av = a_wide[i * K + k];
        if (av == 0.0f) continue;  // fast path for sparse constant operands
        detail::axpy_row(crow, av, b_wide.data() + k * N, N);
      }
    };
    if (bkind == detail::MmadBKind::UpperOnes && !accumulate) {
      // C[i][j] = sum_{k<=j} A[i][k]: the generic loop adds A[i][k]*1 to
      // crow[j] in increasing k, so a left-to-right running sum performs
      // the identical addition sequence. (The generic loop's `av == 0` skip
      // is a no-op here: run += ±0.0f never changes a partial sum that can
      // only be +0.0 when zero, so no branch is needed.) Four rows advance
      // per iteration — their sum chains are independent, which hides the
      // float-add latency the single serial chain would expose.
      //
      // The exception is a row holding ±inf or NaN: the generic loop also
      // adds inf*0 = NaN to the columns left of it. K finite halves cannot
      // overflow a float sum, so a row's last running sum is finite exactly
      // when the row is; non-finite rows go back to the generic loop.
      auto redo_if_nonfinite = [&](std::size_t i, float last) {
        if (std::isfinite(last)) return;
        std::fill(cd + i * N, cd + i * N + N, 0.0f);
        generic_row(i);
      };
      std::size_t i = 0;
      for (; i + 4 <= rows; i += 4) {
        const float* r0 = a_wide.data() + i * K;
        const float* r1 = r0 + K;
        const float* r2 = r1 + K;
        const float* r3 = r2 + K;
        float* c0 = cd + i * N;
        float* c1 = c0 + N;
        float* c2 = c1 + N;
        float* c3 = c2 + N;
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        for (std::size_t j = 0; j < N; ++j) {
          s0 += r0[j]; c0[j] = s0;
          s1 += r1[j]; c1[j] = s1;
          s2 += r2[j]; c2[j] = s2;
          s3 += r3[j]; c3[j] = s3;
        }
        redo_if_nonfinite(i, s0);
        redo_if_nonfinite(i + 1, s1);
        redo_if_nonfinite(i + 2, s2);
        redo_if_nonfinite(i + 3, s3);
      }
      for (; i < rows; ++i) {
        const float* arow = a_wide.data() + i * K;
        float* crow = cd + i * N;
        float run = 0.0f;
        for (std::size_t j = 0; j < N; ++j) {
          run += arow[j];
          crow[j] = run;
        }
        redo_if_nonfinite(i, run);
      }
    } else if (bkind == detail::MmadBKind::AllOnes) {
      // C[i][j] += sum_k A[i][k]*1 for every j. When row i of C starts
      // bit-uniform, every column goes through the same generic-loop
      // operations (same k order, multiply then add), so one running sum
      // stands for the whole row. That covers a fresh product (C was just
      // zeroed) and reduce_cube's accumulation chain. The `av == 0` skip
      // only matters to a sum that is -0.0, and a sum that does not start
      // at -0.0 never becomes one, so such rows need no branch and a row
      // that starts at -0.0 takes the generic loop. So does a non-finite
      // result: when two NaNs meet, which one survives depends on the
      // order of the add's operands, and only the generic loop pins it.
      const float one = static_cast<float>(bd[0]);
      for (std::size_t i = 0; i < rows; ++i) {
        float* crow = cd + i * N;
        float run = crow[0];
        if (!accumulate ||
            (std::memcmp(crow, crow + 1, (N - 1) * sizeof(float)) == 0 &&
             !(run == 0.0f && std::signbit(run)))) {
          const float* arow = a_wide.data() + i * K;
          for (std::size_t k = 0; k < K; ++k) {
            const float prod = arow[k] * one;
            run = run + prod;
          }
          if (std::isfinite(run)) {
            std::fill(crow, crow + N, run);
            continue;
          }
        }
        generic_row(i);
      }
    } else {
      for (std::size_t i = 0; i < rows; ++i) generic_row(i);
    }
  } else if (bkind == detail::MmadBKind::Generic) {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = 0; k < K; ++k) {
        const Acc av = static_cast<Acc>(static_cast<float>(ad[i * K + k]));
        if (av == Acc{}) continue;  // fast path for sparse constant operands
        const In* brow = bd + k * N;
        Acc* crow = cd + i * N;
        for (std::size_t j = 0; j < N; ++j) {
          crow[j] += av * static_cast<Acc>(static_cast<float>(brow[j]));
        }
      }
    }
  } else {
    // Integer sums are exact in any order, so A@U_s is a per-row running
    // sum and A@1_s a row-sum broadcast, accumulating or not.
    for (std::size_t i = 0; i < rows; ++i) {
      const In* arow = ad + i * K;
      Acc* crow = cd + i * N;
      Acc run{};
      if (bkind == detail::MmadBKind::UpperOnes) {
        for (std::size_t j = 0; j < N; ++j) {
          run += static_cast<Acc>(arow[j]);
          crow[j] += run;
        }
      } else {
        for (std::size_t k = 0; k < K; ++k) run += static_cast<Acc>(arow[k]);
        for (std::size_t j = 0; j < N; ++j) crow[j] += run;
      }
    }
  }

  const double macs_per_cycle = std::is_same_v<Acc, std::int32_t>
                                    ? ctx.cfg().cube_macs_per_cycle_i8
                                    : ctx.cfg().cube_macs_per_cycle_f16;
  const std::size_t k_align = std::is_same_v<Acc, std::int32_t> ? 32 : 16;
  const double macs =
      static_cast<double>(align_up<std::size_t>(M, 16)) *
      static_cast<double>(align_up<std::size_t>(K, k_align)) *
      static_cast<double>(align_up<std::size_t>(N, 16));
  ctx.record_compute(sim::EngineKind::Compute,
                     ctx.cfg().cube_issue_cycles + macs / macs_per_cycle,
                     "mmad", {a.state(), b.state()}, {c.state()});
}

/// Fixpipe: drains L0C to GM, optionally quantising the accumulator to the
/// output element type (fp32 -> fp16 cast on the way out).
template <typename Out, typename Acc>
void Fixpipe(KernelContext& ctx, const GlobalTensor<Out>& dst,
             const LocalTensor<Acc>& src, std::size_t n) {
  ASCAN_CHECK(ctx.is_cube(), "Fixpipe runs on the cube core");
  ASCAN_CHECK(src.position() == TPosition::CO1, "Fixpipe source must be L0C");
  ASCAN_CHECK(n <= dst.size() && n <= src.size(), "Fixpipe overflow");
  const std::size_t live = detail::live_elems(src, n);
  if constexpr (std::is_same_v<Out, half> && std::is_same_v<Acc, float>) {
    float_to_half_n(src.data(), dst.data(), live);
  } else {
    for (std::size_t i = 0; i < live; ++i) {
      dst.data()[i] = static_cast<Out>(src.data()[i]);
    }
  }
  std::memset(static_cast<void*>(dst.data() + live), 0,
              (n - live) * sizeof(Out));
  ctx.record_transfer(sim::EngineKind::Mte3, n * sizeof(Out), dst.gm_addr(),
                      true, "fixpipe", src.state(), nullptr);
}

/// Fixpipe variant draining L0C into L1 (used by ScanUL1 to feed C1 back as
/// a matmul operand), quantising fp32 accumulators to fp16 on the way.
template <typename Out, typename Acc>
void FixpipeLocal(KernelContext& ctx, const LocalTensor<Out>& dst_l1,
                  const LocalTensor<Acc>& src, std::size_t n) {
  ASCAN_CHECK(ctx.is_cube(), "FixpipeLocal runs on the cube core");
  ASCAN_CHECK(src.position() == TPosition::CO1, "Fixpipe source must be L0C");
  ASCAN_CHECK(dst_l1.position() == TPosition::A1 ||
                  dst_l1.position() == TPosition::B1,
              "FixpipeLocal destination must be in L1");
  ASCAN_CHECK(n <= dst_l1.size() && n <= src.size(), "FixpipeLocal overflow");
  const std::size_t live = detail::live_elems(src, n);
  detail::note_zero_tail_write(dst_l1, live, n);
  if constexpr (std::is_same_v<Out, half> && std::is_same_v<Acc, float>) {
    float_to_half_n(src.data(), dst_l1.data(), live);
  } else {
    for (std::size_t i = 0; i < live; ++i) {
      if constexpr (std::is_same_v<Out, half>) {
        dst_l1.data()[i] = half(static_cast<float>(src.data()[i]));
      } else {
        dst_l1.data()[i] = static_cast<Out>(src.data()[i]);
      }
    }
  }
  ctx.record_compute(sim::EngineKind::Mte3,
                     detail::local_copy_cycles(ctx.cfg(), n * sizeof(Out)),
                     "fixpipe.l1", {src.state()}, {dst_l1.state()});
}

/// Initialises a cube-side local buffer with a constant (AscendC
/// InitConstValue) — used to zero padding in the last partial tile. An
/// all-zero fill that reaches the extent only lowers it.
template <typename T>
void InitConstValue(KernelContext& ctx, const LocalTensor<T>& dst, T value,
                    std::size_t n) {
  ASCAN_CHECK(n <= dst.size(), "InitConstValue overflow");
  unsigned char pattern[sizeof(T)];
  std::memcpy(pattern, &value, sizeof(T));
  bool uniform = true;
  for (std::size_t b = 1; b < sizeof(T); ++b) {
    uniform = uniform && pattern[b] == pattern[0];
  }
  if (uniform && pattern[0] == 0) {
    // The dominant case, zeroing the padding of a partial tile (half(0) is
    // all-zero bytes): real zeros only where live bytes follow the fill.
    detail::note_zero_tail_write(dst, 0, n);
  } else {
    detail::note_write(dst, n);
    if (uniform) {
      std::memset(static_cast<void*>(dst.data()), pattern[0], n * sizeof(T));
    } else {
      std::fill(dst.data(), dst.data() + n, value);
    }
  }
  ctx.record_compute(sim::EngineKind::Mte1,
                     detail::local_copy_cycles(ctx.cfg(), n * sizeof(T)),
                     "init_const", {}, {dst.state()});
}

// ---------------------------------------------------------------------------
// Scalar-unit access

/// Reads one element into a scalar register. This stalls the sub-core's
/// in-order dispatch (everything issued afterwards waits), which is exactly
/// the serial partial-sum dependency of Algorithms 1-3.
template <typename T>
T GetValue(KernelContext& ctx, const LocalTensor<T>& t, std::size_t i) {
  ASCAN_CHECK(i < t.size(), "GetValue out of range");
  detail::materialize(t, i + 1);
  const std::uint32_t id =
      ctx.record_compute(sim::EngineKind::Scalar, ctx.cfg().scalar_read_cycles,
                         "get_value", {t.state()}, {});
  ctx.serialise_after(id);
  return t.data()[i];
}

template <typename T>
void SetValue(KernelContext& ctx, const LocalTensor<T>& t, std::size_t i,
              T value) {
  ASCAN_CHECK(i < t.size(), "SetValue out of range");
  detail::note_write(t.sub(i, 1), 1);
  t.data()[i] = value;
  ctx.record_compute(sim::EngineKind::Scalar, ctx.cfg().scalar_op_cycles,
                     "set_value", {}, {t.state()});
}

// ---------------------------------------------------------------------------
// Vector-unit instructions

namespace detail {

template <typename T, typename F>
void vec_unary(KernelContext& ctx, const LocalTensor<T>& dst,
               const LocalTensor<T>& src, std::size_t n, const char* tag,
               F&& f) {
  ASCAN_CHECK(ctx.is_vector(), tag << " runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= src.size(), tag << " overflow");
  for (std::size_t i = 0; i < n; ++i) dst.data()[i] = f(src.data()[i]);
  ctx.record_compute(sim::EngineKind::Compute,
                     vec_cycles(ctx.cfg(), n * sizeof(T)), tag, {src.state()},
                     {dst.state()});
}

template <typename T, typename TOut, typename F>
void vec_binary(KernelContext& ctx, const LocalTensor<TOut>& dst,
                const LocalTensor<T>& a, const LocalTensor<T>& b,
                std::size_t n, const char* tag, F&& f) {
  ASCAN_CHECK(ctx.is_vector(), tag << " runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= a.size() && n <= b.size(),
              tag << " overflow");
  for (std::size_t i = 0; i < n; ++i) dst.data()[i] = f(a.data()[i], b.data()[i]);
  ctx.record_compute(sim::EngineKind::Compute,
                     vec_cycles(ctx.cfg(), n * sizeof(T)), tag,
                     {a.state(), b.state()}, {dst.state()});
}

}  // namespace detail

/// Fills a tensor with a scalar.
template <typename T>
void Duplicate(KernelContext& ctx, const LocalTensor<T>& dst, T value,
               std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "Duplicate runs on a vector core");
  ASCAN_CHECK(n <= dst.size(), "Duplicate overflow");
  std::fill(dst.data(), dst.data() + n, value);
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::vec_cycles(ctx.cfg(), n * sizeof(T)), "duplicate",
                     {}, {dst.state()});
}

/// dst = src + scalar (the paper's partial-sum broadcast add).
template <typename T>
void Adds(KernelContext& ctx, const LocalTensor<T>& dst,
          const LocalTensor<T>& src, T scalar, std::size_t n) {
  using W = typename detail::lane<T>::wide;
  const W s = static_cast<W>(scalar);
  detail::vec_unary(ctx, dst, src, n, "adds", [s](T v) {
    return detail::lane<T>::narrow(static_cast<W>(v) + s);
  });
}

/// float16 Adds is the inner loop of every scan's propagation phase; run it
/// 8 lanes per instruction (widen, add, narrow-RNE — the same per-lane
/// operations as the generic path, so results are bit-identical).
inline void Adds(KernelContext& ctx, const LocalTensor<half>& dst,
                 const LocalTensor<half>& src, half scalar, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "adds runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= src.size(), "adds overflow");
  const float s = static_cast<float>(scalar);
  std::size_t i = 0;
#if defined(ASCEND_HALF_HW) && defined(__AVX2__)
  const __m256 sv = _mm256_set1_ps(s);
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src.data() + i));
    const __m256 f = _mm256_add_ps(_mm256_cvtph_ps(h), sv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst.data() + i),
                     _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT |
                                            _MM_FROUND_NO_EXC));
  }
#endif
  for (; i < n; ++i) {
    dst.data()[i] = half(static_cast<float>(src.data()[i]) + s);
  }
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::vec_cycles(ctx.cfg(), n * sizeof(half)), "adds",
                     {src.state()}, {dst.state()});
}

template <typename T>
void Muls(KernelContext& ctx, const LocalTensor<T>& dst,
          const LocalTensor<T>& src, T scalar, std::size_t n) {
  using W = typename detail::lane<T>::wide;
  const W s = static_cast<W>(scalar);
  detail::vec_unary(ctx, dst, src, n, "muls", [s](T v) {
    return detail::lane<T>::narrow(static_cast<W>(v) * s);
  });
}

template <typename T>
void Add(KernelContext& ctx, const LocalTensor<T>& dst, const LocalTensor<T>& a,
         const LocalTensor<T>& b, std::size_t n) {
  using W = typename detail::lane<T>::wide;
  detail::vec_binary(ctx, dst, a, b, n, "add", [](T x, T y) {
    return detail::lane<T>::narrow(static_cast<W>(x) + static_cast<W>(y));
  });
}

template <typename T>
void Sub(KernelContext& ctx, const LocalTensor<T>& dst, const LocalTensor<T>& a,
         const LocalTensor<T>& b, std::size_t n) {
  using W = typename detail::lane<T>::wide;
  detail::vec_binary(ctx, dst, a, b, n, "sub", [](T x, T y) {
    return detail::lane<T>::narrow(static_cast<W>(x) - static_cast<W>(y));
  });
}

template <typename T>
void Mul(KernelContext& ctx, const LocalTensor<T>& dst, const LocalTensor<T>& a,
         const LocalTensor<T>& b, std::size_t n) {
  using W = typename detail::lane<T>::wide;
  detail::vec_binary(ctx, dst, a, b, n, "mul", [](T x, T y) {
    return detail::lane<T>::narrow(static_cast<W>(x) * static_cast<W>(y));
  });
}

template <typename T>
void Max(KernelContext& ctx, const LocalTensor<T>& dst, const LocalTensor<T>& a,
         const LocalTensor<T>& b, std::size_t n) {
  detail::vec_binary(ctx, dst, a, b, n, "max",
                     [](T x, T y) { return x < y ? y : x; });
}

template <typename T>
void Min(KernelContext& ctx, const LocalTensor<T>& dst, const LocalTensor<T>& a,
         const LocalTensor<T>& b, std::size_t n) {
  detail::vec_binary(ctx, dst, a, b, n, "min",
                     [](T x, T y) { return y < x ? y : x; });
}

// --- Integer / bitwise ------------------------------------------------------

template <typename T>
void ShiftRights(KernelContext& ctx, const LocalTensor<T>& dst,
                 const LocalTensor<T>& src, int shift, std::size_t n) {
  static_assert(std::is_integral_v<T>, "ShiftRights needs an integer type");
  detail::vec_unary(ctx, dst, src, n, "shr",
                    [shift](T v) { return static_cast<T>(v >> shift); });
}

template <typename T>
void ShiftLefts(KernelContext& ctx, const LocalTensor<T>& dst,
                const LocalTensor<T>& src, int shift, std::size_t n) {
  static_assert(std::is_integral_v<T>, "ShiftLefts needs an integer type");
  detail::vec_unary(ctx, dst, src, n, "shl",
                    [shift](T v) { return static_cast<T>(v << shift); });
}

template <typename T>
void Ands(KernelContext& ctx, const LocalTensor<T>& dst,
          const LocalTensor<T>& src, T mask, std::size_t n) {
  static_assert(std::is_integral_v<T>, "Ands needs an integer type");
  detail::vec_unary(ctx, dst, src, n, "ands",
                    [mask](T v) { return static_cast<T>(v & mask); });
}

template <typename T>
void Ors(KernelContext& ctx, const LocalTensor<T>& dst,
         const LocalTensor<T>& src, T mask, std::size_t n) {
  static_assert(std::is_integral_v<T>, "Ors needs an integer type");
  detail::vec_unary(ctx, dst, src, n, "ors",
                    [mask](T v) { return static_cast<T>(v | mask); });
}

template <typename T>
void Xors(KernelContext& ctx, const LocalTensor<T>& dst,
          const LocalTensor<T>& src, T mask, std::size_t n) {
  static_assert(std::is_integral_v<T>, "Xors needs an integer type");
  detail::vec_unary(ctx, dst, src, n, "xors",
                    [mask](T v) { return static_cast<T>(v ^ mask); });
}

/// Bitwise NOT (the paper's Not instruction for building split masks).
template <typename T>
void Not(KernelContext& ctx, const LocalTensor<T>& dst,
         const LocalTensor<T>& src, std::size_t n) {
  static_assert(std::is_integral_v<T>, "Not needs an integer type");
  detail::vec_unary(ctx, dst, src, n, "not",
                    [](T v) { return static_cast<T>(~v); });
}

// --- Cast --------------------------------------------------------------------

/// Element-type conversion; fp32->fp16 rounds to nearest even, integer
/// narrowing saturates (hardware semantics of the vector Cast).
template <typename Dst, typename Src>
void Cast(KernelContext& ctx, const LocalTensor<Dst>& dst,
          const LocalTensor<Src>& src, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "Cast runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= src.size(), "Cast overflow");
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (std::is_integral_v<Dst> && std::is_integral_v<Src> &&
                  sizeof(Dst) < sizeof(Src)) {
      const Src v = src.data()[i];
      const Src lo = static_cast<Src>(std::numeric_limits<Dst>::min());
      const Src hi = static_cast<Src>(std::numeric_limits<Dst>::max());
      dst.data()[i] = static_cast<Dst>(std::clamp(v, lo, hi));
    } else if constexpr (std::is_same_v<Dst, half>) {
      dst.data()[i] = half(static_cast<float>(src.data()[i]));
    } else if constexpr (std::is_same_v<Src, half>) {
      dst.data()[i] = static_cast<Dst>(static_cast<float>(src.data()[i]));
    } else {
      dst.data()[i] = static_cast<Dst>(src.data()[i]);
    }
  }
  const std::size_t bytes = n * std::max(sizeof(Dst), sizeof(Src));
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::vec_cycles(ctx.cfg(), bytes), "cast",
                     {src.state()}, {dst.state()});
}

// --- Reductions ---------------------------------------------------------------

/// dst[0] = sum(src[0..n)). float16 reduces through float32 lanes and
/// rounds once on write-out (vector-unit behaviour).
template <typename T>
void ReduceSum(KernelContext& ctx, const LocalTensor<T>& dst,
               const LocalTensor<T>& src, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "ReduceSum runs on a vector core");
  ASCAN_CHECK(dst.size() >= 1 && n <= src.size(), "ReduceSum overflow");
  using W = typename detail::lane<T>::wide;
  W acc{};
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<W>(src.data()[i]);
  dst.data()[0] = detail::lane<T>::narrow(acc);
  ctx.record_compute(
      sim::EngineKind::Compute,
      detail::vec_cycles(ctx.cfg(), n * sizeof(T)) + ctx.cfg().vec_issue_cycles,
      "reduce_sum", {src.state()}, {dst.state()});
}

template <typename T>
void ReduceMax(KernelContext& ctx, const LocalTensor<T>& dst,
               const LocalTensor<T>& src, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "ReduceMax runs on a vector core");
  ASCAN_CHECK(dst.size() >= 1 && n >= 1 && n <= src.size(),
              "ReduceMax overflow");
  T best = src.data()[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (best < src.data()[i]) best = src.data()[i];
  }
  dst.data()[0] = best;
  ctx.record_compute(
      sim::EngineKind::Compute,
      detail::vec_cycles(ctx.cfg(), n * sizeof(T)) + ctx.cfg().vec_issue_cycles,
      "reduce_max", {src.state()}, {dst.state()});
}

// --- Compare / select -----------------------------------------------------------

enum class CmpMode { LT, LE, GT, GE, EQ, NE };

namespace detail {
template <typename T>
bool cmp(CmpMode m, T a, T b) {
  switch (m) {
    case CmpMode::LT: return a < b;
    case CmpMode::LE: return a <= b;
    case CmpMode::GT: return a > b;
    case CmpMode::GE: return a >= b;
    case CmpMode::EQ: return a == b;
    case CmpMode::NE: return a != b;
  }
  return false;
}
}  // namespace detail

/// dst[i] = (src[i] <op> scalar) ? 1 : 0, as an int8 mask (the on-device
/// mask format used by split/compress).
template <typename T>
void CompareScalar(KernelContext& ctx, const LocalTensor<std::int8_t>& dst,
                   const LocalTensor<T>& src, T scalar, CmpMode mode,
                   std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "CompareScalar runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= src.size(), "CompareScalar overflow");
  for (std::size_t i = 0; i < n; ++i) {
    dst.data()[i] = detail::cmp(mode, src.data()[i], scalar) ? 1 : 0;
  }
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::vec_cycles(ctx.cfg(), n * sizeof(T)), "cmps",
                     {src.state()}, {dst.state()});
}

template <typename T>
void Select(KernelContext& ctx, const LocalTensor<T>& dst,
            const LocalTensor<std::int8_t>& mask, const LocalTensor<T>& a,
            const LocalTensor<T>& b, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "Select runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= mask.size() && n <= a.size() &&
                  n <= b.size(),
              "Select overflow");
  for (std::size_t i = 0; i < n; ++i) {
    dst.data()[i] = mask.data()[i] != 0 ? a.data()[i] : b.data()[i];
  }
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::vec_cycles(ctx.cfg(), n * sizeof(T)) +
                         detail::vec_cycles(ctx.cfg(), n),
                     "select", {mask.state(), a.state(), b.state()},
                     {dst.state()});
}

// --- Gather family ---------------------------------------------------------------

/// Compacts src elements whose mask byte is non-zero into dst (stable).
/// Returns the gathered count; reading the count goes through a scalar
/// register, so it serialises the sub-core like hardware GatherMask's
/// rsvdCnt read does.
template <typename T>
std::size_t GatherMask(KernelContext& ctx, const LocalTensor<T>& dst,
                       const LocalTensor<T>& src,
                       const LocalTensor<std::int8_t>& mask, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "GatherMask runs on a vector core");
  ASCAN_CHECK(n <= src.size() && n <= mask.size(), "GatherMask overflow");
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask.data()[i] != 0) {
      ASCAN_CHECK(cnt < dst.size(), "GatherMask dst overflow");
      dst.data()[cnt++] = src.data()[i];
    }
  }
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::gather_cycles(ctx.cfg(), n * sizeof(T)),
                     "gather_mask", {src.state(), mask.state()},
                     {dst.state()});
  const std::uint32_t id =
      ctx.record_compute(sim::EngineKind::Scalar, ctx.cfg().scalar_read_cycles,
                         "gather_mask.cnt", {dst.state()}, {});
  ctx.serialise_after(id);
  return cnt;
}

/// UB-local gather: dst[i] = src[indices[i]].
template <typename T>
void Gather(KernelContext& ctx, const LocalTensor<T>& dst,
            const LocalTensor<T>& src, const LocalTensor<std::int32_t>& indices,
            std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "Gather runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= indices.size(), "Gather overflow");
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(indices.data()[i]);
    ASCAN_CHECK(idx < src.size(), "Gather index out of range");
    dst.data()[i] = src.data()[idx];
  }
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::gather_cycles(ctx.cfg(), n * sizeof(T)), "gather",
                     {src.state(), indices.state()}, {dst.state()});
}

/// dst[i] = start + i (AscendC CreateVecIndex).
template <typename T>
void CreateVecIndex(KernelContext& ctx, const LocalTensor<T>& dst, T start,
                    std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "CreateVecIndex runs on a vector core");
  ASCAN_CHECK(n <= dst.size(), "CreateVecIndex overflow");
  for (std::size_t i = 0; i < n; ++i) {
    dst.data()[i] = static_cast<T>(start + static_cast<T>(i));
  }
  ctx.record_compute(sim::EngineKind::Compute,
                     detail::vec_cycles(ctx.cfg(), n * sizeof(T)), "vec_index",
                     {}, {dst.state()});
}

// --- Macro instructions ------------------------------------------------------------

/// The closed-source AscendC CumSum API (the vector-only baseline of
/// Fig. 3). Functional: serial prefix sum with float32 lane accumulation.
/// Cost: calibrated per-element throughput (cumsum_cycles_per_elem); see
/// MachineConfig for the calibration note.
template <typename T>
void CumSum(KernelContext& ctx, const LocalTensor<T>& dst,
            const LocalTensor<T>& src, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "CumSum runs on a vector core");
  ASCAN_CHECK(n <= dst.size() && n <= src.size(), "CumSum overflow");
  using W = typename detail::lane<T>::wide;
  W acc{};
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<W>(src.data()[i]);
    dst.data()[i] = detail::lane<T>::narrow(acc);
  }
  ctx.record_compute(
      sim::EngineKind::Compute,
      ctx.cfg().vec_issue_cycles +
          static_cast<double>(n) * ctx.cfg().cumsum_cycles_per_elem,
      "cumsum_api", {src.state()}, {dst.state()});
}

/// Scalar-unit compaction loop — models the unoptimised AICPU
/// torch.masked_select baseline, which "does not use the vector or cube
/// units" (paper §6.2). Cost: scalar_loop_cycles_per_elem per element.
template <typename T>
std::size_t ScalarCompact(KernelContext& ctx, const LocalTensor<T>& dst,
                          const LocalTensor<T>& src,
                          const LocalTensor<std::int8_t>& mask,
                          std::size_t n) {
  ASCAN_CHECK(n <= src.size() && n <= mask.size(), "ScalarCompact overflow");
  detail::materialize(src, n);
  detail::materialize(mask, n);
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask.data()[i] != 0) {
      ASCAN_CHECK(cnt < dst.size(), "ScalarCompact dst overflow");
      dst.data()[cnt++] = src.data()[i];
    }
  }
  detail::note_write(dst, cnt);
  const std::uint32_t id = ctx.record_compute(
      sim::EngineKind::Scalar,
      static_cast<double>(n) * ctx.cfg().scalar_loop_cycles_per_elem,
      "scalar_compact", {src.state(), mask.state()}, {dst.state()});
  ctx.serialise_after(id);
  return cnt;
}

/// Sorts each 32-element chunk of (key, index) pairs ascending by key
/// (AscendC Sort32 analogue; stable within the chunk).
template <typename K>
void Sort32(KernelContext& ctx, const LocalTensor<K>& keys,
            const LocalTensor<std::int32_t>& idx, std::size_t n);

/// Merges two sorted (key, index) runs into dst (stable, a before b on
/// ties) — the MrgSort step of the baseline sort.
template <typename K>
void MergeSorted(KernelContext& ctx, const LocalTensor<K>& dst_keys,
                 const LocalTensor<std::int32_t>& dst_idx,
                 const LocalTensor<K>& a_keys,
                 const LocalTensor<std::int32_t>& a_idx, std::size_t na,
                 const LocalTensor<K>& b_keys,
                 const LocalTensor<std::int32_t>& b_idx, std::size_t nb);

// --- Implementation of the sort macros -----------------------------------------

template <typename K>
void Sort32(KernelContext& ctx, const LocalTensor<K>& keys,
            const LocalTensor<std::int32_t>& idx, std::size_t n) {
  ASCAN_CHECK(ctx.is_vector(), "Sort32 runs on a vector core");
  ASCAN_CHECK(n <= keys.size() && n <= idx.size(), "Sort32 overflow");
  for (std::size_t base = 0; base < n; base += 32) {
    const std::size_t len = std::min<std::size_t>(32, n - base);
    // Stable insertion sort of the chunk (functional model).
    for (std::size_t i = 1; i < len; ++i) {
      K k = keys.data()[base + i];
      std::int32_t v = idx.data()[base + i];
      std::size_t j = i;
      while (j > 0 && k < keys.data()[base + j - 1]) {
        keys.data()[base + j] = keys.data()[base + j - 1];
        idx.data()[base + j] = idx.data()[base + j - 1];
        --j;
      }
      keys.data()[base + j] = k;
      idx.data()[base + j] = v;
    }
  }
  ctx.record_compute(sim::EngineKind::Compute,
                     ctx.cfg().vec_issue_cycles +
                         static_cast<double>(n) * 1.0 /* cycles per elem */,
                     "sort32", {keys.state(), idx.state()},
                     {keys.state(), idx.state()});
}

template <typename K>
void MergeSorted(KernelContext& ctx, const LocalTensor<K>& dst_keys,
                 const LocalTensor<std::int32_t>& dst_idx,
                 const LocalTensor<K>& a_keys,
                 const LocalTensor<std::int32_t>& a_idx, std::size_t na,
                 const LocalTensor<K>& b_keys,
                 const LocalTensor<std::int32_t>& b_idx, std::size_t nb) {
  ASCAN_CHECK(ctx.is_vector(), "MergeSorted runs on a vector core");
  ASCAN_CHECK(na + nb <= dst_keys.size() && na + nb <= dst_idx.size(),
              "MergeSorted overflow");
  std::size_t i = 0, j = 0, o = 0;
  while (i < na && j < nb) {
    if (b_keys.data()[j] < a_keys.data()[i]) {
      dst_keys.data()[o] = b_keys.data()[j];
      dst_idx.data()[o++] = b_idx.data()[j++];
    } else {
      dst_keys.data()[o] = a_keys.data()[i];
      dst_idx.data()[o++] = a_idx.data()[i++];
    }
  }
  while (i < na) {
    dst_keys.data()[o] = a_keys.data()[i];
    dst_idx.data()[o++] = a_idx.data()[i++];
  }
  while (j < nb) {
    dst_keys.data()[o] = b_keys.data()[j];
    dst_idx.data()[o++] = b_idx.data()[j++];
  }
  ctx.record_compute(
      sim::EngineKind::Compute,
      ctx.cfg().vec_issue_cycles +
          static_cast<double>(na + nb) * ctx.cfg().vec_merge_cycles_per_elem,
      "mrg_sort", {a_keys.state(), a_idx.state(), b_keys.state(), b_idx.state()},
      {dst_keys.state(), dst_idx.state()});
}

}  // namespace ascend::acc
