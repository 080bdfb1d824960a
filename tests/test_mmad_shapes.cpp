// Cube-layer depth tests: Mmad on non-square shapes, accumulation chains,
// padding alignment, cost monotonicity, the constant matrices of §4, and a
// typed bit-exactness matrix pinning every Mmad path (the closed forms for
// U_s and 1_s held by reference as well as the generic loop) against a
// plain host triple loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ascendc/ascendc.hpp"
#include "common/rng.hpp"

namespace ascend::acc {
namespace {

/// A constant matrix's elements, as a Device builds them.
template <typename T>
std::vector<T> const_values(ConstKind kind, std::size_t s) {
  const ConstMatrix m = make_const_matrix<T>(kind, s);
  return std::vector<T>(m.data<T>(), m.data<T>() + s * s);
}

template <typename F>
void on_cube(F&& body) {
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) { body(c); });
}

struct CubeBufs {
  TPipe pipe;
  TBuf a1, a2, b2, co;
  LocalTensor<half> stage, A, B;
  LocalTensor<float> C;

  explicit CubeBufs(KernelContext& c, std::size_t elems = 16384)
      : pipe(c), a1(c, TPosition::A1), a2(c, TPosition::A2),
        b2(c, TPosition::B2), co(c, TPosition::CO1) {
    pipe.InitBuffer(a1, elems * sizeof(half));
    pipe.InitBuffer(a2, elems * sizeof(half));
    pipe.InitBuffer(b2, elems * sizeof(half));
    pipe.InitBuffer(co, elems * sizeof(float));
    stage = a1.Get<half>();
    A = a2.Get<half>();
    B = b2.Get<half>();
    C = co.Get<float>();
  }
};

TEST(MmadShapes, RectangularMKN) {
  on_cube([](KernelContext& c) {
    CubeBufs b(c);
    // A: 3x5, B: 5x2 -> C: 3x2 with known values.
    const std::size_t M = 3, K = 5, N = 2;
    for (std::size_t i = 0; i < M * K; ++i) {
      b.stage[i] = half(static_cast<float>(i % 7) - 3.0f);
    }
    LoadData(c, b.A, b.stage, M * K);
    for (std::size_t i = 0; i < K * N; ++i) {
      b.stage[i] = half(static_cast<float>((i * 3) % 5) - 2.0f);
    }
    LoadData(c, b.B, b.stage, K * N);
    Mmad(c, b.C, b.A, b.B, M, K, N, false);
    // Host-computed reference.
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        float want = 0.0f;
        for (std::size_t k = 0; k < K; ++k) {
          const float av = static_cast<float>(static_cast<int>(i * K + k) % 7) - 3.0f;
          const float bv = static_cast<float>(((k * N + j) * 3) % 5) - 2.0f;
          want += av * bv;
        }
        EXPECT_EQ(b.C[i * N + j], want) << i << "," << j;
      }
    }
  });
}

TEST(MmadShapes, AccumulationChainMatchesSum) {
  on_cube([](KernelContext& c) {
    CubeBufs b(c);
    const std::size_t s = 16;
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = half(1.0f);
    LoadData(c, b.A, b.stage, s * s);
    LoadData(c, b.B, b.stage, s * s);
    for (int rep = 0; rep < 5; ++rep) {
      Mmad(c, b.C, b.A, b.B, s, s, s, /*accumulate=*/rep > 0);
    }
    // Each Mmad adds s (=16) to every entry; 5 reps -> 80.
    EXPECT_EQ(b.C[0], 80.0f);
    EXPECT_EQ(b.C[s * s - 1], 80.0f);
  });
}

TEST(MmadShapes, ScanIdentityOnTile) {
  // Equation 1 on a random 32x32 tile: A@U + L^-@(A@1) equals the flat scan.
  on_cube([](KernelContext& c) {
    CubeBufs b(c);
    const std::size_t s = 32;
    Rng rng(3);
    std::vector<float> z(s * s);
    for (std::size_t i = 0; i < s * s; ++i) {
      z[i] = static_cast<float>(rng.next_below(5));
      b.stage[i] = half(z[i]);
    }
    LoadData(c, b.A, b.stage, s * s);
    // C1 = A @ 1s
    auto ones = const_values<half>(ConstKind::AllOnes, s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = ones[i];
    LoadData(c, b.B, b.stage, s * s);
    Mmad(c, b.C, b.A, b.B, s, s, s, false);
    std::vector<float> c1(s * s);
    for (std::size_t i = 0; i < s * s; ++i) c1[i] = b.C[i];
    // C2 = A @ U
    auto upper = const_values<half>(ConstKind::UpperOnes, s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = upper[i];
    LoadData(c, b.B, b.stage, s * s);
    Mmad(c, b.C, b.A, b.B, s, s, s, false);
    // C2 += L^- @ C1 (stage C1 back through fp16, as ScanUL1 does)
    auto lower = const_values<half>(ConstKind::StrictLowerOnes, s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = lower[i];
    LoadData(c, b.A, b.stage, s * s);
    for (std::size_t i = 0; i < s * s; ++i) b.stage[i] = half(c1[i]);
    LoadData(c, b.B, b.stage, s * s);
    Mmad(c, b.C, b.A, b.B, s, s, s, true);
    // Reference: flat inclusive scan of z.
    float acc = 0.0f;
    for (std::size_t i = 0; i < s * s; ++i) {
      acc += z[i];
      ASSERT_EQ(b.C[i], acc) << i;
    }
  });
}

TEST(MmadShapes, CostGrowsWithPaddedDimensions) {
  // A 17x17x17 matmul pads to 32x32x32 on the 16-granular cube: its
  // simulated time must exceed the 16x16x16 one.
  auto time_of = [](std::size_t m) {
    Device dev(sim::MachineConfig::single_core());
    return launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
                  [&](KernelContext& c) {
                    CubeBufs b(c);
                    // Equal-size loads so only the Mmad shape varies.
                    LoadData(c, b.A, b.stage, 32 * 32);
                    LoadData(c, b.B, b.stage, 32 * 32);
                    Mmad(c, b.C, b.A, b.B, m, m, m, false);
                  })
        .time_s;
  };
  EXPECT_GT(time_of(17), time_of(16));
  EXPECT_NEAR(time_of(17), time_of(32), 1e-12);  // same padded shape
}

TEST(ConstantMatrices, DefinitionsMatchSection4) {
  const auto u = const_values<half>(ConstKind::UpperOnes, 4);
  const auto lm = const_values<half>(ConstKind::StrictLowerOnes, 4);
  const auto ones = const_values<half>(ConstKind::AllOnes, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(float(u[i * 4 + j]), j >= i ? 1.0f : 0.0f);
      EXPECT_EQ(float(lm[i * 4 + j]), j < i ? 1.0f : 0.0f);
      EXPECT_EQ(float(ones[i * 4 + j]), 1.0f);
    }
  }
  // U + L^- + diag-less identity relationship: U[i][i]=1, L^-[i][i]=0.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(float(u[i * 4 + i]), 1.0f);
    EXPECT_EQ(float(lm[i * 4 + i]), 0.0f);
  }
}

TEST(MmadShapes, Int8KAlignmentIs32) {
  // int8 Mmad pads K to 32: K=17 and K=32 cost the same; K=33 costs more.
  auto time_of = [](std::size_t k) {
    Device dev(sim::MachineConfig::single_core());
    return launch(
               dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
               [&](KernelContext& c) {
                 TPipe pipe(c);
                 TBuf a2(c, TPosition::A2), b2(c, TPosition::B2),
                     co(c, TPosition::CO1);
                 pipe.InitBuffer(a2, 4096);
                 pipe.InitBuffer(b2, 4096);
                 pipe.InitBuffer(co, 4096);
                 auto A = a2.Get<std::int8_t>();
                 auto B = b2.Get<std::int8_t>();
                 auto C = co.Get<std::int32_t>();
                 Mmad(c, C, A, B, 8, k, 8, false);
               })
        .time_s;
  };
  EXPECT_NEAR(time_of(17), time_of(32), 1e-12);
  EXPECT_GT(time_of(33), time_of(32));
}

// ---------------------------------------------------------------------------
// Typed bit-exactness matrix. Mmad picks its functional path from the
// constant B holds by reference (a data B is generic); whichever path runs,
// C must equal, byte for byte, the generic loop's result:
// C[i][j] = C[i][j] + A[i][k] * B[k][j] in increasing k, skipping zero A
// elements, multiply then add.

template <typename T>
class MmadBitExact : public ::testing::Test {};
using CubeInputTypes = ::testing::Types<half, std::int8_t>;
TYPED_TEST_SUITE(MmadBitExact, CubeInputTypes);

enum class BCase {
  Upper,           ///< U_s
  AllOnes,         ///< 1_s
  StrictLower,     ///< L_s^-
  UpperFlipped,    ///< U_s with one element flipped 0 <-> 1
  AllOnesFlipped,  ///< 1_s with one element set to 0
  UpperNegZero,    ///< U_s with a -0.0 in its zero triangle (half only)
  Random,
};
constexpr BCase kBCases[] = {BCase::Upper,          BCase::AllOnes,
                             BCase::StrictLower,    BCase::UpperFlipped,
                             BCase::AllOnesFlipped, BCase::UpperNegZero,
                             BCase::Random};

const char* name_of(BCase b) {
  switch (b) {
    case BCase::Upper: return "U_s";
    case BCase::AllOnes: return "1_s";
    case BCase::StrictLower: return "L_s^-";
    case BCase::UpperFlipped: return "U_s flipped";
    case BCase::AllOnesFlipped: return "1_s flipped";
    case BCase::UpperNegZero: return "U_s with -0.0";
    case BCase::Random: return "random";
  }
  return "?";
}

/// Element generators: A tiles cover the values a data path can hold, B
/// tiles the constant matrices and their near misses.
template <typename In>
struct CubeValues;

template <>
struct CubeValues<half> {
  static float widen(half v) { return static_cast<float>(v); }
  /// General finite values, ±0 and subnormals; rows with `specials` also
  /// get a few ±inf and NaN (signalling and quiet, both signs).
  static void fill_row(Rng& rng, half* row, std::size_t k, bool specials) {
    for (std::size_t e = 0; e < k; ++e) {
      const auto r = rng.next_below(20);
      std::uint16_t bits;
      if (r < 3) {
        bits = 0x0000u;
      } else if (r < 5) {
        bits = 0x8000u;
      } else if (r < 7) {  // subnormal, either sign
        bits = static_cast<std::uint16_t>(1 + rng.next_below(0x3ffu)) |
               (rng.next_below(2) ? 0x8000u : 0u);
      } else {  // any finite half
        do {
          bits = static_cast<std::uint16_t>(rng.next_below(0x10000u));
        } while ((bits & 0x7c00u) == 0x7c00u);
      }
      row[e] = half::from_bits(bits);
    }
    if (!specials) return;
    constexpr std::uint16_t kSpecials[] = {0x7c00u, 0xfc00u, 0x7e00u,
                                           0xfe00u, 0x7c01u};
    for (int n = 0; n < 2; ++n) {
      row[rng.next_below(k)] =
          half::from_bits(kSpecials[rng.next_below(std::size(kSpecials))]);
    }
  }
  static half random_b(Rng& rng) {
    if (rng.next_below(4) == 0) return half(0.0f);
    return half(static_cast<float>(rng.uniform(-4.0, 4.0)));
  }
};

template <>
struct CubeValues<std::int8_t> {
  static std::int32_t widen(std::int8_t v) { return v; }
  static void fill_row(Rng& rng, std::int8_t* row, std::size_t k, bool) {
    for (std::size_t e = 0; e < k; ++e) {
      row[e] = rng.next_below(4) == 0
                   ? std::int8_t{0}
                   : static_cast<std::int8_t>(
                         static_cast<int>(rng.next_below(256)) - 128);
    }
  }
  static std::int8_t random_b(Rng& rng) {
    return static_cast<std::int8_t>(static_cast<int>(rng.next_below(7)) - 3);
  }
};

/// An Mmad B operand: its values, and the Device constant it is staged as
/// by reference when it is one (a data tile through GM otherwise).
template <typename In>
struct BOperand {
  std::vector<In> values;
  std::optional<ConstKind> constant;
};

template <typename In>
BOperand<In> by_ref(ConstKind k, std::size_t s) {
  return {const_values<In>(k, s), k};
}

template <typename In>
BOperand<In> make_b(BCase bc, std::size_t s, Rng& rng) {
  switch (bc) {
    case BCase::Upper: return by_ref<In>(ConstKind::UpperOnes, s);
    case BCase::AllOnes: return by_ref<In>(ConstKind::AllOnes, s);
    case BCase::StrictLower: return by_ref<In>(ConstKind::StrictLowerOnes, s);
    default: break;
  }
  // The near misses are data tiles, and so is a data tile equal to U_s or
  // 1_s: only a constant held by reference takes a closed form.
  std::vector<In> b;
  switch (bc) {
    case BCase::UpperFlipped:
    case BCase::UpperNegZero:
      b = const_values<In>(ConstKind::UpperOnes, s);
      break;
    case BCase::AllOnesFlipped:
      b = const_values<In>(ConstKind::AllOnes, s);
      break;
    default:
      b.resize(s * s);
      for (auto& v : b) v = CubeValues<In>::random_b(rng);
      break;
  }
  const std::size_t k = rng.next_below(s), j = rng.next_below(s);
  if (bc == BCase::UpperFlipped) {
    b[k * s + j] = j >= k ? In(0) : In(1);
  } else if (bc == BCase::AllOnesFlipped) {
    b[k * s + j] = In(0);
  } else if (bc == BCase::UpperNegZero) {
    if constexpr (std::is_same_v<In, half>) {
      const std::size_t row = 1 + rng.next_below(s - 1);
      b[row * s + rng.next_below(row)] = half::from_bits(0x8000u);
    }
  }
  return {std::move(b), std::nullopt};
}

/// The generic loop, written plainly on host vectors.
template <typename In, typename Acc = cube_accum_t<In>>
void reference_mmad(std::vector<Acc>& c, const std::vector<In>& a,
                    const std::vector<In>& b, std::size_t M, std::size_t K,
                    std::size_t N, bool accumulate) {
  if (!accumulate) std::fill(c.begin(), c.end(), Acc{});
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      const Acc av = CubeValues<In>::widen(a[i * K + k]);
      if (av == Acc{}) continue;
      for (std::size_t j = 0; j < N; ++j) {
        const Acc prod = av * CubeValues<In>::widen(b[k * N + j]);
        c[i * N + j] = c[i * N + j] + prod;
      }
    }
  }
}

/// B's L1 and L0B slots, one pair per tile edge s, each exactly one s x s
/// tile: a Device constant fills them whole, so it is staged by reference,
/// as in the kernels.
template <typename In>
class BSlots {
 public:
  BSlots(KernelContext& c, TPipe& pipe) : ctx_(c), pipe_(pipe) {}

  LocalTensor<In> l1(std::size_t s) { return pair(s).l1.template Get<In>(); }
  LocalTensor<In> l0(std::size_t s) { return pair(s).l0.template Get<In>(); }

  /// Stages constant k into l0(s) through l1(s), by reference.
  void stage_constant(Device& dev, ConstKind k, std::size_t s) {
    auto konst = dev.constant<In>(k, s);
    DataCopy(ctx_, l1(s), konst.tensor(), s * s);
    LoadData(ctx_, l0(s), l1(s), s * s);
    EXPECT_EQ(l0(s).state()->ref, &dev.const_matrix<In>(k, s));
  }

 private:
  struct Pair {
    TBuf l1, l0;
    explicit Pair(KernelContext& c)
        : l1(c, TPosition::B1), l0(c, TPosition::B2) {}
  };
  Pair& pair(std::size_t s) {
    std::unique_ptr<Pair>& p = pairs_[s];
    if (!p) {
      p = std::make_unique<Pair>(ctx_);
      pipe_.InitBuffer(p->l1, s * s * sizeof(In));
      pipe_.InitBuffer(p->l0, s * s * sizeof(In));
    }
    return *p;
  }

  KernelContext& ctx_;
  TPipe& pipe_;
  std::map<std::size_t, std::unique_ptr<Pair>> pairs_;
};

/// One chain of Mmad calls on the cube, each checked against the reference.
template <typename In>
class CubeChain {
 public:
  using Acc = cube_accum_t<In>;
  static constexpr std::size_t kMaxTile = 128 * 128;

  CubeChain(KernelContext& c, Device& dev)
      : ctx_(c), dev_(dev), pipe_(c), a1_(c, TPosition::A1),
        a2_(c, TPosition::A2), co_(c, TPosition::CO1), b_(c, pipe_),
        b_gm_(dev.alloc<In>(kMaxTile)) {
    pipe_.InitBuffer(a1_, kMaxTile * sizeof(In));
    pipe_.InitBuffer(a2_, kMaxTile * sizeof(In));
    pipe_.InitBuffer(co_, kMaxTile * sizeof(Acc));
  }

  /// Sets C (and the reference) before an accumulating call.
  void preset_c(const std::vector<Acc>& c0) {
    std::memcpy(co_.Get<Acc>().data(), c0.data(), c0.size() * sizeof(Acc));
    ref_ = c0;
  }

  /// Runs C (+)= A @ B for one call and compares C with the reference.
  void step(const std::vector<In>& a, const BOperand<In>& b, std::size_t M,
            std::size_t s, bool accumulate, const std::string& what) {
    auto stage = a1_.Get<In>();
    auto A = a2_.Get<In>();
    auto B = b_.l0(s);
    auto C = co_.Get<Acc>();
    std::memcpy(stage.data(), a.data(), M * s * sizeof(In));
    LoadData(ctx_, A, stage, M * s);
    if (b.constant) {
      b_.stage_constant(dev_, *b.constant, s);
    } else {
      std::copy(b.values.begin(), b.values.end(), &b_gm_[0]);
      DataCopy(ctx_, b_.l1(s), b_gm_.tensor(), s * s);
      LoadData(ctx_, B, b_.l1(s), s * s);
    }
    Mmad(ctx_, C, A, B, M, s, s, accumulate);
    ref_.resize(M * s);  // keeps a preset C's values
    reference_mmad(ref_, a, b.values, M, s, s, accumulate);
    if (std::memcmp(C.data(), ref_.data(), M * s * sizeof(Acc)) == 0) return;
    for (std::size_t e = 0; e < M * s; ++e) {
      if (std::memcmp(C.data() + e, ref_.data() + e, sizeof(Acc)) != 0) {
        ADD_FAILURE() << what << ": C[" << e / s << "][" << e % s
                      << "] = " << C[e] << ", generic loop gives " << ref_[e];
        return;
      }
    }
  }

 private:
  KernelContext& ctx_;
  Device& dev_;
  TPipe pipe_;
  TBuf a1_, a2_, co_;
  BSlots<In> b_;
  GlobalBuffer<In> b_gm_;
  std::vector<Acc> ref_;
};

TYPED_TEST(MmadBitExact, EveryBCaseShapeAndChainMatchesGenericLoop) {
  using In = TypeParam;
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    CubeChain<In> chain(c, dev);
    Rng rng(2025);
    std::size_t case_no = 0;
    for (const BCase bc : kBCases) {
      if (bc == BCase::UpperNegZero && !std::is_same_v<In, half>) continue;
      for (const std::size_t s : {16, 32, 64, 128}) {
        for (const std::size_t M : {s, s - 1, std::size_t{3}}) {
          // A single product, then a chain of 2-5 calls on one B.
          const std::size_t chain_len = 2 + case_no++ % 4;
          for (const std::size_t calls : {std::size_t{1}, chain_len}) {
            const auto b = make_b<In>(bc, s, rng);
            std::vector<In> a(M * s);
            for (std::size_t call = 0; call < calls; ++call) {
              for (std::size_t i = 0; i < M; ++i) {
                CubeValues<In>::fill_row(rng, a.data() + i * s, s,
                                         rng.next_below(4) == 0);
              }
              chain.step(a, b, M, s, call > 0,
                         std::string(name_of(bc)) + " s=" +
                             std::to_string(s) + " M=" + std::to_string(M) +
                             " call " + std::to_string(call + 1) + "/" +
                             std::to_string(calls));
            }
          }
        }
      }
    }
  });
}

TYPED_TEST(MmadBitExact, AllOnesChainOverMixedRowsMatchesGenericLoop) {
  // A first product against U_s leaves some rows of C uniform (A rows that
  // are zero past column 0) and others not, so the accumulating 1_s calls
  // after it meet both kinds of row.
  using In = TypeParam;
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    CubeChain<In> chain(c, dev);
    Rng rng(7);
    for (const std::size_t s : {16, 32, 64, 128}) {
      for (const std::size_t M : {s, s - 1, std::size_t{3}}) {
        const auto upper = by_ref<In>(ConstKind::UpperOnes, s);
        const auto ones = by_ref<In>(ConstKind::AllOnes, s);
        std::vector<In> a(M * s);
        for (std::size_t call = 0; call < 4; ++call) {
          for (std::size_t i = 0; i < M; ++i) {
            In* row = a.data() + i * s;
            CubeValues<In>::fill_row(rng, row, s, rng.next_below(4) == 0);
            if (call == 0 && i % 2 == 0) std::fill(row + 1, row + s, In(0));
          }
          chain.step(a, call == 0 ? upper : ones, M, s, call > 0,
                     "mixed rows s=" + std::to_string(s) + " M=" +
                         std::to_string(M) + " call " +
                         std::to_string(call + 1));
        }
      }
    }
  });
}

TYPED_TEST(MmadBitExact, AllOnesAccumulateOntoPresetRowsMatchesGenericLoop) {
  // C rows no Mmad produces: uniform -0.0 (the generic loop's zero skip
  // keeps it when A's row is all zeros), uniform ±inf and NaN, and rows
  // that differ in one column.
  using In = TypeParam;
  using Acc = cube_accum_t<In>;
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    CubeChain<In> chain(c, dev);
    Rng rng(11);
    for (const std::size_t s : {16, 32, 64, 128}) {
      for (const std::size_t M : {s, s - 1, std::size_t{3}}) {
        std::vector<Acc> c0(M * s);
        std::vector<In> a(M * s);
        for (std::size_t i = 0; i < M; ++i) {
          Acc start = static_cast<Acc>(static_cast<int>(i % 7) - 3);
          if constexpr (std::is_same_v<In, half>) {
            constexpr float kStarts[] = {-0.0f, 0.0f, 1.5f, INFINITY,
                                         -INFINITY, NAN};
            start = kStarts[i % std::size(kStarts)];
          }
          std::fill(c0.begin() + i * s, c0.begin() + (i + 1) * s, start);
          if (i % 5 == 4) c0[i * s + rng.next_below(s)] = Acc{2};
          In* row = a.data() + i * s;
          CubeValues<In>::fill_row(rng, row, s, rng.next_below(4) == 0);
          if (i % 3 == 0) {  // only zeros, +0.0 and (for half) -0.0
            for (std::size_t k = 0; k < s; ++k) row[k] = In(0);
            if constexpr (std::is_same_v<In, half>) {
              row[rng.next_below(s)] = half::from_bits(0x8000u);
            }
          }
        }
        chain.preset_c(c0);
        chain.step(a, by_ref<In>(ConstKind::AllOnes, s), M, s, true,
                   "preset rows s=" + std::to_string(s) +
                       " M=" + std::to_string(M));
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Zero-tail extents. A partial tile is zero-filled with InitConstValue and
// then partly loaded, so the cube slots' extents end at the live data and
// the bytes past them hold stale garbage. Every Mmad path must still give
// the generic loop's result on the materialized operands (live data, then
// zeros), and Fixpipe must drain real zeros past C's extent.

/// A's extents, in elements of an s x s tile.
enum class AExtent { Empty, OneRow, PartialRow, AllButOneRow, Full, ZeroRows };
constexpr AExtent kAExtents[] = {AExtent::Empty,        AExtent::OneRow,
                                 AExtent::PartialRow,   AExtent::AllButOneRow,
                                 AExtent::Full,         AExtent::ZeroRows};

template <typename In>
class ZeroTailChain {
 public:
  using Acc = cube_accum_t<In>;
  static constexpr std::size_t kMaxTile = 128 * 128;

  ZeroTailChain(KernelContext& c, Device& dev)
      : ctx_(c), dev_(dev), pipe_(c), a1_(c, TPosition::A1),
        a2_(c, TPosition::A2), co_(c, TPosition::CO1), b_(c, pipe_),
        a_gm_(dev.alloc<In>(kMaxTile)), b_gm_(dev.alloc<In>(kMaxTile)),
        c_gm_(dev.alloc<Acc>(kMaxTile)), rng_(99) {
    pipe_.InitBuffer(a1_, kMaxTile * sizeof(In));
    pipe_.InitBuffer(a2_, kMaxTile * sizeof(In));
    pipe_.InitBuffer(co_, kMaxTile * sizeof(Acc));
  }

  /// Runs C (+)= A @ B with A's first `a_live` and B's first `b_live`
  /// elements live, and compares the drained C with the reference. A
  /// whole constant B is staged by reference over stale slot bytes.
  void step(const std::vector<In>& a, std::size_t a_live,
            const BOperand<In>& b, std::size_t b_live, std::size_t s,
            bool accumulate, const std::string& what) {
    const std::size_t l = s * s;
    auto A = a2_.Get<In>(), B = b_.l0(s);
    auto C = co_.Get<Acc>();
    load(a1_.Get<In>(), A, a_gm_, a, a_live, l);
    if (b.constant && b_live == l) {
      stale(b_.l1(s).state()->base, b_.l1(s).state()->bytes);
      stale(B.state()->base, B.state()->bytes);
      b_.stage_constant(dev_, *b.constant, s);
    } else {
      load(b_.l1(s), B, b_gm_, b.values, b_live, l);
    }
    // Pooled L0C: whatever lies past C's extent is stale.
    stale(C.state()->base + C.state()->extent,
          C.state()->bytes - C.state()->extent);
    Mmad(ctx_, C, A, B, s, s, s, accumulate);
    Fixpipe(ctx_, c_gm_.tensor(), C, l);

    std::vector<In> a_mat(a.begin(), a.begin() + l),
        b_mat(b.values.begin(), b.values.begin() + l);
    std::fill(a_mat.begin() + a_live, a_mat.end(), In(0));
    std::fill(b_mat.begin() + b_live, b_mat.end(), In(0));
    ref_.resize(l);
    reference_mmad(ref_, a_mat, b_mat, s, s, s, accumulate);
    const Acc* got = c_gm_.tensor().data();
    if (std::memcmp(got, ref_.data(), l * sizeof(Acc)) == 0) return;
    for (std::size_t e = 0; e < l; ++e) {
      if (std::memcmp(got + e, ref_.data() + e, sizeof(Acc)) != 0) {
        ADD_FAILURE() << what << ": C[" << e / s << "][" << e % s
                      << "] = " << got[e] << ", generic loop gives "
                      << ref_[e];
        return;
      }
    }
  }

  Rng& rng() { return rng_; }

 private:
  /// Fills bytes with non-zero garbage, as a reused slot holds.
  void stale(std::byte* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::byte>(1 + rng_.next_below(255));
    }
  }

  /// The kernels' partial-tile sequence: stale slots, InitConstValue over
  /// the tile, DataCopy of the live part, LoadData of the whole tile.
  void load(const LocalTensor<In>& stage, const LocalTensor<In>& l0,
            GlobalBuffer<In>& gm, const std::vector<In>& v, std::size_t live,
            std::size_t l) {
    stale(stage.state()->base, stage.state()->bytes);
    stale(l0.state()->base, l0.state()->bytes);
    std::copy(v.begin(), v.begin() + live, &gm[0]);
    InitConstValue(ctx_, stage, In(0), l);
    DataCopy(ctx_, stage, gm.tensor(), live);
    LoadData(ctx_, l0, stage, l);
  }

  KernelContext& ctx_;
  Device& dev_;
  TPipe pipe_;
  TBuf a1_, a2_, co_;
  BSlots<In> b_;
  GlobalBuffer<In> a_gm_, b_gm_;
  GlobalBuffer<Acc> c_gm_;
  Rng rng_;
  std::vector<Acc> ref_;
};

TYPED_TEST(MmadBitExact, ZeroTailExtentsMatchGenericLoop) {
  using In = TypeParam;
  Device dev(sim::MachineConfig::single_core());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    ZeroTailChain<In> chain(c, dev);
    Rng& rng = chain.rng();
    for (const std::size_t s : {16, 128}) {
      const std::size_t l = s * s;
      auto a_tile = [&](AExtent e, std::size_t& live) {
        std::vector<In> a(l);
        for (std::size_t i = 0; i < s; ++i) {
          CubeValues<In>::fill_row(rng, a.data() + i * s, s,
                                   rng.next_below(4) == 0);
        }
        switch (e) {
          case AExtent::Empty: live = 0; break;
          case AExtent::OneRow: live = s; break;
          case AExtent::PartialRow: live = 2 * s + s / 2 + 1; break;
          case AExtent::AllButOneRow: live = l - s; break;
          case AExtent::Full: live = l; break;
          case AExtent::ZeroRows:
            // Live rows past row 1 hold explicit ±0 padding.
            live = l;
            for (std::size_t k = 2 * s; k < l; ++k) {
              a[k] = In(0);
              if constexpr (std::is_same_v<In, half>) {
                if (rng.next_below(2)) a[k] = half::from_bits(0x8000u);
              }
            }
            break;
        }
        return a;
      };
      std::size_t chain_no = 0;
      for (const BCase bc : kBCases) {
        if (bc == BCase::UpperNegZero && !std::is_same_v<In, half>) continue;
        // B whole, or only its first rows live (ScanUL1's C1 operand).
        for (const std::size_t b_live : {l, s * (s / 2) + 3}) {
          const auto b = make_b<In>(bc, s, rng);
          // Chains of three calls (one product, two accumulations) over
          // rotating A extents, so C's extent is shorter, equal and longer
          // than the next A's.
          const std::size_t first = chain_no++ % std::size(kAExtents);
          for (std::size_t call = 0; call < 3; ++call) {
            const AExtent e =
                kAExtents[(first + 2 * call) % std::size(kAExtents)];
            std::size_t a_live = 0;
            const auto a = a_tile(e, a_live);
            chain.step(a, a_live, b, b_live, s, call > 0,
                       std::string(name_of(bc)) + " s=" + std::to_string(s) +
                           " A live=" + std::to_string(a_live) +
                           " B live=" + std::to_string(b_live) + " call " +
                           std::to_string(call + 1));
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// A constant held by reference as Mmad's A (ScanUL1's C2 += L_s^- @ C1):
// Mmad reads it straight from the ConstMatrix, and the result must still be
// the generic loop's, byte for byte. The chains above cover constants as B.

TYPED_TEST(MmadBitExact, ByReferenceAOperandsMatchGenericLoop) {
  using In = TypeParam;
  using Acc = cube_accum_t<In>;
  Rng rng(31);
  std::size_t case_no = 0;
  for (const std::size_t s : {16, 32, 64, 128}) {
    const std::size_t l = s * s;
    Device dev(sim::MachineConfig::single_core());
    auto data = dev.alloc<In>(l);
    launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
           [&](KernelContext& c) {
      TPipe pipe(c);
      TBuf a1(c, TPosition::A1), b1(c, TPosition::B1), a2(c, TPosition::A2),
          b2(c, TPosition::B2), co(c, TPosition::CO1);
      for (TBuf* b : {&a1, &b1, &a2, &b2}) pipe.InitBuffer(*b, l * sizeof(In));
      pipe.InitBuffer(co, l * sizeof(Acc));
      auto A = a2.Get<In>(), B = b2.Get<In>();
      auto C = co.Get<Acc>();
      std::vector<Acc> ref;
      for (const ConstKind k : {ConstKind::UpperOnes, ConstKind::AllOnes,
                                ConstKind::StrictLowerOnes}) {
        auto konst = dev.constant<In>(k, s);
        const auto kv = const_values<In>(k, s);
        for (const std::size_t M : {s, s - 1, std::size_t{3}}) {
          const std::size_t chain_len = 2 + case_no++ % 4;
          for (const std::size_t calls : {std::size_t{1}, chain_len}) {
            DataCopy(c, a1.Get<In>(), konst.tensor(), l);
            LoadData(c, A, a1.Get<In>(), l);
            const std::string what = "A = constant " +
                                     std::to_string(static_cast<int>(k)) +
                                     " s=" + std::to_string(s) + " M=" +
                                     std::to_string(M) + " calls=" +
                                     std::to_string(calls);
            ASSERT_NE(A.state()->ref, nullptr) << what;
            std::vector<In> b(l);
            for (std::size_t call = 0; call < calls; ++call) {
              // B is a data tile that changes per call; A stays.
              for (auto& v : b) v = CubeValues<In>::random_b(rng);
              std::copy(b.begin(), b.end(), &data[0]);
              DataCopy(c, b1.Get<In>(), data.tensor(), l);
              LoadData(c, B, b1.Get<In>(), l);
              Mmad(c, C, A, B, M, s, s, call > 0);
              ref.resize(M * s);
              reference_mmad(ref, kv, b, M, s, s, call > 0);
              EXPECT_EQ(
                  std::memcmp(C.data(), ref.data(), M * s * sizeof(Acc)), 0)
                  << what << " call " << call + 1;
            }
            // Mmad read the constant in place: the reference stands.
            EXPECT_NE(A.state()->ref, nullptr) << what;
          }
        }
      }
    });
  }
}

TEST(ZeroTailExtent, SlotsStartFullAndFollowTheRules) {
  Device dev(sim::MachineConfig::single_core());
  auto out = dev.alloc<half>(512, half(7.0f));
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    TPipe pipe(c);
    TBuf a1(c, TPosition::A1);
    pipe.InitBuffer(a1, 1024);
    auto t = a1.Get<half>();
    BufferState* st = t.state();
    EXPECT_EQ(st->extent, 1024u);  // a launch starts with the slot live
    std::fill(t.data(), t.data() + 512, half(5.0f));  // stale contents
    InitConstValue(c, t.sub(0, 128), half(0.0f), 128);  // inside live bytes
    EXPECT_EQ(st->extent, 1024u);
    EXPECT_EQ(float(t[5]), 0.0f);
    EXPECT_EQ(float(t[200]), 5.0f);
    InitConstValue(c, t, half(0.0f), 512);  // reaches the extent
    EXPECT_EQ(st->extent, 0u);
    std::fill(t.data(), t.data() + 512, half(5.0f));  // stale past it
    SetValue(c, t, 9, half(3.0f));  // the gap before it reads as zero
    EXPECT_EQ(st->extent, 20u);
    EXPECT_EQ(float(t[4]), 0.0f);
    DataCopy(c, out.tensor(), t, 512);  // real zeros past the extent
    for (std::size_t i = 0; i < 512; ++i) {
      EXPECT_EQ(float(out[i]), i == 9 ? 3.0f : 0.0f) << i;
    }
    EXPECT_EQ(float(GetValue(c, t, 300)), 0.0f);  // past: reads as zero
    EXPECT_EQ(st->extent, 602u);
    InitConstValue(c, t, half(1.0f), 512);  // a non-zero fill is a write
    EXPECT_EQ(st->extent, 1024u);

    // A copy of a short source into a sub-view past the extent: the gap
    // before it reads as zero, the copied extent ends the live bytes.
    TBuf a2(c, TPosition::A2);
    pipe.InitBuffer(a2, 1024);
    auto d = a2.Get<half>();
    InitConstValue(c, d, half(0.0f), 512);
    std::fill(d.data(), d.data() + 512, half(5.0f));
    InitConstValue(c, t, half(0.0f), 512);
    SetValue(c, t, 1, half(2.0f));
    LoadData(c, d.sub(64, 128), t, 128);
    EXPECT_EQ(d.state()->extent, 132u);
    EXPECT_EQ(float(d[0]), 0.0f);
    EXPECT_EQ(float(d[65]), 2.0f);

    // FixpipeLocal hands a short C's extent on to L1 (ScanUL1's C1).
    TBuf co(c, TPosition::CO1);
    pipe.InitBuffer(co, 1024);
    auto acc = co.Get<float>();
    InitConstValue(c, acc, 0.0f, 256);
    SetValue(c, acc, 0, 1.5f);
    std::fill(t.data(), t.data() + 512, half(5.0f));
    FixpipeLocal(c, t, acc, 256);
    EXPECT_EQ(st->extent, 2u);
    DataCopy(c, out.tensor(), t, 256);
    EXPECT_EQ(float(out[0]), 1.5f);
    EXPECT_EQ(float(out[1]), 0.0f);
    EXPECT_EQ(float(out[255]), 0.0f);
  });
}


// ---------------------------------------------------------------------------
// By-reference slots, rule by rule (intrinsics.hpp). Each writer starts from
// a freshly staged constant whose slot memory holds something else, so a
// reader that skipped materializing would read the stale bytes.

TEST(ConstantSlot, ReadersMaterializeAndWritersReplaceOrKeepTheConstant) {
  constexpr std::size_t s = 16, l = s * s;
  Device dev(sim::MachineConfig::single_core());
  const ConstMatrix& um = dev.const_matrix<half>(ConstKind::UpperOnes, s);
  const std::vector<half> uv = const_values<half>(ConstKind::UpperOnes, s);
  auto u = dev.constant<half>(ConstKind::UpperOnes, s);
  auto out = dev.alloc<half>(l);
  std::vector<half> dv(l);
  for (std::size_t i = 0; i < l; ++i) dv[i] = half(static_cast<float>(i % 13) + 2.0f);
  auto data = dev.upload(dv);
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    TPipe pipe(c);
    TBuf b1(c, TPosition::B1), big(c, TPosition::B1), b2(c, TPosition::B2),
        b2_big(c, TPosition::B2), co(c, TPosition::CO1);
    pipe.InitBuffer(b1, l * sizeof(half));
    pipe.InitBuffer(big, 2 * l * sizeof(half));
    pipe.InitBuffer(b2, l * sizeof(half));
    pipe.InitBuffer(b2_big, 2 * l * sizeof(half));
    pipe.InitBuffer(co, l * sizeof(float));
    auto t = b1.Get<half>();
    BufferState* st = t.state();
    EXPECT_EQ(st->ref, nullptr);  // InitBuffer: no reference

    // A whole-constant copy into a whole slot of its size only sets the
    // reference: the slot's stale memory stays (or is poisoned).
    auto stage = [&] {
      std::fill(t.data(), t.data() + l, half(5.0f));
      DataCopy(c, t, u.tensor(), l);
      EXPECT_EQ(st->ref, &um);
      EXPECT_EQ(st->extent, st->bytes);
      EXPECT_NE(std::memcmp(st->base, um.bytes.data(), um.bytes.size()), 0);
#ifndef NDEBUG
      for (std::size_t i = 0; i < st->bytes; ++i) {
        ASSERT_EQ(st->base[i], std::byte{0xFF}) << i;
      }
#endif
    };
    // What a reader sees in t, via a local -> GM copy.
    auto contents = [&] {
      DataCopy(c, out.tensor(), t, l);
      return out.host();
    };
    auto with = [&](std::vector<half> v, std::size_t at,
                    const std::vector<half>& src, std::size_t n) {
      std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n),
                v.begin() + static_cast<std::ptrdiff_t>(at));
      return v;
    };
    auto same = [](const std::vector<half>& a, const std::vector<half>& b) {
      return std::memcmp(a.data(), b.data(), a.size() * sizeof(half)) == 0;
    };

    // Local -> GM copy: the constant's values.
    stage();
    EXPECT_TRUE(same(contents(), uv));
    EXPECT_EQ(st->ref, nullptr);

    // LoadData / DataCopyLocal pass a whole reference on and copy nothing;
    // a partial or differently sized one materializes the source.
    stage();
    auto d = b2.Get<half>();
    std::fill(d.data(), d.data() + l, half(5.0f));
    LoadData(c, d, t, l);
    EXPECT_EQ(d.state()->ref, &um);
    EXPECT_EQ(st->ref, &um);
    EXPECT_NE(std::memcmp(d.data(), um.bytes.data(), um.bytes.size()), 0);
    auto db = b2_big.Get<half>();
    LoadData(c, db, t, l);  // slot twice the constant
    EXPECT_EQ(db.state()->ref, nullptr);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_EQ(std::memcmp(db.data(), um.bytes.data(), um.bytes.size()), 0);
    stage();
    DataCopyLocal(c, d, t.sub(s, 2 * s), 2 * s);  // part of the slot
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_EQ(d.state()->ref, nullptr);
    EXPECT_EQ(std::memcmp(d.data(), uv.data() + s, 2 * s * sizeof(half)), 0);

    // A partial copy of a constant, or one into a larger slot, copies.
    std::fill(t.data(), t.data() + l, half(5.0f));
    DataCopy(c, t, u.tensor().sub(0, l / 2), l / 2);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_EQ(std::memcmp(t.data(), uv.data(), l / 2 * sizeof(half)), 0);
    auto tb = big.Get<half>();
    DataCopy(c, tb, u.tensor(), l);
    EXPECT_EQ(tb.state()->ref, nullptr);
    EXPECT_EQ(std::memcmp(tb.data(), uv.data(), l * sizeof(half)), 0);

    // A constant's view re-pointed at other data loses the mark: a whole
    // copy from it copies the new bytes.
    auto repointed = u.tensor();
    repointed.SetGlobalBuffer(data.tensor().data(), l);
    EXPECT_EQ(repointed.constant(), nullptr);
    DataCopy(c, t, repointed, l);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), dv));

    // GetValue reads the constant.
    stage();
    EXPECT_EQ(float(GetValue(c, t, 5)), 1.0f);      // U_s[0][5]
    EXPECT_EQ(float(GetValue(c, t, 5 * s)), 0.0f);  // U_s[5][0]
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), uv));

    // SetValue keeps every other element.
    stage();
    SetValue(c, t, 7, half(9.0f));
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), with(uv, 7, {half(9.0f)}, 1)));

    // GM -> local copies of data: a partial one keeps the constant past it,
    // a whole one replaces the reference.
    stage();
    DataCopy(c, t, data.tensor(), 100);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), with(uv, 0, dv, 100)));
    stage();
    DataCopy(c, t.sub(40, 50), data.tensor(), 50);
    EXPECT_TRUE(same(contents(), with(uv, 40, dv, 50)));
    stage();
    DataCopy(c, t, data.tensor(), l);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), dv));

    // DataCopy2D in keeps the stride gaps; DataCopy2D out reads the constant.
    stage();
    DataCopy2D(c, t, data.tensor(),
               {.block_count = 2, .block_len = 4, .src_stride = 4,
                .dst_stride = s});
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), with(with(uv, 0, dv, 4), s,
                                      {dv[4], dv[5], dv[6], dv[7]}, 4)));
    stage();
    std::fill(out.host().begin(), out.host().end(), half(7.0f));
    DataCopy2D(c, out.tensor(), t,
               {.block_count = 3, .block_len = s, .src_stride = s,
                .dst_stride = s});
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_EQ(std::memcmp(out.host().data(), uv.data(), 3 * s * sizeof(half)),
              0);

    // InitConstValue: a whole zero fill replaces the reference, partial
    // fills (zero or not) keep the constant around them.
    stage();
    InitConstValue(c, t, half(0.0f), l);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_EQ(st->extent, 0u);
    EXPECT_TRUE(same(contents(), std::vector<half>(l, half(0.0f))));
    stage();
    InitConstValue(c, t, half(0.0f), 32);
    EXPECT_TRUE(same(contents(),
                     with(uv, 0, std::vector<half>(32, half(0.0f)), 32)));
    stage();
    InitConstValue(c, t.sub(32, 16), half(2.0f), 16);
    EXPECT_TRUE(same(contents(),
                     with(uv, 32, std::vector<half>(16, half(2.0f)), 16)));

    // FixpipeLocal into the slot: a partial drain keeps the constant past
    // it, a whole one replaces the reference.
    auto acc = co.Get<float>();
    for (std::size_t i = 0; i < l; ++i) acc[i] = static_cast<float>(i % 5) - 2.0f;
    std::vector<half> acc_h(l);
    for (std::size_t i = 0; i < l; ++i) acc_h[i] = half(acc[i]);
    stage();
    FixpipeLocal(c, t, acc, 64);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), with(uv, 0, acc_h, 64)));
    stage();
    FixpipeLocal(c, t, acc, l);
    EXPECT_EQ(st->ref, nullptr);
    EXPECT_TRUE(same(contents(), acc_h));
  });
}

TEST(ConstantSlot, MmadReadsAStrictLowerAByReference) {
  // ScanUL1's third product, C2 += L_s^- @ C1, with L_s^- staged by
  // reference into L0A and C1 a data tile.
  constexpr std::size_t s = 32, l = s * s;
  Device dev(sim::MachineConfig::single_core());
  auto lm = dev.constant<half>(ConstKind::StrictLowerOnes, s);
  Rng rng(5);
  std::vector<half> c1(l);
  for (auto& v : c1) v = CubeValues<half>::random_b(rng);
  std::vector<float> c0(l);
  for (auto& v : c0) v = static_cast<float>(rng.uniform(-8.0, 8.0));
  auto c1_gm = dev.upload(c1);
  launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
         [&](KernelContext& c) {
    TPipe pipe(c);
    TBuf lm_l1(c, TPosition::B1), c1_l1(c, TPosition::B1),
        a2(c, TPosition::A2), b2(c, TPosition::B2), co(c, TPosition::CO1);
    for (TBuf* b : {&lm_l1, &c1_l1, &a2, &b2}) {
      pipe.InitBuffer(*b, l * sizeof(half));
    }
    pipe.InitBuffer(co, l * sizeof(float));
    auto A = a2.Get<half>(), B = b2.Get<half>();
    auto C = co.Get<float>();
    DataCopy(c, lm_l1.Get<half>(), lm.tensor(), l);
    LoadData(c, A, lm_l1.Get<half>(), l);
    DataCopy(c, c1_l1.Get<half>(), c1_gm.tensor(), l);
    LoadData(c, B, c1_l1.Get<half>(), l);
    std::copy(c0.begin(), c0.end(), C.data());
    Mmad(c, C, A, B, s, s, s, /*accumulate=*/true);
    EXPECT_NE(A.state()->ref, nullptr);  // read in place
    std::vector<float> want = c0;
    reference_mmad(want, const_values<half>(ConstKind::StrictLowerOnes, s), c1,
                   s, s, s, true);
    EXPECT_EQ(std::memcmp(C.data(), want.data(), l * sizeof(float)), 0);
  });
}

TEST(ConstantSlot, ReferenceInOneLaunchDataTileInTheNext) {
  // The pooled cube context hands launch k+1 the arena bytes a by-reference
  // slot left in launch k: the new slot starts without a reference and the
  // partial data tile it receives reads as the tile, not as the constant.
  constexpr std::size_t s = 16, l = s * s, live = 100;
  Device dev(sim::MachineConfig::single_core());
  auto u = dev.constant<half>(ConstKind::UpperOnes, s);
  Rng rng(9);
  std::vector<half> x(l, half(0.0f));
  for (std::size_t i = 0; i < live; ++i) x[i] = CubeValues<half>::random_b(rng);
  auto x_gm = dev.upload(x);
  auto y_gm = dev.alloc<float>(l);
  std::byte* first_base = nullptr;
  for (int k = 0; k < 2; ++k) {
    launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
           [&](KernelContext& c) {
      TPipe pipe(c);
      TQue a_l1(c, TPosition::A1), a_l0(c, TPosition::A2);
      TBuf u_l1(c, TPosition::B1), u_l0(c, TPosition::B2),
          co(c, TPosition::CO1);
      pipe.InitBuffer(a_l1, 1, l * sizeof(half));
      pipe.InitBuffer(a_l0, 1, l * sizeof(half));
      pipe.InitBuffer(u_l1, l * sizeof(half));
      pipe.InitBuffer(u_l0, l * sizeof(half));
      pipe.InitBuffer(co, l * sizeof(float));
      auto stage = a_l1.AllocTensor<half>();
      EXPECT_EQ(stage.state()->ref, nullptr) << "launch " << k;
      EXPECT_EQ(stage.state()->extent, l * sizeof(half)) << "launch " << k;
      if (k == 0) {  // the A slots hold U_s by reference
        first_base = stage.state()->base;
        std::fill(stage.data(), stage.data() + l, half(5.0f));
        DataCopy(c, stage, u.tensor(), l);
        auto a = a_l0.AllocTensor<half>();
        LoadData(c, a, stage, l);
        EXPECT_NE(a.state()->ref, nullptr);
        return;
      }
      EXPECT_EQ(stage.state()->base, first_base);  // the same arena bytes
      InitConstValue(c, stage, half(0.0f), l);
      DataCopy(c, stage, x_gm.tensor(), live);
      auto a = a_l0.AllocTensor<half>();
      LoadData(c, a, stage, l);
      DataCopy(c, u_l1.Get<half>(), u.tensor(), l);
      LoadData(c, u_l0.Get<half>(), u_l1.Get<half>(), l);
      Mmad(c, co.Get<float>(), a, u_l0.Get<half>(), s, s, s, false);
      Fixpipe(c, y_gm.tensor(), co.Get<float>(), l);
    });
  }
  std::vector<float> want(l);
  reference_mmad(want, x, const_values<half>(ConstKind::UpperOnes, s), s, s, s,
                 false);
  EXPECT_EQ(std::memcmp(y_gm.host().data(), want.data(), l * sizeof(float)), 0);
}

}  // namespace
}  // namespace ascend::acc
