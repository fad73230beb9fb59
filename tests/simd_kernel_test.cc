// Scalar-vs-vector bit-parity for every kernel in exec/simd.{h,cc}.
//
// The engine's correctness argument for the SIMD paths is NOT "close
// enough": the dispatchers promise bit-identical results to the scalar
// reference loops for every input — NaN, signed zero, unaligned bases,
// non-multiple-of-vector-width tails — so that ECODB_SIMD=off (or a
// non-AVX host) can never change a query answer or a parity counter.
// This suite drives both implementations directly through the detail::
// handles over adversarial lengths, offsets and payloads and compares
// raw bytes (memcmp semantics via exact integer / bit-pattern checks).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "ecodb/exec/simd.h"

namespace ecodb {
namespace simd {
namespace {

// Lengths straddling every vector-width boundary (4-wide i64/f64, 8-wide
// i32, 16-wide u8) plus empty and one-element edge cases.
const size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                           15, 16, 17, 31, 32, 33, 63, 64, 65, 257};

// Offsets into an over-allocated buffer: misaligned bases exercise the
// unaligned loads the kernels promise to handle.
const size_t kOffsets[] = {0, 1, 3};

const CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
const ArithKind kAllArith[] = {ArithKind::kAdd, ArithKind::kSub,
                               ArithKind::kMul, ArithKind::kDiv};

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(SimdKernelTest, CompareI64BitParity) {
  std::mt19937_64 rng(1);
  for (size_t off : kOffsets) {
    for (size_t n : kLengths) {
      std::vector<int64_t> a(off + n);
      for (auto& v : a) v = static_cast<int64_t>(rng() % 7) - 3;
      a.insert(a.end(), {std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max()});
      const int64_t lit = static_cast<int64_t>(rng() % 7) - 3;
      std::vector<uint8_t> ms(n, 0xAA), mv(n, 0x55);
      for (CmpOp op : kAllOps) {
        detail::CompareI64LitMaskScalar(a.data() + off, n, op, lit, ms.data());
        detail::CompareI64LitMaskVector(a.data() + off, n, op, lit, mv.data());
        ASSERT_EQ(ms, mv)
            << "op=" << static_cast<int>(op) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernelTest, CompareI32BitParity) {
  std::mt19937_64 rng(2);
  for (size_t off : kOffsets) {
    for (size_t n : kLengths) {
      std::vector<int32_t> a(off + n);
      // Dictionary codes are small non-negative ints; include the -1
      // "absent" sentinel the IN-list translation uses.
      for (auto& v : a) v = static_cast<int32_t>(rng() % 9) - 1;
      const int32_t lit = static_cast<int32_t>(rng() % 9) - 1;
      std::vector<uint8_t> ms(n, 0xAA), mv(n, 0x55);
      for (CmpOp op : kAllOps) {
        detail::CompareI32LitMaskScalar(a.data() + off, n, op, lit, ms.data());
        detail::CompareI32LitMaskVector(a.data() + off, n, op, lit, mv.data());
        ASSERT_EQ(ms, mv)
            << "op=" << static_cast<int>(op) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernelTest, CompareF64BitParityIncludingNaN) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {kNaN, kInf, -kInf, 0.0, -0.0, 1.5, -1.5};
  std::mt19937_64 rng(3);
  for (size_t off : kOffsets) {
    for (size_t n : kLengths) {
      std::vector<double> a(off + n);
      for (auto& v : a) v = specials[rng() % 7];
      for (double lit : {0.0, 1.5, kNaN}) {
        std::vector<uint8_t> ms(n, 0xAA), mv(n, 0x55);
        for (CmpOp op : kAllOps) {
          detail::CompareF64LitMaskScalar(a.data() + off, n, op, lit,
                                          ms.data());
          detail::CompareF64LitMaskVector(a.data() + off, n, op, lit,
                                          mv.data());
          ASSERT_EQ(ms, mv)
              << "op=" << static_cast<int>(op) << " n=" << n << " off=" << off
              << " lit=" << lit;
        }
      }
    }
  }
}

// The engine's three-way compare treats NaN as equal to everything:
// kEq/kLe/kGe accept, kNe/kLt/kGt reject. Pin the dispatcher (whichever
// path is active) to that semantic, not just to scalar/vector agreement.
TEST(SimdKernelTest, NaNComparesAsEqual) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double a[3] = {kNaN, 1.0, kNaN};
  uint8_t m[3];
  CompareF64LitMask(a, 3, CmpOp::kEq, 5.0, m);
  EXPECT_EQ(1, m[0]);  // NaN "equals" anything under three-way compare
  EXPECT_EQ(0, m[1]);
  CompareF64LitMask(a, 3, CmpOp::kLe, 5.0, m);
  EXPECT_EQ(1, m[0]);
  CompareF64LitMask(a, 3, CmpOp::kGe, 5.0, m);
  EXPECT_EQ(1, m[0]);
  CompareF64LitMask(a, 3, CmpOp::kNe, 5.0, m);
  EXPECT_EQ(0, m[0]);
  CompareF64LitMask(a, 3, CmpOp::kLt, 5.0, m);
  EXPECT_EQ(0, m[0]);
  CompareF64LitMask(a, 3, CmpOp::kGt, 5.0, m);
  EXPECT_EQ(0, m[0]);
}

TEST(SimdKernelTest, ArithF64BitParity) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double pool[] = {0.0, -0.0, 1.0, -2.5, 1e300, 1e-300, kNaN, kInf};
  std::mt19937_64 rng(4);
  for (size_t off : kOffsets) {
    for (size_t n : kLengths) {
      std::vector<double> a(off + n), b(off + n);
      for (auto& v : a) v = pool[rng() % 8];
      for (auto& v : b) v = pool[rng() % 8];
      std::vector<double> os(n, -7.0), ov(n, 7.0);
      for (ArithKind k : kAllArith) {
        detail::ArithF64ColColScalar(k, a.data() + off, b.data() + off, n,
                                     os.data());
        detail::ArithF64ColColVector(k, a.data() + off, b.data() + off, n,
                                     ov.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(BitsOf(os[i]), BitsOf(ov[i]))
              << "colcol k=" << static_cast<int>(k) << " i=" << i;
        }
        detail::ArithF64ColScalarScalar(k, a.data() + off, 3.25, n, os.data());
        detail::ArithF64ColScalarVector(k, a.data() + off, 3.25, n, ov.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(BitsOf(os[i]), BitsOf(ov[i]))
              << "colscalar k=" << static_cast<int>(k) << " i=" << i;
        }
        detail::ArithF64ScalarColScalar(k, 3.25, b.data() + off, n, os.data());
        detail::ArithF64ScalarColVector(k, 3.25, b.data() + off, n, ov.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(BitsOf(os[i]), BitsOf(ov[i]))
              << "scalarcol k=" << static_cast<int>(k) << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, ConvertI64ToF64BitParity) {
  std::mt19937_64 rng(5);
  for (size_t off : kOffsets) {
    for (size_t n : kLengths) {
      std::vector<int64_t> in(off + n);
      for (auto& v : in) {
        // Mix small values with magnitudes beyond 2^53, where the
        // conversion rounds — both implementations must round alike.
        v = static_cast<int64_t>(rng());
        if (rng() % 2) v >>= 40;
      }
      std::vector<double> os(n, -1.0), ov(n, 1.0);
      detail::ConvertI64ToF64Scalar(in.data() + off, n, os.data());
      detail::ConvertI64ToF64Vector(in.data() + off, n, ov.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(BitsOf(os[i]), BitsOf(ov[i])) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, OrMasksBitParity) {
  std::mt19937_64 rng(6);
  for (size_t off : kOffsets) {
    for (size_t n : kLengths) {
      std::vector<uint8_t> a(off + n), b(off + n);
      // Null masks are nominally 0/1 but the combine must be exact for
      // any byte value a demoted path might leave behind.
      for (auto& v : a) v = static_cast<uint8_t>(rng());
      for (auto& v : b) v = static_cast<uint8_t>(rng());
      std::vector<uint8_t> os(n, 0xAA), ov(n, 0x55);
      detail::OrMasksScalar(a.data() + off, b.data() + off, n, os.data());
      detail::OrMasksVector(a.data() + off, b.data() + off, n, ov.data());
      ASSERT_EQ(os, ov)
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernelTest, HashCombineBatchBitParity) {
  std::mt19937_64 rng(7);
  for (size_t off : kOffsets) {
    for (size_t n : kLengths) {
      std::vector<size_t> h0(off + n), vh(off + n);
      for (auto& v : h0) v = static_cast<size_t>(rng());
      for (auto& v : vh) v = static_cast<size_t>(rng());
      std::vector<size_t> hs(h0.begin() + static_cast<long>(off), h0.end());
      std::vector<size_t> hv = hs;
      detail::HashCombineBatchScalar(hs.data(), vh.data() + off, n);
      detail::HashCombineBatchVector(hv.data(), vh.data() + off, n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hs[i], hv[i]) << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

// The public dispatchers must agree with the scalar reference regardless
// of which path Enabled() picked in this process (covers both the SIMD-on
// default build and the ECODB_SIMD=off / ECODB_SIMD_DISABLED legs).
TEST(SimdKernelTest, DispatchersMatchScalarReference) {
  std::mt19937_64 rng(8);
  const size_t n = 77;
  std::vector<int64_t> ai(n);
  for (auto& v : ai) v = static_cast<int64_t>(rng() % 11) - 5;
  std::vector<uint8_t> got(n), want(n);
  CompareI64LitMask(ai.data(), n, CmpOp::kLt, 0, got.data());
  detail::CompareI64LitMaskScalar(ai.data(), n, CmpOp::kLt, 0, want.data());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n));

  std::vector<size_t> h(n), href(n), vh(n);
  for (size_t i = 0; i < n; ++i) {
    h[i] = href[i] = static_cast<size_t>(rng());
    vh[i] = static_cast<size_t>(rng());
  }
  HashCombineBatch(h.data(), vh.data(), n);
  detail::HashCombineBatchScalar(href.data(), vh.data(), n);
  EXPECT_EQ(href, h);
}

}  // namespace
}  // namespace simd
}  // namespace ecodb
