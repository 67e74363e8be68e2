// Unit + property tests for dense kernels, sparse vectors and CSR matrices.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/gram.hpp"
#include "linalg/sparse_vector.hpp"
#include "scalar_kernels.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::linalg {
namespace {

// ----------------------------------------------------------- dense ops ----

TEST(DenseOps, AxpyAddsScaledVector) {
  DenseVector x{1, 2, 3}, y{10, 20, 30};
  Axpy(2.0, x, y);
  EXPECT_EQ(y, (DenseVector{12, 24, 36}));
}

TEST(DenseOps, AxpyDimensionMismatchThrows) {
  DenseVector x{1}, y{1, 2};
  EXPECT_THROW(Axpy(1.0, x, y), InvalidArgument);
}

TEST(DenseOps, DotAndNorms) {
  DenseVector x{3, -4};
  EXPECT_DOUBLE_EQ(Dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(Norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(Norm1(x), 7.0);
  EXPECT_DOUBLE_EQ(NormInf(x), 4.0);
}

TEST(DenseOps, DistanceL2) {
  DenseVector x{1, 1}, y{4, 5};
  EXPECT_DOUBLE_EQ(DistanceL2(x, y), 5.0);
}

TEST(DenseOps, AddSubtract) {
  DenseVector x{1, 2}, y{3, 5}, out;
  Add(x, y, out);
  EXPECT_EQ(out, (DenseVector{4, 7}));
  Subtract(y, x, out);
  EXPECT_EQ(out, (DenseVector{2, 3}));
}

TEST(DenseOps, SoftThresholdShrinksTowardZero) {
  DenseVector x{3.0, -3.0, 0.5, -0.5, 0.0};
  DenseVector out(5);
  SoftThreshold(x, 1.0, out);
  EXPECT_EQ(out, (DenseVector{2.0, -2.0, 0.0, 0.0, 0.0}));
}

TEST(DenseOps, SoftThresholdZeroKappaIsIdentity) {
  DenseVector x{1.5, -2.5}, out(2);
  SoftThreshold(x, 0.0, out);
  EXPECT_EQ(out, x);
}

TEST(DenseOps, SoftThresholdNegativeKappaThrows) {
  DenseVector x{1.0}, out(1);
  EXPECT_THROW(SoftThreshold(x, -0.1, out), InvalidArgument);
}

TEST(DenseOps, CountNonzeros) {
  DenseVector x{0.0, 1e-9, 0.5, -2.0};
  EXPECT_EQ(CountNonzeros(x), 3u);
  EXPECT_EQ(CountNonzeros(x, 1e-6), 2u);
}

// ------------------------------------------------------- sparse vector ----

TEST(SparseVector, FromDenseRoundTrip) {
  DenseVector dense{0.0, 1.5, 0.0, -2.0, 0.0};
  const auto sv = SparseVector::FromDense(dense);
  EXPECT_EQ(sv.nnz(), 2u);
  EXPECT_EQ(sv.dim(), 5u);
  EXPECT_EQ(sv.ToDense(), dense);
}

TEST(SparseVector, ConstructorValidatesOrdering) {
  EXPECT_THROW(SparseVector(5, {3, 1}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(SparseVector(5, {1, 1}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(SparseVector(5, {5}, {1.0}), InvalidArgument);
  EXPECT_THROW(SparseVector(5, {1}, {1.0, 2.0}), InvalidArgument);
}

TEST(SparseVector, AtReturnsStoredOrZero) {
  const SparseVector sv(6, {1, 4}, {2.0, -1.0});
  EXPECT_DOUBLE_EQ(sv.At(1), 2.0);
  EXPECT_DOUBLE_EQ(sv.At(4), -1.0);
  EXPECT_DOUBLE_EQ(sv.At(0), 0.0);
  EXPECT_THROW(sv.At(6), InvalidArgument);
}

TEST(SparseVector, SlicePreservesCoordinates) {
  const SparseVector sv(10, {1, 3, 7, 9}, {1, 2, 3, 4});
  const auto s = sv.Slice(3, 8);
  EXPECT_EQ(s.dim(), 10u);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_DOUBLE_EQ(s.At(3), 2.0);
  EXPECT_DOUBLE_EQ(s.At(7), 3.0);
}

TEST(SparseVector, CountInRange) {
  const SparseVector sv(10, {1, 3, 7, 9}, {1, 2, 3, 4});
  EXPECT_EQ(sv.CountInRange(0, 10), 4u);
  EXPECT_EQ(sv.CountInRange(2, 8), 2u);
  EXPECT_EQ(sv.CountInRange(4, 7), 0u);
}

TEST(SparseVector, SumMergesIndices) {
  const SparseVector a(5, {0, 2}, {1.0, 2.0});
  const SparseVector b(5, {2, 4}, {3.0, 4.0});
  const auto s = SparseVector::Sum(a, b);
  EXPECT_EQ(s.nnz(), 3u);
  EXPECT_DOUBLE_EQ(s.At(0), 1.0);
  EXPECT_DOUBLE_EQ(s.At(2), 5.0);
  EXPECT_DOUBLE_EQ(s.At(4), 4.0);
}

TEST(SparseVector, AddInPlaceWithScale) {
  SparseVector a(4, {1}, {2.0});
  const SparseVector b(4, {1, 3}, {1.0, 1.0});
  a.AddInPlace(b, -2.0);
  EXPECT_DOUBLE_EQ(a.At(1), 0.0);
  EXPECT_DOUBLE_EQ(a.At(3), -2.0);
  a.Prune();
  EXPECT_EQ(a.nnz(), 1u);
}

TEST(SparseVector, DotWithDense) {
  const SparseVector sv(4, {0, 3}, {2.0, -1.0});
  const DenseVector d{1.0, 5.0, 5.0, 4.0};
  EXPECT_DOUBLE_EQ(sv.Dot(d), 2.0 - 4.0);
}

TEST(SparseVector, ConcatDisjoint) {
  const SparseVector a(8, {0, 1}, {1, 2});
  const SparseVector b(8, {4, 6}, {3, 4});
  const auto c = SparseVector::ConcatDisjoint(std::vector<SparseVector>{a, b});
  EXPECT_EQ(c.nnz(), 4u);
  EXPECT_DOUBLE_EQ(c.At(6), 4.0);
}

TEST(SparseVector, ConcatOverlappingThrows) {
  const SparseVector a(8, {0, 5}, {1, 2});
  const SparseVector b(8, {4, 6}, {3, 4});
  EXPECT_THROW(
      SparseVector::ConcatDisjoint(std::vector<SparseVector>{a, b}),
      InvalidArgument);
}

TEST(SparseVector, InPlaceVariantsMatchValueReturningOnes) {
  const DenseVector dense{0.0, 1.5, 0.0, -2.0, 0.0};
  SparseVector sv(3, {0}, {9.0});  // stale contents must be overwritten
  sv.AssignFromDense(dense);
  EXPECT_EQ(sv, SparseVector::FromDense(dense));

  DenseVector back{7.0, 7.0};  // wrong size; ToDense must resize
  sv.ToDense(back);
  EXPECT_EQ(back, dense);

  const SparseVector src(10, {1, 3, 7, 9}, {1, 2, 3, 4});
  SparseVector slice(2, {1}, {5.0});
  src.SliceInto(3, 8, slice);
  EXPECT_EQ(slice, src.Slice(3, 8));

  const SparseVector a(5, {0, 2}, {1.0, 2.0});
  const SparseVector b(5, {2, 4}, {3.0, 4.0});
  SparseVector sum(1, {0}, {1.0});
  SparseVector::SumInto(a, b, sum);
  EXPECT_EQ(sum, SparseVector::Sum(a, b));

  const SparseVector p0(8, {0, 1}, {1, 2});
  const SparseVector p1(8, {4, 6}, {3, 4});
  const std::vector<SparseVector> parts{p0, p1};
  SparseVector cat(3, {2}, {8.0});
  SparseVector::ConcatDisjointInto(parts, cat);
  EXPECT_EQ(cat, SparseVector::ConcatDisjoint(parts));
}

TEST(SparseVector, InPlaceVariantsRejectAliasing) {
  SparseVector a(5, {0, 2}, {1.0, 2.0});
  const SparseVector b(5, {2, 4}, {3.0, 4.0});
  EXPECT_THROW(SparseVector::SumInto(a, b, a), InvalidArgument);
  EXPECT_THROW(a.SliceInto(0, 5, a), InvalidArgument);
}

TEST(SparseVector, AddToDenseScatters) {
  const SparseVector sv(3, {1}, {2.0});
  DenseVector acc{1.0, 1.0, 1.0};
  sv.AddToDense(acc, 3.0);
  EXPECT_EQ(acc, (DenseVector{1.0, 7.0, 1.0}));
}

/// Property: Sum agrees with dense addition for random vectors.
class SparseSumProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseSumProperty, MatchesDenseAddition) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t dim = 50;
  DenseVector da(dim, 0.0), db(dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) {
    if (rng.NextBool(0.3)) da[i] = rng.NextGaussian();
    if (rng.NextBool(0.3)) db[i] = rng.NextGaussian();
  }
  const auto sum =
      SparseVector::Sum(SparseVector::FromDense(da), SparseVector::FromDense(db));
  DenseVector expected;
  Add(da, db, expected);
  const auto actual = sum.ToDense();
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseSumProperty, ::testing::Range(0, 10));

// ---------------------------------------------------------- csr matrix ----

CsrMatrix MakeSmall() {
  // [1 0 2]
  // [0 3 0]
  CsrMatrix::Builder b(3);
  const CsrMatrix::Index c0[] = {0, 2};
  const double v0[] = {1.0, 2.0};
  b.AddRow(c0, v0);
  const CsrMatrix::Index c1[] = {1};
  const double v1[] = {3.0};
  b.AddRow(c1, v1);
  return b.Build();
}

TEST(CsrMatrix, BasicAccessors) {
  const auto m = MakeSmall();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.Density(), 0.5);
  EXPECT_EQ(m.MaxOccupiedColumn(), 3u);
}

TEST(CsrMatrix, Multiply) {
  const auto m = MakeSmall();
  DenseVector x{1, 1, 1}, out(2);
  m.Multiply(x, out);
  EXPECT_EQ(out, (DenseVector{3, 3}));
}

TEST(CsrMatrix, TransposeMultiplyAdd) {
  const auto m = MakeSmall();
  DenseVector v{1, 2}, out(3, 0.0);
  m.TransposeMultiplyAdd(v, out);
  EXPECT_EQ(out, (DenseVector{1, 6, 2}));
}

TEST(CsrMatrix, RowDotAndRow) {
  const auto m = MakeSmall();
  DenseVector x{2, 0, 1};
  EXPECT_DOUBLE_EQ(m.RowDot(0, x), 4.0);
  const auto row = m.Row(1);
  EXPECT_EQ(row.dim(), 3u);
  EXPECT_DOUBLE_EQ(row.At(1), 3.0);
}

TEST(CsrMatrix, SliceRows) {
  const auto m = MakeSmall();
  const auto s = m.SliceRows(1, 2);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_EQ(s.nnz(), 1u);
  EXPECT_DOUBLE_EQ(s.RowValues(0)[0], 3.0);
}

TEST(CsrMatrix, ColumnNnz) {
  const auto m = MakeSmall();
  EXPECT_EQ(m.ColumnNnz(), (std::vector<std::size_t>{1, 1, 1}));
}

TEST(CsrMatrix, BuilderRejectsBadRows) {
  CsrMatrix::Builder b(3);
  const CsrMatrix::Index bad_order[] = {2, 1};
  const double v[] = {1.0, 2.0};
  EXPECT_THROW(b.AddRow(bad_order, v), InvalidArgument);
  const CsrMatrix::Index out_of_range[] = {3};
  const double v1[] = {1.0};
  EXPECT_THROW(b.AddRow(out_of_range, v1), InvalidArgument);
}

TEST(CsrMatrix, DimensionChecksOnKernels) {
  const auto m = MakeSmall();
  DenseVector bad(2), out2(2), out3(3);
  EXPECT_THROW(m.Multiply(bad, out2), InvalidArgument);
  EXPECT_THROW(m.TransposeMultiplyAdd(out3, out3), InvalidArgument);
}

/// Property: (A^T v) . x == v . (A x) for random matrices.
class CsrAdjointProperty : public ::testing::TestWithParam<int> {};

TEST_P(CsrAdjointProperty, AdjointIdentityHolds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const std::size_t rows = 20, cols = 15;
  CsrMatrix::Builder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<CsrMatrix::Index> idx;
    std::vector<double> val;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(0.25)) {
        idx.push_back(c);
        val.push_back(rng.NextGaussian());
      }
    }
    b.AddRow(idx, val);
  }
  const auto m = b.Build();

  DenseVector x(cols), v(rows);
  for (auto& e : x) e = rng.NextGaussian();
  for (auto& e : v) e = rng.NextGaussian();

  DenseVector ax(rows), atv(cols, 0.0);
  m.Multiply(x, ax);
  m.TransposeMultiplyAdd(v, atv);
  EXPECT_NEAR(Dot(ax, v), Dot(x, atv), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrAdjointProperty, ::testing::Range(0, 10));

// ------------------------------------------------- fused dense kernels ----

// AxpyNormSq/XpayNormSq/CopyNormSq use the same four-lane accumulation as
// Dot (lane = index % 4, combined (a0+a1)+(a2+a3)), so the returned norm
// must be BITWISE equal to a follow-up Dot on the updated vector — that is
// what lets TRON swap its fused loops for these kernels without moving the
// committed convergence baselines.
TEST(DenseOps, AxpyNormSqUpdatesAndMatchesDotBitwise) {
  Rng rng(21);
  DenseVector x(37), y(37);
  for (auto& e : x) e = rng.NextGaussian();
  for (auto& e : y) e = rng.NextGaussian();
  auto expected = y;
  for (std::size_t i = 0; i < y.size(); ++i) expected[i] += 0.37 * x[i];
  const double nrm = AxpyNormSq(0.37, x, y);
  EXPECT_EQ(y, expected);
  EXPECT_EQ(nrm, Dot(y, y));
}

TEST(DenseOps, XpayNormSqUpdatesAndMatchesDotBitwise) {
  Rng rng(22);
  DenseVector x(41), y(41), scaled(41);
  for (auto& e : x) e = rng.NextGaussian();
  for (auto& e : y) e = rng.NextGaussian();
  auto expected = y;
  auto expected_scaled = y;
  for (std::size_t i = 0; i < y.size(); ++i) {
    expected[i] = x[i] + -0.8 * expected[i];
    expected_scaled[i] = 1.7 * expected[i];
  }
  const double nrm = XpayNormSq(-0.8, x, y, 1.7, scaled);
  EXPECT_EQ(y, expected);
  EXPECT_EQ(scaled, expected_scaled);
  EXPECT_EQ(nrm, Dot(y, y));
}

TEST(DenseOps, CopyNormSqCopiesAndMatchesDotBitwise) {
  Rng rng(23);
  DenseVector src(29), dst(29, 0.0), v(29);
  for (auto& e : src) e = rng.NextGaussian();
  for (auto& e : v) e = rng.NextGaussian();
  const double nrm = CopyNormSq(src, dst, v);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(nrm, Dot(v, v));
}

TEST(DenseOps, FusedKernelDimensionChecks) {
  DenseVector a(3), b(4);
  EXPECT_THROW(AxpyNormSq(1.0, a, b), InvalidArgument);
  EXPECT_THROW(XpayNormSq(1.0, a, b, 1.0, b), InvalidArgument);
  EXPECT_THROW(XpayNormSq(1.0, b, b, 1.0, a), InvalidArgument);
  double ss = 0.0, rr = 0.0;
  EXPECT_THROW(DualAxpyNormSq(1.0, a, a, a, a, b, ss, rr), InvalidArgument);
  EXPECT_THROW(CopyNormSq(a, b, a), InvalidArgument);
}

// The vector kernels against the scalar four-lane references of
// scalar_kernels.hpp, bit for bit, at lengths covering the empty vector, a
// pure tail, exactly one lane block, block + tail, and the url_tall and
// news20 feature dimensions.
class LaneKernelBitwise : public ::testing::TestWithParam<std::size_t> {
 protected:
  DenseVector Random(std::uint64_t seed) const {
    Rng rng(seed);
    DenseVector v(GetParam());
    for (auto& e : v) e = rng.NextGaussian();
    return v;
  }
};

void ExpectSameBits(std::span<const double> got, std::span<const double> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(testref::Bits(got[i]), testref::Bits(want[i])) << "element " << i;
  }
}

TEST_P(LaneKernelBitwise, Reductions) {
  const auto x = Random(1), y = Random(2);
  EXPECT_EQ(testref::Bits(Dot(x, y)), testref::Bits(testref::Dot4(x, y)));
  EXPECT_EQ(testref::Bits(Norm2(x)), testref::Bits(testref::Norm2_4(x)));
  EXPECT_EQ(testref::Bits(DistanceL2(x, y)),
            testref::Bits(testref::DistanceL2_4(x, y)));
}

TEST_P(LaneKernelBitwise, FusedUpdates) {
  const auto x = Random(3), y0 = Random(4), v = Random(5);

  auto y = y0, y_ref = y0;
  EXPECT_EQ(testref::Bits(AxpyNormSq(0.37, x, y)),
            testref::Bits(testref::AxpyNormSq4(0.37, x, y_ref)));
  ExpectSameBits(y, y_ref);

  y = y0;
  y_ref = y0;
  DenseVector scaled(x.size()), scaled_ref(x.size());
  EXPECT_EQ(testref::Bits(XpayNormSq(-0.8, x, y, 1.7, scaled)),
            testref::Bits(testref::XpayNormSq4(-0.8, x, y_ref)));
  for (std::size_t i = 0; i < x.size(); ++i) scaled_ref[i] = 1.7 * y_ref[i];
  ExpectSameBits(y, y_ref);
  ExpectSameBits(scaled, scaled_ref);

  DenseVector dst(x.size(), 0.0), dst_ref(x.size(), 0.0);
  EXPECT_EQ(testref::Bits(CopyNormSq(x, dst, v)),
            testref::Bits(testref::CopyNormSq4(x, dst_ref, v)));
  ExpectSameBits(dst, dst_ref);
}

// DualAxpyNormSq is the truncated-CG step: s += a p and r_out = r - a q in
// one pass, equal to the two AxpyNormSq calls it replaced (r_out = r + (-a) q
// on a copy of r), with r itself untouched.
TEST_P(LaneKernelBitwise, DualAxpyMatchesTwoAxpys) {
  const auto p = Random(6), q = Random(7), s0 = Random(8), r = Random(9);
  auto s = s0, s_ref = s0, r_ref = r;
  DenseVector r_out(p.size(), 0.0);
  double ss = 0.0, rr = 0.0;
  DualAxpyNormSq(0.61, p, s, q, r, r_out, ss, rr);
  const double ss_ref = testref::AxpyNormSq4(0.61, p, s_ref);
  const double rr_ref = testref::AxpyNormSq4(-0.61, q, r_ref);
  EXPECT_EQ(testref::Bits(ss), testref::Bits(ss_ref));
  EXPECT_EQ(testref::Bits(rr), testref::Bits(rr_ref));
  ExpectSameBits(s, s_ref);
  ExpectSameBits(r_out, r_ref);
  ExpectSameBits(r, Random(9));
}

INSTANTIATE_TEST_SUITE_P(Lengths, LaneKernelBitwise,
                         ::testing::Values(0, 1, 3, 4, 5, 193, 13551));

// ------------------------------------------------------ symmetric gram ----

namespace {

/// Dense reference: G = sum_r w_r a_r a_r^T over the rows of m, returned
/// as a full dense matrix.
std::vector<double> DenseGram(const CsrMatrix& m,
                              std::span<const double> w) {
  const auto d = static_cast<std::size_t>(m.cols());
  std::vector<double> g(d * d, 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.RowIndices(r);
    const auto vals = m.RowValues(r);
    const double wr = w[r];
    for (std::size_t a = 0; a < cols.size(); ++a) {
      for (std::size_t b = 0; b < cols.size(); ++b) {
        g[static_cast<std::size_t>(cols[a]) * d +
          static_cast<std::size_t>(cols[b])] += wr * vals[a] * vals[b];
      }
    }
  }
  return g;
}

CsrMatrix RandomTall(std::uint64_t seed, std::size_t rows, std::size_t cols,
                     double density = 0.4, bool with_empty_rows = false) {
  Rng rng(seed);
  CsrMatrix::Builder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<CsrMatrix::Index> idx;
    std::vector<double> val;
    if (!(with_empty_rows && r % 5 == 0)) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (rng.NextBool(density)) {
          idx.push_back(c);
          val.push_back(rng.NextGaussian());
        }
      }
    }
    b.AddRow(idx, val);
  }
  return b.Build();
}

}  // namespace

TEST(SymmetricGram, AccumulatesOuterProductsLikeDenseReference) {
  const auto m = RandomTall(31, 12, 5);
  const DenseVector ones(12, 1.0);
  SymmetricGram g;
  g.Reset(static_cast<std::size_t>(m.cols()));
  m.GramProduct(ones, g);
  const auto ref = DenseGram(m, ones);
  for (std::size_t i = 0; i < g.dim(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(g.At(i, j), ref[i * g.dim() + j], 1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(SymmetricGram, WeightedGramMatchesDenseReference) {
  const auto m = RandomTall(32, 15, 4);
  DenseVector w(15);
  Rng rng(33);
  for (auto& e : w) e = 0.1 + std::fabs(rng.NextGaussian());
  SymmetricGram g;
  g.Reset(static_cast<std::size_t>(m.cols()));
  m.GramProduct(w, g);
  const auto ref = DenseGram(m, w);
  for (std::size_t i = 0; i < g.dim(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(g.At(i, j), ref[i * g.dim() + j], 1e-12);
    }
  }
}

TEST(SymmetricGram, GramProductHandlesEmptyRowsAndSingleColumn) {
  // Empty rows contribute nothing; a single-column shard packs to one entry.
  const auto m = RandomTall(34, 20, 1, 0.9, /*with_empty_rows=*/true);
  SymmetricGram g;
  g.Reset(1);
  m.GramProduct(DenseVector(20, 1.0), g);
  double ref = 0.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (const double v : m.RowValues(r)) ref += v * v;
  }
  EXPECT_EQ(g.packed_size(), 1u);
  EXPECT_NEAR(g.At(0, 0), ref, 1e-12);
}

TEST(SymmetricGram, AddDiagonalAndMultiplyMatchDense) {
  const auto m = RandomTall(35, 10, 6);
  const DenseVector ones(10, 1.0);
  SymmetricGram g;
  g.Reset(6);
  m.GramProduct(ones, g);
  g.AddDiagonal(0.9);
  auto ref = DenseGram(m, ones);
  for (std::size_t i = 0; i < 6; ++i) ref[i * 6 + i] += 0.9;

  Rng rng(36);
  DenseVector x(6), out(6, -1.0);
  for (auto& e : x) e = rng.NextGaussian();
  g.Multiply(x, out);
  for (std::size_t i = 0; i < 6; ++i) {
    double want = 0.0;
    for (std::size_t j = 0; j < 6; ++j) want += ref[i * 6 + j] * x[j];
    EXPECT_NEAR(out[i], want, 1e-12) << "row " << i;
  }
}

// ----------------------------------------------- CSR kernel contracts ----

namespace {

/// Scalar reference loops with the natural sequential accumulation order —
/// the order the CSR kernels are required to preserve bitwise (the
/// committed sweep baselines pin convergence integers that depend on it).
void ScalarMultiply(const CsrMatrix& m, std::span<const double> x,
                    std::span<double> out) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.RowIndices(r);
    const auto vals = m.RowValues(r);
    double acc = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    out[r] = acc;
  }
}

void ScalarTransposeMultiplyAdd(const CsrMatrix& m, std::span<const double> v,
                                std::span<double> out) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    const auto cols = m.RowIndices(r);
    const auto vals = m.RowValues(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out[static_cast<std::size_t>(cols[k])] += vr * vals[k];
    }
  }
}

}  // namespace

TEST(CsrMatrix, BlockedMultiplyIsBitwiseEqualToScalar) {
  for (const std::uint64_t seed : {41, 42, 43}) {
    // Empty rows, a single-column matrix and a short one cover the
    // degenerate shapes.
    const std::vector<std::tuple<std::size_t, std::size_t, bool>> shapes = {
        {23, 9, true}, {16, 1, false}, {3, 7, true}};
    for (const auto& [rows, cols, empty] : shapes) {
      const auto m = RandomTall(seed, rows, cols, 0.5, empty);
      Rng rng(seed + 7);
      DenseVector x(cols), got(rows, -1.0), want(rows, -2.0);
      for (auto& e : x) e = rng.NextGaussian();
      m.Multiply(x, got);
      ScalarMultiply(m, x, want);
      EXPECT_EQ(got, want) << "seed " << seed << " rows " << rows;
    }
  }
}

TEST(CsrMatrix, BlockedTransposeMultiplyAddIsBitwiseEqualToScalar) {
  for (const std::uint64_t seed : {44, 45}) {
    const auto m = RandomTall(seed, 21, 8, 0.5, /*with_empty_rows=*/true);
    Rng rng(seed + 7);
    DenseVector v(21), got(8), want(8);
    for (auto& e : v) e = rng.NextGaussian();
    v[3] = 0.0;  // exercise the vr == 0 skip
    for (std::size_t i = 0; i < 8; ++i) got[i] = want[i] = 0.25 * i;
    m.TransposeMultiplyAdd(v, got);
    ScalarTransposeMultiplyAdd(m, v, want);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(CsrMatrix, MaxOccupiedColumnIsCachedForAllShapes) {
  // All-empty matrix: no occupied column.
  CsrMatrix::Builder b0(4);
  b0.AddRow({}, {});
  b0.AddRow({}, {});
  EXPECT_EQ(b0.Build().MaxOccupiedColumn(), 0u);

  // Mixed empty/nonempty rows: the cache must track the global maximum,
  // not the last row's.
  CsrMatrix::Builder b1(10);
  const CsrMatrix::Index c0[] = {7};
  const double v0[] = {1.0};
  b1.AddRow(c0, v0);
  b1.AddRow({}, {});
  const CsrMatrix::Index c2[] = {2};
  b1.AddRow(c2, v0);
  EXPECT_EQ(b1.Build().MaxOccupiedColumn(), 8u);

  // Single-column shard.
  CsrMatrix::Builder b2(1);
  const CsrMatrix::Index c3[] = {0};
  b2.AddRow(c3, v0);
  EXPECT_EQ(b2.Build().MaxOccupiedColumn(), 1u);
}

}  // namespace
}  // namespace psra::linalg
