// Linear algebra: dense/banded LU, sparse kernels, iterative solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "linalg/banded.h"
#include "linalg/dense.h"
#include "linalg/krylov.h"
#include "linalg/sparse.h"
#include "linalg/vector_ops.h"

namespace mivtx::linalg {
namespace {

TEST(VectorOps, Basics) {
  Vector a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{-7, 2}), 7.0);
  axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  EXPECT_DOUBLE_EQ(sub(a, a)[1], 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, Vector{1, 2, 4}), 1.0);
  EXPECT_THROW(dot(a, Vector{1.0}), Error);
}

TEST(VectorOps, Linspace) {
  const Vector v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
  EXPECT_EQ(linspace(2.0, 9.0, 1).size(), 1u);
  EXPECT_DOUBLE_EQ(linspace(2.0, 9.0, 1)[0], 2.0);
}

TEST(Dense, SolveKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const Vector x = solve_dense(a, Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Dense, PivotingHandlesZeroDiagonal) {
  DenseMatrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  const Vector x = solve_dense(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Dense, DetectsSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(DenseLU{a}, Error);
}

class DenseRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DenseRandomTest, ResidualSmall) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
    a(r, r) += 3.0;  // diagonally dominant-ish
  }
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const Vector x = DenseLU(a).solve(b);
  const Vector r = sub(a.multiply(x), b);
  EXPECT_LT(norm_inf(r), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseRandomTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(Dense, MultiplyTransposeMatmul) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector y = a.multiply(Vector{1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  const DenseMatrix at = a.transpose();
  EXPECT_DOUBLE_EQ(at(2, 1), 6);
  const DenseMatrix ata = at.multiply(a);
  EXPECT_EQ(ata.rows(), 3u);
  EXPECT_DOUBLE_EQ(ata(0, 0), 17.0);
}

struct BandShape {
  std::size_t n, kl, ku;
};

class BandedVsDenseTest : public ::testing::TestWithParam<BandShape> {};

TEST_P(BandedVsDenseTest, MatchesDense) {
  const auto [n, kl, ku] = GetParam();
  Rng rng(42 + n * 10 + kl);
  BandedMatrix bm(n, kl, ku);
  DenseMatrix dm(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t c0 = r > kl ? r - kl : 0;
    const std::size_t c1 = std::min(n - 1, r + ku);
    for (std::size_t c = c0; c <= c1; ++c) {
      double v = rng.uniform(-1, 1);
      if (r == c) v += 4.0;
      bm.set(r, c, v);
      dm(r, c) = v;
    }
  }
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  // Multiply agrees.
  EXPECT_LT(max_abs_diff(bm.multiply(b), dm.multiply(b)), 1e-12);
  // Solve agrees.
  const Vector xb = BandedLU(bm).solve(b);
  const Vector xd = DenseLU(dm).solve(b);
  EXPECT_LT(max_abs_diff(xb, xd), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandedVsDenseTest,
                         ::testing::Values(BandShape{5, 1, 1},
                                           BandShape{10, 2, 3},
                                           BandShape{30, 4, 4},
                                           BandShape{50, 7, 2},
                                           BandShape{64, 15, 15}));

TEST(Banded, OutOfBandAccess) {
  BandedMatrix b(6, 1, 1);
  EXPECT_DOUBLE_EQ(b.at(0, 5), 0.0);
  EXPECT_THROW(b.set(0, 5, 1.0), mivtx::Error);
  EXPECT_THROW(b.at(6, 0), mivtx::Error);
}

// Reference elimination: the row-by-row kl+ku sweep BandedLU used before
// its column-oriented, reach-tracked kernel, on a dense copy.  BandedLU
// must reproduce its solutions bit for bit.  Counts its row swaps.
Vector reference_banded_solve(const BandedMatrix& m, Vector b,
                              std::size_t& swaps) {
  const std::size_t n = m.size();
  const std::size_t kl = m.lower_bandwidth();
  const std::size_t kv = kl + m.upper_bandwidth();
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = m.at(r, c);
  std::vector<std::size_t> piv(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t rmax = std::min(j + kl, n - 1);
    std::size_t p = j;
    double best = std::fabs(a(j, j));
    for (std::size_t r = j + 1; r <= rmax; ++r) {
      if (std::fabs(a(r, j)) > best) {
        best = std::fabs(a(r, j));
        p = r;
      }
    }
    piv[j] = p;
    swaps += p != j;
    const std::size_t cend = std::min(j + kv, n - 1);
    if (p != j)
      for (std::size_t c = j; c <= cend; ++c) std::swap(a(j, c), a(p, c));
    const double inv = 1.0 / a(j, j);
    for (std::size_t r = j + 1; r <= rmax; ++r) {
      const double f = a(r, j) * inv;
      a(r, j) = f;
      if (f == 0.0) continue;
      for (std::size_t c = j + 1; c <= cend; ++c) a(r, c) -= f * a(j, c);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (piv[j] != j) std::swap(b[j], b[piv[j]]);
    const double bj = b[j];
    if (bj == 0.0) continue;
    for (std::size_t r = j + 1; r <= std::min(j + kl, n - 1); ++r)
      b[r] -= a(r, j) * bj;
  }
  for (std::size_t jj = n; jj-- > 0;) {
    double s = b[jj];
    for (std::size_t c = jj + 1; c <= std::min(jj + kv, n - 1); ++c)
      s -= a(jj, c) * b[c];
    b[jj] = s / a(jj, jj);
  }
  return b;
}

bool same_bits(const Vector& x, const Vector& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

// A banded matrix whose weak diagonal and scattered exact zeros make
// partial pivoting swap rows and create fill past ku.
BandedMatrix pivoting_matrix(std::size_t n, std::size_t kl, std::size_t ku,
                             Rng& rng) {
  BandedMatrix m(n, kl, ku);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t c0 = r > kl ? r - kl : 0;
    const std::size_t c1 = std::min(n - 1, r + ku);
    for (std::size_t c = c0; c <= c1; ++c) {
      double v = rng.uniform(-1, 1);
      if (r == c)
        v = r % 5 == 0 ? 0.0 : 1e-3 * v;  // zero or weak pivot
      else if (rng.uniform(0, 1) < 0.2)
        v = 0.0;  // exact zero
      m.set(r, c, v);
    }
  }
  return m;
}

struct PivotShape {
  std::size_t n, kl, ku;
};

class BandedPivotingTest : public ::testing::TestWithParam<PivotShape> {};

TEST_P(BandedPivotingTest, BitEqualToRowSweepReference) {
  const auto [n, kl, ku] = GetParam();
  Rng rng(7 + n + 31 * kl + 97 * ku);
  const BandedMatrix m = pivoting_matrix(n, kl, ku, rng);
  const BandedLU lu(m);
  std::size_t swaps = 0;
  for (int k = 0; k < 3; ++k) {
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-1, 1);
    if (k == 2) b[n / 2] = 0.0;
    const Vector x = lu.solve(b);
    EXPECT_TRUE(same_bits(x, reference_banded_solve(m, b, swaps)))
        << "rhs " << k;
    EXPECT_LT(max_abs_diff(m.multiply(x), b), 1e-6 * (1.0 + norm_inf(x)));
  }
  EXPECT_GT(swaps, 0u);  // the shape did force row swaps
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandedPivotingTest,
                         ::testing::Values(PivotShape{6, 1, 1},
                                           PivotShape{20, 3, 1},
                                           PivotShape{25, 1, 4},
                                           PivotShape{40, 6, 2},
                                           PivotShape{40, 2, 7},
                                           PivotShape{120, 15, 15},
                                           PivotShape{90, 15, 4}));

TEST(Banded, ReusedWorkspaceRefactorsToTheSameBits) {
  const std::size_t n = 80, kl = 9, ku = 5;
  Rng rng(11);
  const BandedMatrix first = pivoting_matrix(n, kl, ku, rng);
  const BandedMatrix second = pivoting_matrix(n, kl, ku, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);

  BandedLU ws(n, kl, ku);
  for (const BandedMatrix* m : {&first, &second, &first}) {
    BandedMatrix& a = ws.matrix();
    a.set_zero();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = (r > kl ? r - kl : 0);
           c <= std::min(n - 1, r + ku); ++c)
        a.set(r, c, m->at(r, c));
    ws.factor();
    Vector x = b;
    ws.solve_in_place(x);
    EXPECT_TRUE(same_bits(x, BandedLU(*m).solve(b)));
  }
}

TEST(Banded, SolveNeedsAFactorization) {
  BandedLU ws(4, 1, 1);
  EXPECT_THROW(ws.solve(Vector(4, 1.0)), mivtx::Error);
}

TEST(Banded, DetectsSingular) {
  BandedMatrix b(3, 1, 1);
  b.set(0, 0, 1.0);
  b.set(1, 1, 0.0);
  b.set(2, 2, 1.0);
  EXPECT_THROW(BandedLU{b}, mivtx::Error);
}

TEST(Sparse, BuildAndMultiply) {
  SparseBuilder sb(3, 3);
  sb.add(0, 0, 2.0);
  sb.add(0, 0, 1.0);  // accumulates to 3
  sb.add(1, 2, -1.0);
  sb.add(2, 1, 4.0);
  sb.add(2, 2, 0.0);  // dropped
  const SparseMatrix m(sb);
  EXPECT_EQ(m.num_nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  const Vector y = m.multiply(Vector{1, 2, 3});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
  EXPECT_DOUBLE_EQ(y[2], 8.0);
}

TEST(Sparse, CancellingDuplicatesDropped) {
  SparseBuilder sb(2, 2);
  sb.add(0, 0, 1.0);
  sb.add(0, 1, 5.0);
  sb.add(0, 1, -5.0);
  sb.add(1, 1, 1.0);
  const SparseMatrix m(sb);
  EXPECT_EQ(m.num_nonzeros(), 2u);
}

// CsrView over a SparseMatrix's compressed arrays (the Krylov tier's input).
CsrView csr_view(const SparseMatrix& a) {
  return CsrView{a.rows(), &a.row_ptr(), &a.col_idx(), &a.values()};
}

TEST(Sparse, BicgstabSolvesSpdSystem) {
  // 1-D Laplacian, n = 50.
  const std::size_t n = 50;
  SparseBuilder sb(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sb.add(i, i, 2.0);
    if (i > 0) sb.add(i, i - 1, -1.0);
    if (i + 1 < n) sb.add(i, i + 1, -1.0);
  }
  const SparseMatrix a(sb);
  const Vector b(n, 1.0);
  Vector x(n, 0.0);
  IterativeOptions opts;
  opts.rtol = 1e-12;
  opts.max_iterations = 500;
  KrylovSolver solver;
  const IterativeResult r =
      solver.bicgstab(csr_view(a), nullptr, b, x, opts);
  EXPECT_TRUE(r.ok()) << to_string(r.outcome);
  EXPECT_LT(norm_inf(sub(a.multiply(x), b)), 1e-8);
}

TEST(Sparse, Ilu0PreconditioningReducesIterations) {
  const std::size_t n = 120;
  Rng rng(5);
  SparseBuilder sb(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sb.add(i, i, 4.0 + rng.uniform(0, 1));
    if (i > 0) sb.add(i, i - 1, -1.0 + 0.1 * rng.uniform(-1, 1));
    if (i + 1 < n) sb.add(i, i + 1, -1.0 + 0.1 * rng.uniform(-1, 1));
    if (i + 10 < n) sb.add(i, i + 10, -0.4);
    if (i >= 10) sb.add(i, i - 10, -0.4);
  }
  const SparseMatrix a(sb);
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);

  IterativeOptions opts;
  opts.max_iterations = 2000;
  KrylovSolver solver;
  Vector x0(n, 0.0), x1(n, 0.0);
  const IterativeResult plain =
      solver.bicgstab(csr_view(a), nullptr, b, x0, opts);
  Ilu0Preconditioner precond;
  precond.analyze(n, a.row_ptr(), a.col_idx());
  ASSERT_TRUE(precond.factorize(a.values()));
  const IterativeResult pc =
      solver.bicgstab(csr_view(a), &precond, b, x1, opts);
  ASSERT_TRUE(plain.ok()) << to_string(plain.outcome);
  ASSERT_TRUE(pc.ok()) << to_string(pc.outcome);
  EXPECT_LT(pc.iterations, plain.iterations);
  EXPECT_LT(norm_inf(sub(a.multiply(x1), b)), 1e-7);
}

TEST(Sparse, AtBinarySearchWideRow) {
  // at() binary-searches within the row; exercise first/last/interior hits
  // and misses on both sides and between present columns.
  const std::size_t n = 64;
  SparseBuilder sb(1, n);
  for (std::size_t c = 1; c < n; c += 2) sb.add(0, c, double(c));
  const SparseMatrix m(sb);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);       // first stored column
  EXPECT_DOUBLE_EQ(m.at(0, 33), 33.0);     // interior
  EXPECT_DOUBLE_EQ(m.at(0, 63), 63.0);     // last stored column
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);       // before the first
  EXPECT_DOUBLE_EQ(m.at(0, 32), 0.0);      // gap between stored columns
}

TEST(Sparse, PatternOrderedBuilderMatchesShuffled) {
  // The CSR constructor skips its sort when the builder emitted entries in
  // pattern order; the result must be identical to a shuffled emission.
  const std::size_t n = 12;
  SparseBuilder ordered(n, n), shuffled(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    ordered.add(r, r > 0 ? r - 1 : r, 1.0);
    ordered.add(r, r, 4.0 + double(r));
    if (r + 2 < n) ordered.add(r, r + 2, -2.0);
  }
  for (std::size_t r = n; r-- > 0;) {
    if (r + 2 < n) shuffled.add(r, r + 2, -2.0);
    shuffled.add(r, r, 4.0 + double(r));
    shuffled.add(r, r > 0 ? r - 1 : r, 1.0);
  }
  const SparseMatrix a(ordered), b(shuffled);
  ASSERT_EQ(a.num_nonzeros(), b.num_nonzeros());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(a.at(r, c), b.at(r, c)) << r << "," << c;
}

TEST(Sparse, IndexChecks) {
  SparseBuilder sb(2, 2);
  EXPECT_THROW(sb.add(2, 0, 1.0), mivtx::Error);
  sb.add(0, 0, 1.0);
  sb.add(1, 1, 1.0);
  const SparseMatrix m(sb);
  EXPECT_THROW(m.at(2, 0), mivtx::Error);
  EXPECT_THROW(m.multiply(Vector{1.0}), mivtx::Error);
}

}  // namespace
}  // namespace mivtx::linalg
