// Iterative (Krylov) tier: CG/BiCGStab vs direct LU, ILU(0)/Jacobi
// preconditioners, breakdown handling, and the SolverWorkspace crossover.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/dense.h"
#include "linalg/krylov.h"
#include "linalg/vector_ops.h"
#include "spice/circuit.h"
#include "spice/dcop.h"
#include "spice/mna.h"
#include "spice/solver_workspace.h"

namespace mivtx::linalg {
namespace {

struct Csr {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr, col_idx;
  std::vector<double> values;
  CsrView view() const { return {n, &row_ptr, &col_idx, &values}; }
};

Csr from_dense(const DenseMatrix& a) {
  Csr m;
  m.n = a.rows();
  m.row_ptr.push_back(0);
  for (std::size_t r = 0; r < m.n; ++r) {
    for (std::size_t c = 0; c < m.n; ++c) {
      if (a(r, c) != 0.0) {
        m.col_idx.push_back(c);
        m.values.push_back(a(r, c));
      }
    }
    m.row_ptr.push_back(m.col_idx.size());
  }
  return m;
}

// 2D Laplacian (5-point stencil) on a k x k grid: SPD, the power-grid
// Jacobian's structure.
DenseMatrix laplacian2d(std::size_t k) {
  const std::size_t n = k * k;
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t i = r * k + c;
      a(i, i) = 4.0;
      if (c + 1 < k) a(i, i + 1) = a(i + 1, i) = -1.0;
      if (r + 1 < k) a(i, i + k) = a(i + k, i) = -1.0;
    }
  }
  return a;
}

// Nonsymmetric convection-diffusion stencil: general-MNA stand-in.
DenseMatrix convection2d(std::size_t k) {
  DenseMatrix a = laplacian2d(k);
  const std::size_t n = k * k;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && a(i, i + 1) != 0.0) {
      a(i, i + 1) += 0.6;  // upwind bias breaks symmetry
      a(i + 1, i) -= 0.4;
    }
  }
  return a;
}

Vector rhs_for(std::size_t n) {
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = std::sin(0.7 * static_cast<double>(i) + 0.3);
  return b;
}

double max_err(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

TEST(Krylov, CsrMatvecMatchesDense) {
  const DenseMatrix a = convection2d(4);
  const Csr m = from_dense(a);
  const Vector x = rhs_for(m.n);
  Vector y(m.n, 0.0);
  csr_matvec(m.view(), x, y);
  for (std::size_t r = 0; r < m.n; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < m.n; ++c) acc += a(r, c) * x[c];
    EXPECT_NEAR(y[r], acc, 1e-14);
  }
}

TEST(Krylov, CgMatchesDenseLuOnSpdSystem) {
  const DenseMatrix a = laplacian2d(7);
  const Csr m = from_dense(a);
  const Vector b = rhs_for(m.n);
  const Vector exact = solve_dense(a, b);

  Ilu0Preconditioner ilu;
  ilu.analyze(m.n, m.row_ptr, m.col_idx);
  ASSERT_TRUE(ilu.factorize(m.values));

  KrylovSolver solver;
  Vector x(m.n, 0.0);
  IterativeOptions opts;
  opts.rtol = 1e-12;
  const IterativeResult res = solver.cg(m.view(), &ilu, b, x, opts);
  EXPECT_TRUE(res.ok()) << to_string(res.outcome);
  EXPECT_LE(max_err(x, exact), 1e-9);
}

TEST(Krylov, BicgstabMatchesDenseLuOnNonsymmetricSystem) {
  const DenseMatrix a = convection2d(7);
  const Csr m = from_dense(a);
  const Vector b = rhs_for(m.n);
  const Vector exact = solve_dense(a, b);

  Ilu0Preconditioner ilu;
  ilu.analyze(m.n, m.row_ptr, m.col_idx);
  ASSERT_TRUE(ilu.factorize(m.values));

  KrylovSolver solver;
  Vector x(m.n, 0.0);
  IterativeOptions opts;
  opts.rtol = 1e-12;
  const IterativeResult res = solver.bicgstab(m.view(), &ilu, b, x, opts);
  EXPECT_TRUE(res.ok()) << to_string(res.outcome);
  EXPECT_LE(max_err(x, exact), 1e-9);
}

TEST(Krylov, Ilu0IsExactOnTridiagonalPattern) {
  // A tridiagonal matrix factors with zero fill, so ILU(0) equals the
  // exact LU and a single preconditioner application solves the system.
  const std::size_t n = 40;
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.5;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -0.8;
    }
  }
  const Csr m = from_dense(a);
  const Vector b = rhs_for(n);
  const Vector exact = solve_dense(a, b);

  Ilu0Preconditioner ilu;
  ilu.analyze(n, m.row_ptr, m.col_idx);
  ASSERT_TRUE(ilu.factorize(m.values));
  Vector z(n, 0.0);
  ilu.apply(b, z);
  EXPECT_LE(max_err(z, exact), 1e-10);
}

TEST(Krylov, Ilu0BeatsJacobiOnIterationCount) {
  const DenseMatrix a = laplacian2d(10);
  const Csr m = from_dense(a);
  const Vector b = rhs_for(m.n);

  Ilu0Preconditioner ilu;
  ilu.analyze(m.n, m.row_ptr, m.col_idx);
  ASSERT_TRUE(ilu.factorize(m.values));
  JacobiPreconditioner jacobi;
  jacobi.analyze(m.n, m.row_ptr, m.col_idx);
  ASSERT_TRUE(jacobi.factorize(m.values));

  KrylovSolver solver;
  IterativeOptions opts;
  opts.rtol = 1e-10;
  Vector x_ilu(m.n, 0.0), x_jac(m.n, 0.0);
  const IterativeResult r_ilu = solver.cg(m.view(), &ilu, b, x_ilu, opts);
  const IterativeResult r_jac = solver.cg(m.view(), &jacobi, b, x_jac, opts);
  ASSERT_TRUE(r_ilu.ok());
  ASSERT_TRUE(r_jac.ok());
  // The whole point of ILU(0): strictly fewer iterations than diagonal
  // scaling on a mesh Laplacian.
  EXPECT_LT(r_ilu.iterations, r_jac.iterations);
  EXPECT_LE(max_err(x_ilu, x_jac), 1e-8);
}

TEST(Krylov, JacobiDegradesMissingDiagonalToIdentity) {
  // Row 1 has no diagonal entry at all (an MNA branch row shape).
  Csr m;
  m.n = 2;
  m.row_ptr = {0, 2, 3};
  m.col_idx = {0, 1, 0};
  m.values = {2.0, 1.0, 1.0};
  JacobiPreconditioner jacobi;
  jacobi.analyze(m.n, m.row_ptr, m.col_idx);
  ASSERT_TRUE(jacobi.factorize(m.values));
  Vector z(2, 0.0);
  jacobi.apply(Vector{4.0, 3.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 2.0);  // scaled by 1/2
  EXPECT_DOUBLE_EQ(z[1], 3.0);  // identity pass-through
}

TEST(Krylov, Ilu0HandlesZeroDiagonalBranchRows) {
  // MNA shape of an ideal V source between nodes 1 and ground plus two
  // resistors: the branch row/column diagonal is structurally zero, which
  // is exactly why the ILU(0) pattern must include the full diagonal.
  //   [ g1+g2  -g2    1 ] [v1]   [0]
  //   [ -g2     g2    0 ] [v2] = [0]
  //   [ 1       0     0 ] [ib]   [V]
  DenseMatrix a(3, 3);
  const double g1 = 1e-3, g2 = 2e-3;
  a(0, 0) = g1 + g2;
  a(0, 1) = -g2;
  a(0, 2) = 1.0;
  a(1, 0) = -g2;
  a(1, 1) = g2;
  a(2, 0) = 1.0;
  const Csr m = from_dense(a);
  const Vector b{0.0, 0.0, 1.5};
  const Vector exact = solve_dense(a, b);

  Ilu0Preconditioner ilu;
  ilu.analyze(m.n, m.row_ptr, m.col_idx);
  ASSERT_TRUE(ilu.factorize(m.values));
  KrylovSolver solver;
  Vector x(3, 0.0);
  IterativeOptions opts;
  opts.rtol = 1e-13;
  const IterativeResult res = solver.bicgstab(m.view(), &ilu, b, x, opts);
  EXPECT_TRUE(res.ok()) << to_string(res.outcome);
  EXPECT_LE(max_err(x, exact), 1e-9);
}

TEST(Krylov, CgReportsBreakdownOnIndefiniteSystem) {
  // Symmetric but indefinite: p'Ap goes nonpositive and CG must say so
  // instead of returning garbage.
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  const Csr m = from_dense(a);
  KrylovSolver solver;
  Vector x(2, 0.0);
  const IterativeResult res = solver.cg(m.view(), nullptr, Vector{0.0, 1.0}, x);
  EXPECT_EQ(res.outcome, IterativeOutcome::kBreakdown);
}

TEST(Krylov, ZeroRhsConvergesImmediately) {
  const DenseMatrix a = laplacian2d(3);
  const Csr m = from_dense(a);
  KrylovSolver solver;
  Vector x(m.n, 1.0);
  const IterativeResult res =
      solver.cg(m.view(), nullptr, Vector(m.n, 0.0), x);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.iterations, 0);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace mivtx::linalg

namespace mivtx::spice {
namespace {

// Resistor ladder with a drive source: linear, so one Newton iteration is
// one linear solve and the workspace stats are easy to reason about.
Circuit ladder_circuit(std::size_t sections) {
  Circuit ckt;
  ckt.add_vsource("VIN", ckt.node("n0"), kGround, SourceSpec::DC(1.0));
  for (std::size_t i = 0; i < sections; ++i) {
    const NodeId a = ckt.node(std::string("n").append(std::to_string(i)));
    const NodeId b =
        ckt.node(std::string("n").append(std::to_string(i + 1)));
    ckt.add_resistor("Rs" + std::to_string(i), a, b, 10.0);
    ckt.add_resistor("Rg" + std::to_string(i), b, kGround, 1e3);
  }
  return ckt;
}

TEST(KrylovWorkspace, PinnedBicgstabSolvesIteratively) {
  const Circuit ckt = ladder_circuit(64);
  NewtonOptions opts;
  opts.backend = SolverBackend::kSparse;
  opts.linear_solver = LinearSolver::kBicgstab;
  SolverWorkspace ws(ckt, opts);
  EXPECT_TRUE(ws.iterative_tier());
  EXPECT_TRUE(ws.iterative_active());
  const DcResult dc = dc_operating_point(ckt, opts, ws);
  ASSERT_TRUE(dc.converged);
  const SolverStats stats = ws.stats_snapshot();
  EXPECT_GT(stats.iterative_solves, 0u);
  EXPECT_GT(stats.precond_factorizations, 0u);
  EXPECT_EQ(stats.iterative_fallbacks, 0u);
  // Agreement with a plain direct solve.
  NewtonOptions direct = opts;
  direct.linear_solver = LinearSolver::kDirect;
  const DcResult ref = dc_operating_point(ckt, direct);
  ASSERT_TRUE(ref.converged);
  for (std::size_t i = 0; i < ref.x.size(); ++i)
    EXPECT_NEAR(dc.x[i], ref.x[i], 1e-9);
}

TEST(KrylovWorkspace, AutoCrossoverForcedByThresholds) {
  const Circuit ckt = ladder_circuit(32);
  NewtonOptions opts;
  opts.backend = SolverBackend::kSparse;
  opts.linear_solver = LinearSolver::kAuto;
  // Default thresholds: way below the crossover, the tier must stay off.
  {
    SolverWorkspace ws(ckt, opts);
    EXPECT_FALSE(ws.iterative_tier());
  }
  // Forced low threshold: the same circuit goes iterative.
  opts.iterative_min_unknowns = 16;
  {
    SolverWorkspace ws(ckt, opts);
    EXPECT_TRUE(ws.iterative_tier());
    const DcResult dc = dc_operating_point(ckt, opts, ws);
    ASSERT_TRUE(dc.converged);
    EXPECT_GT(ws.stats_snapshot().iterative_solves, 0u);
  }
  // Fill-ratio band: force the band to cover this size with an impossible
  // ratio -> stays direct; with a free ratio -> iterative.
  opts.iterative_min_unknowns = 100000;
  opts.iterative_fill_min_unknowns = 16;
  opts.iterative_fill_ratio = 1e9;
  {
    SolverWorkspace ws(ckt, opts);
    EXPECT_FALSE(ws.iterative_tier());
  }
  opts.iterative_fill_ratio = 0.0;
  {
    SolverWorkspace ws(ckt, opts);
    EXPECT_TRUE(ws.iterative_tier());
  }
}

TEST(KrylovWorkspace, BudgetMissFallsBackToDirectLadder) {
  const Circuit ckt = ladder_circuit(64);
  NewtonOptions opts;
  opts.backend = SolverBackend::kSparse;
  opts.linear_solver = LinearSolver::kBicgstab;
  // A one-iteration budget cannot converge; every solve must reroute to
  // the direct ladder and still produce the right answer.
  opts.iterative_max_iterations = 1;
  SolverWorkspace ws(ckt, opts);
  const DcResult dc = dc_operating_point(ckt, opts, ws);
  ASSERT_TRUE(dc.converged);
  const SolverStats stats = ws.stats_snapshot();
  EXPECT_EQ(stats.iterative_solves, 0u);
  EXPECT_GT(stats.iterative_fallbacks, 0u);
  EXPECT_EQ(stats.last_fallback, IterativeFallback::kMaxIterations);
  EXPECT_FALSE(ws.iterative_active());  // sticky after repeated failures

  const DcResult ref = dc_operating_point(ckt, NewtonOptions{});
  ASSERT_TRUE(ref.converged);
  for (std::size_t i = 0; i < ref.x.size(); ++i)
    EXPECT_NEAR(dc.x[i], ref.x[i], 1e-9);
}

}  // namespace
}  // namespace mivtx::spice
