// Sparse-first solver core: SparseLU against DenseLU, assembly-plan
// against dense assembly, and full dense-vs-sparse backend equivalence
// over all 14 standard cells x 4 implementations (DC operating point and
// transient endpoints), plus singular-system parity and the workspace
// allocation/metrics contract.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cells/netgen.h"
#include "common/rng.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "linalg/batch_lu.h"
#include "linalg/dense.h"
#include "linalg/sparse_lu.h"
#include "runtime/metrics.h"
#include "spice/assembly_plan.h"
#include "spice/solver_workspace.h"
#include "spice/transient.h"

namespace mivtx::spice {
namespace {

// ---------------------------------------------------------------------------
// SparseLU kernel vs DenseLU.

// Random diagonally-dominant system on a banded-ish pattern, returned as
// CSR the way AssemblyPlan hands it to the LU.
struct CsrSystem {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr, col_idx;
  std::vector<double> values;
};

CsrSystem random_system(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CsrSystem s;
  s.n = n;
  s.row_ptr.push_back(0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const bool diag = c == r;
      const bool band = c + 3 > r && c < r + 3;
      const bool stray = ((r * 31 + c * 17) % 11) == 0;
      if (!diag && !band && !stray) continue;
      s.col_idx.push_back(c);
      s.values.push_back(diag ? 6.0 + rng.uniform(0, 1) : rng.uniform(-1, 1));
    }
    s.row_ptr.push_back(s.col_idx.size());
  }
  return s;
}

linalg::DenseMatrix densify(const CsrSystem& s) {
  linalg::DenseMatrix m(s.n, s.n);
  for (std::size_t r = 0; r < s.n; ++r)
    for (std::size_t p = s.row_ptr[r]; p < s.row_ptr[r + 1]; ++p)
      m(r, s.col_idx[p]) = s.values[p];
  return m;
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

TEST(SparseLU, MatchesDenseLU) {
  for (const std::size_t n : {std::size_t{4}, std::size_t{17}, std::size_t{60}}) {
    const CsrSystem s = random_system(n, 7 + n);
    linalg::SparseLU lu;
    lu.analyze(s.n, s.row_ptr, s.col_idx);
    ASSERT_TRUE(lu.factorize(s.values));
    linalg::Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(double(i) + 1.0);
    linalg::Vector bd = b;
    lu.solve(b);
    const linalg::Vector xd = linalg::DenseLU(densify(s)).solve(bd);
    EXPECT_LT(max_abs_diff(b, xd), 1e-9) << "n=" << n;
  }
}

TEST(SparseLU, RefactorizeReplaysNewValues) {
  CsrSystem s = random_system(24, 99);
  linalg::SparseLU lu;
  lu.analyze(s.n, s.row_ptr, s.col_idx);
  ASSERT_TRUE(lu.factorize(s.values));
  // Perturb the values on the fixed pattern (a Newton re-linearization)
  // and replay numerically: no fresh pivoting, same answers as scratch.
  Rng rng(5);
  for (double& v : s.values) v += 0.05 * rng.uniform(-1, 1);
  ASSERT_TRUE(lu.refactorize(s.values));
  linalg::Vector b(s.n, 1.0), bd = b;
  lu.solve(b);
  const linalg::Vector xd = linalg::DenseLU(densify(s)).solve(bd);
  EXPECT_LT(max_abs_diff(b, xd), 1e-9);
}

TEST(SparseLU, RefactorizeRejectsDegradedPivots) {
  // Make a previously comfortable pivot collapse so the recorded pivot row
  // no longer dominates its column: refactorize must refuse (and require a
  // fresh factorize()) rather than divide by a tiny pivot.
  CsrSystem s = random_system(12, 3);
  linalg::SparseLU lu;
  lu.analyze(s.n, s.row_ptr, s.col_idx);
  ASSERT_TRUE(lu.factorize(s.values));
  for (std::size_t r = 0; r < s.n; ++r)
    for (std::size_t p = s.row_ptr[r]; p < s.row_ptr[r + 1]; ++p)
      if (s.col_idx[p] == r) s.values[p] = r == 5 ? 1e-14 : s.values[p];
  const bool replayed = lu.refactorize(s.values);
  if (!replayed) {
    EXPECT_FALSE(lu.factorized());
    EXPECT_TRUE(lu.factorize(s.values));
  }
  // Either way a subsequent solve matches dense.
  linalg::Vector b(s.n, 1.0), bd = b;
  lu.solve(b);
  const linalg::Vector xd = linalg::DenseLU(densify(s)).solve(bd);
  EXPECT_LT(max_abs_diff(b, xd), 1e-7);
}

TEST(SparseLU, SingularReportsFailure) {
  CsrSystem s = random_system(10, 11);
  // Zero out an entire row: exactly singular.
  for (std::size_t p = s.row_ptr[4]; p < s.row_ptr[5]; ++p) s.values[p] = 0.0;
  linalg::SparseLU lu;
  lu.analyze(s.n, s.row_ptr, s.col_idx);
  EXPECT_FALSE(lu.factorize(s.values));
  EXPECT_FALSE(lu.factorized());
}

// ---------------------------------------------------------------------------
// Lane-packed LU (BatchSparseLU) vs per-lane scalar.

// K perturbed copies of a base system packed lane-minor, pads replicating
// lane 0 the way the corner engine fills them.
std::vector<double> pack_lanes(const std::vector<std::vector<double>>& lanes,
                               std::size_t stride) {
  const std::size_t nnz = lanes[0].size();
  std::vector<double> soa(nnz * stride);
  for (std::size_t e = 0; e < nnz; ++e)
    for (std::size_t j = 0; j < stride; ++j)
      soa[e * stride + j] = lanes[j < lanes.size() ? j : 0][e];
  return soa;
}

TEST(BatchSparseLU, MatchesPerLaneDense) {
  const std::size_t n = 17, kLanes = 5;  // 5 lanes -> stride 8, one pad block
  const CsrSystem base = random_system(n, 21);
  linalg::SparseLU ref;
  ref.analyze(n, base.row_ptr, base.col_idx);
  ASSERT_TRUE(ref.factorize(base.values));

  std::vector<std::vector<double>> lanes(kLanes, base.values);
  Rng rng(77);
  for (std::size_t j = 1; j < kLanes; ++j)
    for (double& v : lanes[j]) v += 0.02 * rng.uniform(-1, 1);

  linalg::BatchSparseLU batch;
  batch.bind(ref, kLanes, true);
  ASSERT_EQ(batch.stride(), 8u);
  const std::size_t stride = batch.stride();
  const std::vector<double> soa = pack_lanes(lanes, stride);
  std::vector<unsigned char> ok(stride, 0);
  ASSERT_TRUE(batch.refactorize(soa.data(), ok.data()));

  std::vector<double> b(n * stride);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < stride; ++j)
      b[i * stride + j] = std::sin(double(i) + 0.3 * double(j) + 1.0);
  std::vector<double> rhs = b;
  batch.solve(b.data());

  for (std::size_t j = 0; j < kLanes; ++j) {
    CsrSystem s = base;
    s.values = lanes[j];
    linalg::Vector bj(n);
    for (std::size_t i = 0; i < n; ++i) bj[i] = rhs[i * stride + j];
    const linalg::Vector xd = linalg::DenseLU(densify(s)).solve(bj);
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      diff = std::max(diff, std::fabs(b[i * stride + j] - xd[i]));
    EXPECT_LT(diff, 1e-9) << "lane " << j;
  }
}

TEST(BatchSparseLU, FlagsDegradedLaneOthersUnaffected) {
  const std::size_t n = 12, kLanes = 4;
  const CsrSystem base = random_system(n, 3);
  linalg::SparseLU ref;
  ref.analyze(n, base.row_ptr, base.col_idx);
  ASSERT_TRUE(ref.factorize(base.values));

  // Collapse lane 1's row-5 diagonal exactly like the scalar degradation
  // test; the batch verdict for that lane must match scalar refactorize.
  std::vector<std::vector<double>> lanes(kLanes, base.values);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = base.row_ptr[r]; p < base.row_ptr[r + 1]; ++p)
      if (base.col_idx[p] == r && r == 5) lanes[1][p] = 1e-14;

  linalg::SparseLU scalar;
  scalar.analyze(n, base.row_ptr, base.col_idx);
  ASSERT_TRUE(scalar.factorize(base.values));
  const bool scalar_accepts = scalar.refactorize(lanes[1]);

  linalg::BatchSparseLU batch;
  batch.bind(ref, kLanes, true);
  const std::size_t stride = batch.stride();
  const std::vector<double> soa = pack_lanes(lanes, stride);
  std::vector<unsigned char> ok(stride, 0);
  const bool all = batch.refactorize(soa.data(), ok.data());
  EXPECT_EQ(all, scalar_accepts);
  EXPECT_EQ(ok[1] != 0, scalar_accepts);
  EXPECT_NE(ok[0], 0);
  EXPECT_NE(ok[2], 0);
  EXPECT_NE(ok[3], 0);

  // Healthy lanes still solve to the dense answer.
  std::vector<double> b(n * stride, 1.0);
  batch.solve(b.data());
  for (const std::size_t j : {std::size_t{0}, std::size_t{2}}) {
    CsrSystem s = base;
    s.values = lanes[j];
    linalg::Vector bj(n, 1.0);
    const linalg::Vector xd = linalg::DenseLU(densify(s)).solve(bj);
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      diff = std::max(diff, std::fabs(b[i * stride + j] - xd[i]));
    EXPECT_LT(diff, 1e-9) << "lane " << j;
  }
}

TEST(BatchSparseLU, PortableAndSimdKernelsAgree) {
  if (!linalg::batchlu::avx2_compiled() || !linalg::batchlu::cpu_has_avx2())
    GTEST_SKIP() << "AVX2 lane-packed LU not available";
  const std::size_t n = 24, kLanes = 8;
  const CsrSystem base = random_system(n, 55);
  linalg::SparseLU ref;
  ref.analyze(n, base.row_ptr, base.col_idx);
  ASSERT_TRUE(ref.factorize(base.values));
  std::vector<std::vector<double>> lanes(kLanes, base.values);
  Rng rng(13);
  for (std::size_t j = 0; j < kLanes; ++j)
    for (double& v : lanes[j]) v += 0.01 * rng.uniform(-1, 1);
  const std::vector<double> soa = pack_lanes(lanes, kLanes);

  linalg::BatchSparseLU portable, simd;
  portable.bind(ref, kLanes, false);
  simd.bind(ref, kLanes, true);
  ASSERT_FALSE(portable.simd_active());
  ASSERT_TRUE(simd.simd_active());
  std::vector<unsigned char> ok_p(kLanes, 0), ok_s(kLanes, 0);
  ASSERT_TRUE(portable.refactorize(soa.data(), ok_p.data()));
  ASSERT_TRUE(simd.refactorize(soa.data(), ok_s.data()));
  std::vector<double> bp(n * kLanes), bs;
  for (std::size_t i = 0; i < bp.size(); ++i)
    bp[i] = std::cos(0.1 * double(i));
  bs = bp;
  portable.solve(bp.data());
  simd.solve(bs.data());
  // FMA contraction separates the two kernels by rounding only.
  for (std::size_t i = 0; i < bp.size(); ++i)
    EXPECT_NEAR(bp[i], bs[i], 1e-12 * (1.0 + std::fabs(bp[i]))) << "slot " << i;
}

// ---------------------------------------------------------------------------
// Assembly plan: slot-directed CSR writes vs the dense assembler.

spice::Circuit sample_cell(cells::CellType type, cells::Implementation impl) {
  const core::PpaEngine engine(core::reference_model_library());
  core::PpaOptions probe;
  probe.t_delay = 20e-12;
  probe.t_width = 100e-12;
  cells::CellNetlist cell = cells::build_cell(
      type, impl, engine.model_set(impl), probe.parasitics, probe.vdd);
  core::apply_pin_stimulus(cell, 0, *core::PpaEngine::sensitize(type, 0),
                           probe);
  return cell.circuit;
}

TEST(AssemblyPlan, SparseMatchesDenseAssembly) {
  const Circuit ckt = sample_cell(cells::CellType::kNand2,
                                  cells::Implementation::k2D);
  const std::size_t n = ckt.system_size();
  Rng rng(17);
  linalg::Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(0, 1);

  DynamicState prev;
  evaluate_charges(ckt, x, prev);
  prev.iq.assign(prev.q.size(), 0.0);

  const AssemblyPlan plan(ckt);
  ASSERT_EQ(plan.size(), n);
  std::vector<double> values;
  linalg::Vector f_sparse, f_dense;
  linalg::DenseMatrix jac;

  for (const bool dynamic : {false, true}) {
    AssemblyContext ctx;
    if (dynamic) {
      ctx.integrator = Integrator::kBdf2;
      ctx.h = 1e-12;
      ctx.step_ratio = 0.8;
      ctx.prev = &prev;
      ctx.prev2 = &prev;
      ctx.time = 1e-12;
    }
    assemble(ckt, x, ctx, jac, f_dense, nullptr);
    assemble_sparse(ckt, plan, x, ctx, values, f_sparse, nullptr, nullptr);
    EXPECT_LT(max_abs_diff(f_sparse, f_dense), 1e-12);
    // Every CSR slot must match the dense entry; every dense entry off the
    // pattern must be zero.
    double jmax = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t p = plan.row_ptr()[r];
      for (std::size_t c = 0; c < n; ++c) {
        double v = 0.0;
        if (p < plan.row_ptr()[r + 1] && plan.col_idx()[p] == c) v = values[p++];
        jmax = std::max(jmax, std::fabs(v - jac(r, c)));
      }
    }
    EXPECT_LT(jmax, 1e-12) << "dynamic=" << dynamic;
  }
}

// ---------------------------------------------------------------------------
// Backend equivalence over the full cell library.

// Tight tolerances pin both backends to the same converged points so the
// 1e-9 cross-backend comparison measures the solver core, not Newton
// slack; bypass_vtol = 0 keeps the device cache to exact-repeat hits.
NewtonOptions strict_newton(SolverBackend backend) {
  NewtonOptions o;
  o.backend = backend;
  o.vtol = 1e-12;
  o.reltol = 1e-9;
  o.itol = 1e-15;
  o.residual_tol = 1e-9;
  o.bypass_vtol = 0.0;
  return o;
}

TEST(BackendEquivalence, DcopAllCellsAllImplementations) {
  for (const cells::CellType type : cells::all_cells()) {
    for (const cells::Implementation impl : cells::all_implementations()) {
      const Circuit ckt = sample_cell(type, impl);
      const DcResult dense =
          dc_operating_point(ckt, strict_newton(SolverBackend::kDense));
      const DcResult sparse =
          dc_operating_point(ckt, strict_newton(SolverBackend::kSparse));
      ASSERT_TRUE(dense.converged)
          << cells::cell_name(type) << "/" << cells::impl_name(impl);
      ASSERT_TRUE(sparse.converged)
          << cells::cell_name(type) << "/" << cells::impl_name(impl);
      EXPECT_LT(max_abs_diff(dense.x, sparse.x), 1e-9)
          << cells::cell_name(type) << "/" << cells::impl_name(impl);
    }
  }
}

TEST(BackendEquivalence, TransientEndpointsAllCellsAllImplementations) {
  for (const cells::CellType type : cells::all_cells()) {
    for (const cells::Implementation impl : cells::all_implementations()) {
      const Circuit ckt = sample_cell(type, impl);
      TransientOptions topt;
      topt.t_stop = 1e-10;  // covers the rising input edge
      topt.newton = strict_newton(SolverBackend::kDense);
      const TransientResult dense = transient(ckt, topt);
      topt.newton = strict_newton(SolverBackend::kSparse);
      const TransientResult sparse = transient(ckt, topt);
      ASSERT_TRUE(dense.ok)
          << cells::cell_name(type) << "/" << cells::impl_name(impl);
      ASSERT_TRUE(sparse.ok)
          << cells::cell_name(type) << "/" << cells::impl_name(impl);
      for (const auto& [node, wave] : dense.node_voltage) {
        const auto it = sparse.node_voltage.find(node);
        ASSERT_NE(it, sparse.node_voltage.end()) << node;
        ASSERT_FALSE(wave.empty());
        ASSERT_FALSE(it->second.empty());
        EXPECT_NEAR(wave.t_end(), it->second.t_end(), 1e-18);
        EXPECT_NEAR(wave.value(wave.size() - 1),
                    it->second.value(it->second.size() - 1), 1e-9)
            << cells::cell_name(type) << "/" << cells::impl_name(impl)
            << " node " << node;
      }
    }
  }
}

TEST(BackendEquivalence, DefaultOptionsBypassStaysAccurate) {
  // With stock NewtonOptions (bypass_vtol = 1e-9) the sparse core serves
  // some MOSFET evaluations from the cache; the answers must stay within
  // everyday SPICE accuracy of the dense path.
  const Circuit ckt =
      sample_cell(cells::CellType::kXor2, cells::Implementation::k2D);
  TransientOptions topt;
  topt.t_stop = 1e-10;
  topt.newton.backend = SolverBackend::kDense;
  const TransientResult dense = transient(ckt, topt);
  topt.newton.backend = SolverBackend::kSparse;

  runtime::Metrics::global().reset();
  const TransientResult sparse = transient(ckt, topt);
  ASSERT_TRUE(dense.ok);
  ASSERT_TRUE(sparse.ok);
  EXPECT_GT(runtime::Metrics::global().counter_total("spice.device.bypasses"),
            0.0);
  for (const auto& [node, wave] : dense.node_voltage) {
    const auto& sw = sparse.node_voltage.at(node);
    EXPECT_NEAR(wave.value(wave.size() - 1), sw.value(sw.size() - 1), 1e-6)
        << node;
  }
}

TEST(BackendEquivalence, SingularCircuitFailsOnBothBackends) {
  // Two ideal current sources in series leave the middle node with no DC
  // path: the Jacobian is structurally singular.  Both backends must
  // report clean non-convergence (the sparse core after walking its
  // full fallback ladder), not crash or diverge.
  Circuit ckt;
  const NodeId a = ckt.node("a"), b = ckt.node("b");
  ckt.add_isource("I1", kGround, a, SourceSpec::DC(1e-6));
  ckt.add_isource("I2", a, b, SourceSpec::DC(1e-6));
  ckt.add_resistor("R1", b, kGround, 1e3);
  for (const SolverBackend backend :
       {SolverBackend::kDense, SolverBackend::kSparse}) {
    NewtonOptions o = strict_newton(backend);
    o.presolve_lint = false;  // exercise the numeric failure path
    const DcResult r = dc_operating_point(ckt, o);
    EXPECT_FALSE(r.converged) << "backend=" << static_cast<int>(backend);
  }
}

// ---------------------------------------------------------------------------
// Workspace contract: no steady-state allocations, sane metric ordering.

TEST(SolverWorkspace, TransientRunIsAllocationFreeWithOrderedCounters) {
  const Circuit ckt =
      sample_cell(cells::CellType::kXor2, cells::Implementation::k2D);
  TransientOptions topt;
  topt.t_stop = 2e-10;
  topt.newton.backend = SolverBackend::kSparse;

  runtime::Metrics::global().reset();
  const TransientResult tr = transient(ckt, topt);
  ASSERT_TRUE(tr.ok);

  const runtime::Metrics& m = runtime::Metrics::global();
  const double symbolic = m.counter_total("spice.sparse.symbolic_analyses");
  const double full = m.counter_total("spice.sparse.full_factorizations");
  const double refactor = m.counter_total("spice.sparse.refactorizations");
  const double newton = m.counter_total("spice.newton.iterations");
  EXPECT_EQ(symbolic, 1.0);  // one workspace, one analysis for the run
  EXPECT_GE(full, 1.0);
  // The reuse ladder: symbolic << full factorizations << refactorizations
  // <= Newton iterations.
  EXPECT_LT(symbolic, full + 1.0);
  EXPECT_LT(full * 10.0, refactor);
  EXPECT_LE(refactor, newton);
  // All buffers are sized at construction; the inner loops never grow them.
  EXPECT_EQ(m.counter_total("spice.workspace.allocations"), 0.0);
}

TEST(SolverWorkspace, DeviceCounterAccountingIsConsistent) {
  // The per-analysis-kind device counters must partition the totals, and
  // in batch mode every fresh eval must have gone through a kernel lane.
  const Circuit ckt =
      sample_cell(cells::CellType::kNand2, cells::Implementation::k2D);
  TransientOptions topt;
  topt.t_stop = 2e-10;
  topt.newton.backend = SolverBackend::kSparse;

  runtime::Metrics::global().reset();
  ASSERT_TRUE(transient(ckt, topt).ok);
  const runtime::Metrics& m = runtime::Metrics::global();
  const double evals = m.counter_total("spice.device.evals");
  const double bypasses = m.counter_total("spice.device.bypasses");
  EXPECT_GT(evals, 0.0);
  EXPECT_GT(bypasses, 0.0);
  EXPECT_EQ(evals, m.counter_total("spice.device.evals.dc") +
                       m.counter_total("spice.device.evals.tran"));
  EXPECT_EQ(bypasses, m.counter_total("spice.device.bypasses.dc") +
                          m.counter_total("spice.device.bypasses.tran"));
  // Both analysis kinds actually ran (t=0 dcop + companion-model steps).
  EXPECT_GT(m.counter_total("spice.device.evals.dc"), 0.0);
  EXPECT_GT(m.counter_total("spice.device.evals.tran"), 0.0);
  // Default device_eval = kAuto batches on the sparse backend: every
  // fresh eval is a staged kernel lane, and the dispatched blocks cover
  // the lanes without exceeding one partial block per kernel pass.
  const double lanes = m.counter_total("spice.device.batch.lanes");
  const double blocks = m.counter_total("spice.device.batch.blocks");
  const double passes = m.counter_total("spice.device.batch.evals");
  EXPECT_EQ(lanes, evals);
  EXPECT_GE(blocks * 4.0, lanes);
  EXPECT_LT(blocks, lanes / 4.0 + passes + 1.0);

  // The scalar reference path keeps the same totals split but never
  // touches the batch counters.
  runtime::Metrics::global().reset();
  topt.newton.device_eval = DeviceEval::kScalar;
  ASSERT_TRUE(transient(ckt, topt).ok);
  EXPECT_EQ(m.counter_total("spice.device.batch.evals"), 0.0);
  EXPECT_EQ(m.counter_total("spice.device.batch.lanes"), 0.0);
  EXPECT_EQ(m.counter_total("spice.device.evals"),
            m.counter_total("spice.device.evals.dc") +
                m.counter_total("spice.device.evals.tran"));
}

TEST(SolverWorkspace, ReuseLadderKeysOnGminButNotSourceScale) {
  // The bitwise-reuse rung is keyed on the coefficient regime (gmin, h,
  // step_ratio, integrator) plus fresh device stamps.  gmin is part of
  // the assembled Jacobian (a diagonal stamp), so a gmin-stepping stage
  // change MUST invalidate the reuse — a stale hit would solve the new
  // system with the old stage's factorization.  source_scale, by
  // contrast, scales only the independent sources (residual side), so
  // source stepping legitimately rides one factorization end to end.
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd"), out = ckt.node("out");
  ckt.add_vsource("VDD", vdd, kGround, SourceSpec::DC(1.0));
  ckt.add_resistor("R1", vdd, out, 1e3);
  ckt.add_resistor("R2", out, kGround, 1e3);
  NewtonOptions o;
  o.backend = SolverBackend::kSparse;
  SolverWorkspace ws(ckt, o);
  const std::size_t n = ckt.system_size();
  linalg::Vector x(n, 0.0);
  linalg::Vector rhs(n, 1.0);
  AssemblyContext ctx;
  ctx.gmin = 1e-12;

  ws.assemble(x, ctx);
  ASSERT_TRUE(ws.factor_and_solve(rhs));
  EXPECT_EQ(ws.stats().full_factorizations, 1u);
  EXPECT_EQ(ws.stats().lu_reuses, 0u);

  // Same iterate, same coefficients: bit-identical values, reuse.
  ws.assemble(x, ctx);
  rhs.assign(n, 1.0);
  ASSERT_TRUE(ws.factor_and_solve(rhs));
  EXPECT_EQ(ws.stats().lu_reuses, 1u);
  EXPECT_EQ(ws.stats().full_factorizations + ws.stats().refactorizations, 1u);

  // gmin stage change: no reuse, the ladder re-factors the new values.
  ctx.gmin = 1e-3;
  ws.assemble(x, ctx);
  rhs.assign(n, 1.0);
  ASSERT_TRUE(ws.factor_and_solve(rhs));
  EXPECT_EQ(ws.stats().lu_reuses, 1u);
  EXPECT_EQ(ws.stats().full_factorizations + ws.stats().refactorizations, 2u);

  // source_scale change at fixed gmin: residual-only, reuse is correct.
  ctx.source_scale = 0.5;
  ws.assemble(x, ctx);
  rhs.assign(n, 1.0);
  ASSERT_TRUE(ws.factor_and_solve(rhs));
  EXPECT_EQ(ws.stats().lu_reuses, 2u);
  EXPECT_EQ(ws.stats().full_factorizations + ws.stats().refactorizations, 2u);
}

TEST(SolverWorkspace, SingularSystemWalksTheFullFallbackLadder) {
  // A current source between two otherwise-floating nodes contributes no
  // Jacobian entries at all: the sparse factorization fails, the dense
  // fallback factors the same (all-zero) matrix and fails too, and
  // factor_and_solve reports false instead of crashing or dividing by zero.
  Circuit ckt;
  const NodeId a = ckt.node("a"), b = ckt.node("b");
  ckt.add_isource("I1", a, b, SourceSpec::DC(1e-6));
  NewtonOptions o;
  o.backend = SolverBackend::kSparse;
  o.presolve_lint = false;
  SolverWorkspace ws(ckt, o);
  AssemblyContext ctx;
  linalg::Vector x(ckt.system_size(), 0.0);
  ws.assemble(x, ctx);
  linalg::Vector rhs(ckt.system_size(), 1.0);
  EXPECT_FALSE(ws.factor_and_solve(rhs));
  EXPECT_GE(ws.stats().dense_fallbacks, 1u);
}

}  // namespace
}  // namespace mivtx::spice
