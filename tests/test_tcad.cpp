// TCAD substrate: mesh geometry, device structure, and device-level physics
// of the drift-diffusion solver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "linalg/vector_ops.h"
#include "runtime/metrics.h"
#include "tcad/characterize.h"
#include "tcad/device.h"
#include "tcad/edge_table.h"
#include "tcad/mesh.h"
#include "tcad/solver.h"

namespace mivtx::tcad {
namespace {

// A coarse spec keeps the physics tests fast (~100 ms per solve).
DeviceSpec coarse(Variant v = Variant::kTraditional,
                  Polarity p = Polarity::kNmos) {
  DeviceSpec spec = DeviceSpec::for_variant(v, p);
  spec.cells_src = 4;
  spec.cells_spacer = 2;
  spec.cells_gate = 6;
  spec.cells_si_y = 6;
  spec.cells_ox_y = 2;
  return spec;
}

TEST(Mesh, SubdivideProducesExactSegments) {
  const auto lines = Mesh::subdivide(0.0, {{10e-9, 2}, {20e-9, 4}});
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_DOUBLE_EQ(lines[0], 0.0);
  EXPECT_DOUBLE_EQ(lines[2], 10e-9);
  EXPECT_DOUBLE_EQ(lines.back(), 30e-9);
  EXPECT_THROW(Mesh::subdivide(0.0, {{0.0, 1}}), mivtx::Error);
}

TEST(Mesh, NodeIndexingRoundTrip) {
  const Mesh m(Mesh::subdivide(0, {{4e-9, 4}}), Mesh::subdivide(0, {{3e-9, 3}}));
  EXPECT_EQ(m.nx(), 5u);
  EXPECT_EQ(m.ny(), 4u);
  for (std::size_t i = 0; i < m.nx(); ++i) {
    for (std::size_t j = 0; j < m.ny(); ++j) {
      const std::size_t n = m.node(i, j);
      EXPECT_EQ(m.node_i(n), i);
      EXPECT_EQ(m.node_j(n), j);
    }
  }
}

TEST(Mesh, ControlAreasPartitionDomain) {
  const Mesh m(Mesh::subdivide(0, {{10e-9, 5}}), Mesh::subdivide(0, {{6e-9, 3}}));
  double total = 0.0;
  for (std::size_t i = 0; i < m.nx(); ++i)
    for (std::size_t j = 0; j < m.ny(); ++j) total += m.control_area(i, j);
  EXPECT_NEAR(total, 10e-9 * 6e-9, 1e-25);
}

TEST(Mesh, SiliconAreaRespectsMaterials) {
  Mesh m(Mesh::subdivide(0, {{2e-9, 2}}), Mesh::subdivide(0, {{2e-9, 2}}));
  m.set_cell_material(0, 0, Material::kOxide);
  m.set_cell_material(1, 0, Material::kOxide);
  // Bottom row of cells is oxide; silicon area halves.
  double si = 0.0;
  for (std::size_t i = 0; i < m.nx(); ++i)
    for (std::size_t j = 0; j < m.ny(); ++j)
      si += m.silicon_control_area(i, j);
  EXPECT_NEAR(si, 0.5 * 2e-9 * 2e-9, 1e-27);
  EXPECT_TRUE(m.node_touches_silicon(0, 1));
  EXPECT_FALSE(m.node_all_silicon(0, 1));
  EXPECT_FALSE(m.node_touches_silicon(0, 0));
}

TEST(Device, StructureContactsAndDoping) {
  const DeviceStructure s = build_structure(coarse());
  const Mesh& m = s.mesh;
  int n_src = 0, n_drn = 0, n_gate = 0, n_miv = 0;
  for (std::size_t nd = 0; nd < m.num_nodes(); ++nd) {
    switch (s.contact[nd]) {
      case ContactKind::kSource: ++n_src; break;
      case ContactKind::kDrain: ++n_drn; break;
      case ContactKind::kGate: ++n_gate; break;
      case ContactKind::kMiv: ++n_miv; break;
      default: break;
    }
  }
  EXPECT_GT(n_src, 0);
  EXPECT_EQ(n_src, n_drn);
  EXPECT_GT(n_gate, 0);
  EXPECT_EQ(n_miv, 0);  // traditional: no MIV plate
  // Doping: n+ at both ends, p-ish in the channel.
  const std::size_t j_mid = (s.j_si_lo + s.j_si_hi) / 2;
  EXPECT_GT(s.doping[m.node(0, j_mid)], 1e24);
  EXPECT_LT(s.doping[m.node(m.nx() / 2, j_mid)], 0.0);
}

TEST(Device, MivVariantsGetBottomPlate) {
  for (Variant v : {Variant::kMiv1Channel, Variant::kMiv2Channel,
                    Variant::kMiv4Channel}) {
    const DeviceStructure s = build_structure(coarse(v));
    int n_miv = 0;
    for (const ContactKind c : s.contact) n_miv += c == ContactKind::kMiv;
    EXPECT_GT(n_miv, 0) << variant_name(v);
  }
}

TEST(Device, VariantMetadata) {
  EXPECT_EQ(variant_channels(Variant::kTraditional), 1);
  EXPECT_EQ(variant_channels(Variant::kMiv2Channel), 2);
  EXPECT_EQ(variant_channels(Variant::kMiv4Channel), 4);
  EXPECT_STREQ(variant_name(Variant::kMiv1Channel), "1-channel");
}

TEST(EdgeTable, PoissonCoefficientsPositive) {
  const DeviceStructure s = build_structure(coarse());
  const EdgeTable t = build_edge_table(s);
  EXPECT_GT(t.edges.size(), 0u);
  for (const Edge& e : t.edges) {
    EXPECT_GT(e.c_poisson, 0.0);
    EXPECT_GE(e.si_face, 0.0);
    EXPECT_GT(e.d, 0.0);
  }
  double si_total = 0.0;
  for (double v : t.si_volume) si_total += v;
  const DeviceSpec& spec = s.spec;
  const double expect_si =
      (2 * spec.l_src + 2 * spec.l_spacer + spec.l_gate) * spec.tsi;
  EXPECT_NEAR(si_total, expect_si, 1e-6 * expect_si);
}

TEST(Solver, EquilibriumChargeNeutralInContacts) {
  DeviceSimulator sim(coarse());
  const Solution& sol = sim.solve(BiasPoint{0.0, 0.0});
  EXPECT_TRUE(sol.converged);
  const Mesh& m = sim.structure().mesh;
  const std::size_t j_mid = (sim.structure().j_si_lo + sim.structure().j_si_hi) / 2;
  const std::size_t nd = m.node(0, j_mid);
  // At the n+ source contact: n ~ Nd, p ~ ni^2/Nd.
  EXPECT_NEAR(sol.n[nd] / 1e25, 1.0, 0.01);
  EXPECT_LT(sol.p[nd], 1e10);
  // Zero bias, zero current.
  EXPECT_LT(std::fabs(sim.drain_current(sol)), 1e-12);
}

TEST(Solver, TransistorTurnsOn) {
  DeviceSimulator sim(coarse());
  const double i_off = std::fabs(sim.drain_current(sim.solve({0.0, 1.0})));
  const double i_on = std::fabs(sim.drain_current(sim.solve({1.0, 1.0})));
  EXPECT_GT(i_on, 1e-6);
  EXPECT_LT(i_off, 1e-8);
  EXPECT_GT(i_on / i_off, 1e3);
}

TEST(Solver, OutputCurveSaturates) {
  DeviceSimulator sim(coarse());
  Characterizer ch(sim);
  const Curve c = ch.id_vd(1.0, {0.1, 0.4, 0.7, 1.0});
  // Monotone non-decreasing and strongly sublinear beyond saturation.
  for (std::size_t k = 1; k < c.size(); ++k) EXPECT_GE(c[k].y, c[k - 1].y);
  const double g_early = (c[1].y - c[0].y) / 0.3;
  const double g_late = (c[3].y - c[2].y) / 0.3;
  EXPECT_LT(g_late, 0.25 * g_early);
}

TEST(Solver, PmosMirrorsOperation) {
  DeviceSimulator sim(coarse(Variant::kTraditional, Polarity::kPmos));
  Characterizer ch(sim);
  const double ion = ch.ion(1.0);
  const double ioff = ch.ioff(1.0);
  EXPECT_GT(ion, 1e-6);
  EXPECT_GT(ion / std::max(ioff, 1e-30), 1e3);
}

TEST(Solver, GateChargeIncreasesWithVg) {
  DeviceSimulator sim(coarse());
  const double q0 = sim.gate_charge(sim.solve({0.2, 0.0}));
  const double q1 = sim.gate_charge(sim.solve({1.0, 0.0}));
  EXPECT_GT(q1, q0);
}

TEST(Solver, MivCouplingRaisesDrive) {
  DeviceSimulator trad(coarse(Variant::kTraditional));
  DeviceSimulator miv(coarse(Variant::kMiv1Channel));
  Characterizer ch_t(trad), ch_m(miv);
  EXPECT_GT(ch_m.ion(1.0), ch_t.ion(1.0));
}

TEST(Solver, MobilityFactorScalesCurrent) {
  DeviceSpec weak = coarse();
  weak.mobility_factor = 0.5;
  DeviceSimulator strong(coarse()), half(weak);
  Characterizer cs(strong), cw(half);
  const double ratio = cw.ion(1.0) / cs.ion(1.0);
  EXPECT_LT(ratio, 0.95);
  EXPECT_GT(ratio, 0.4);
}

TEST(Characterizer, VthInPlausibleBand) {
  DeviceSimulator sim(coarse());
  Characterizer ch(sim);
  const double vth = ch.vth_cc(1.0);
  EXPECT_GT(vth, 0.15);
  EXPECT_LT(vth, 0.6);
}

TEST(Characterizer, CurvesShareGrid) {
  DeviceSimulator sim(coarse());
  Characterizer ch(sim);
  const auto xs = linalg::linspace(0.0, 1.0, 5);
  const Curve c = ch.id_vg(1.0, xs);
  ASSERT_EQ(c.size(), xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k) EXPECT_DOUBLE_EQ(c[k].x, xs[k]);
}

TEST(Characterizer, CggPositiveAndRises) {
  DeviceSimulator sim(coarse());
  Characterizer ch(sim);
  const Curve cv = ch.cgg_vg(0.0, {0.1, 0.9});
  EXPECT_GT(cv[0].y, 0.0);
  EXPECT_GT(cv[1].y, cv[0].y);
}

TEST(Characterizer, PublishesSolverWorkOncePerSweep) {
  runtime::Metrics& m = runtime::Metrics::global();
  m.reset();
  DeviceSimulator sim(coarse());
  Characterizer ch(sim);
  // Continuation steps are <= 100 mV: 4 from (0, 0) to (0.4, 0.05), then
  // 2 more to (0.4, 0.25).
  ch.id_vd(0.4, {0.05, 0.25});
  EXPECT_EQ(m.counter_total("tcad.bias_points"), 2.0);
  EXPECT_EQ(m.counter_total("tcad.continuation_steps"), 6.0);
  // Pinned for this coarse mesh: any change in the counts means the
  // solver's work changed, not just its speed.
  EXPECT_EQ(m.counter_total("tcad.gummel_iterations"), 45.0);
  EXPECT_EQ(m.counter_total("tcad.banded_factorizations"), 259.0);
  // Everything was published; the simulator holds no unpublished work.
  const SolverWork rest = sim.take_work();
  EXPECT_EQ(rest.bias_points + rest.continuation_steps +
                rest.gummel_iterations + rest.banded_factorizations,
            0u);
}

TEST(Device, BadSpecsRejected) {
  DeviceSpec s = coarse();
  s.miv_coverage = 1.5;
  EXPECT_THROW(build_structure(s), mivtx::Error);
  s = coarse();
  s.tsi = 0.0;
  EXPECT_THROW(build_structure(s), mivtx::Error);
}

}  // namespace
}  // namespace mivtx::tcad
