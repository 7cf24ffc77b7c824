// Cross-corner lane packing (spice/corner.h): the lockstepped lane-packed
// transient must agree with per-lane scalar transients within the shared
// LTE tolerances, and every fallback path (single lane, scalar device
// eval, topology mismatch) must stay correct.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cells/netgen.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "core/variability.h"
#include "spice/corner.h"
#include "spice/transient.h"

namespace mivtx::spice {
namespace {

// Parasitic-annotated cell with pin 0 pulsed and the side inputs at their
// sensitizing levels (same stimulus as the sparse backend tests).
Circuit sample_cell(cells::CellType type, cells::Implementation impl) {
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

// Process-corner variant: every MOSFET's card perturbed through the same
// helper the Monte-Carlo engine uses (topology untouched).
Circuit corner_of(const Circuit& base, double dvth, double u0_scale) {
  Circuit out = base;
  for (Element& e : out.elements()) {
    if (e.kind != ElementKind::kMosfet) continue;
    e.model = core::perturb_card(e.model, dvth, u0_scale);
  }
  return out;
}

TEST(CornerTransient, LockstepMatchesScalarPerLane) {
  const Circuit base =
      sample_cell(cells::CellType::kNand2, cells::Implementation::kMiv2Channel);
  const std::vector<Circuit> corners = {
      corner_of(base, 0.0, 1.0), corner_of(base, +0.03, 0.95),
      corner_of(base, -0.03, 1.05), corner_of(base, +0.015, 1.10),
      corner_of(base, -0.02, 0.90)};  // 5 lanes: exercises a partial block
  std::vector<const Circuit*> ptrs;
  for (const Circuit& c : corners) ptrs.push_back(&c);

  TransientOptions topt;
  topt.t_stop = 2e-10;

  const CornerTransientResult group = corner_transient(ptrs, topt);
  ASSERT_TRUE(group.ok) << group.error;
  EXPECT_TRUE(group.lockstep);
  ASSERT_EQ(group.lanes.size(), corners.size());

  for (std::size_t k = 0; k < corners.size(); ++k) {
    const TransientResult scalar = transient(corners[k], topt);
    ASSERT_TRUE(scalar.ok) << "lane " << k;
    const TransientResult& lane = group.lanes[k];
    ASSERT_TRUE(lane.ok) << "lane " << k;
    for (const auto& [node, wave] : scalar.node_voltage) {
      const auto it = lane.node_voltage.find(node);
      ASSERT_NE(it, lane.node_voltage.end()) << node;
      EXPECT_NEAR(wave.t_end(), it->second.t_end(), 1e-18);
      // The engines take different adaptive step sequences, so compare
      // interpolated waveforms inside the shared LTE budget (reltol 1e-4
      // of a 1 V swing, plus interpolation slack on the edges).
      for (double t = 0.0; t <= topt.t_stop; t += topt.t_stop / 40.0) {
        EXPECT_NEAR(wave.sample(t), it->second.sample(t), 5e-3)
            << "lane " << k << " node " << node << " t=" << t;
      }
      // Settled endpoints agree much tighter than mid-edge samples.
      EXPECT_NEAR(wave.value(wave.size() - 1),
                  it->second.value(it->second.size() - 1), 1e-4)
          << "lane " << k << " node " << node;
    }
  }
}

TEST(CornerTransient, SingleLaneFallsBackToScalarPath) {
  const Circuit base =
      sample_cell(cells::CellType::kInv1, cells::Implementation::k2D);
  TransientOptions topt;
  topt.t_stop = 1e-10;
  const CornerTransientResult group = corner_transient({&base}, topt);
  ASSERT_TRUE(group.ok) << group.error;
  EXPECT_FALSE(group.lockstep);
  ASSERT_EQ(group.lanes.size(), 1u);
  EXPECT_TRUE(group.lanes[0].ok);
}

TEST(CornerTransient, ScalarDeviceEvalFallsBackAndStaysCorrect) {
  const Circuit base =
      sample_cell(cells::CellType::kInv1, cells::Implementation::k2D);
  const Circuit alt = corner_of(base, +0.02, 1.0);
  TransientOptions topt;
  topt.t_stop = 1e-10;
  topt.newton.device_eval = DeviceEval::kScalar;
  const CornerTransientResult group = corner_transient({&base, &alt}, topt);
  ASSERT_TRUE(group.ok) << group.error;
  EXPECT_FALSE(group.lockstep);  // scalar reference never lane-packs
  ASSERT_EQ(group.lanes.size(), 2u);
}

// Regression: per-lane pulse corners that differ only by accumulated
// round-off (a few ULP at millisecond timestamps, where one ULP already
// exceeds the old absolute 1e-18 dedup epsilon) must coalesce into one
// stepping event.  Before breakpoint_tol the near-duplicates survived the
// union, the landing step on the second alias came out below h_min, and
// the engine silently dropped out of lockstep onto the scalar path.
TEST(CornerTransient, UlpJitteredBreakpointsStayLockstep) {
  const Circuit base =
      sample_cell(cells::CellType::kInv1, cells::Implementation::kMiv2Channel);
  Circuit a = base;
  Circuit b = corner_of(base, +0.02, 0.98);
  PulseSpec p;
  p.v1 = 0.0;
  p.v2 = 1.0;
  p.delay = 4e-3;  // ULP(4 ms) ~ 8.7e-19 s
  p.rise = 1e-6;
  p.fall = 1e-6;
  p.width = 1e-4;
  a.element("VA").source = SourceSpec::Pulse(p);
  double jittered = p.delay;
  for (int k = 0; k < 4; ++k)
    jittered = std::nextafter(jittered, 1.0);  // ~3.5e-18 s of jitter
  ASSERT_GT(jittered - p.delay, 1e-18);  // distinct under an absolute epsilon
  p.delay = jittered;
  b.element("VA").source = SourceSpec::Pulse(p);

  TransientOptions topt;
  topt.t_stop = 4.2e-3;
  topt.h_min = 1e-15;  // any surviving alias forces a sub-h_min landing

  const CornerTransientResult group = corner_transient({&a, &b}, topt);
  ASSERT_TRUE(group.ok) << group.error;
  EXPECT_TRUE(group.lockstep)
      << "ULP-jittered breakpoint union broke lane packing";
  ASSERT_EQ(group.lanes.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(group.lanes[k].ok) << "lane " << k;
    // Both lanes saw the (coalesced) edge: the inverter output swings low
    // for the pulse width and recovers by t_stop.
    const waveform::Waveform& out = group.lanes[k].v("y_load");
    EXPECT_NEAR(out.sample(0.0), 1.0, 5e-2) << "lane " << k;
    EXPECT_NEAR(out.sample(4.05e-3), 0.0, 5e-2) << "lane " << k;
    EXPECT_NEAR(out.sample(topt.t_stop), 1.0, 5e-2) << "lane " << k;
  }
}

TEST(Transient, CoalesceBreakpointsMergesUlpClusters) {
  // Absolute floor near t=0: distinct sub-1e-18 times collapse...
  std::vector<double> bp{0.0, 5e-19, 1e-12, 4e-3};
  // ...and at 4 ms a 4-ULP alias collapses too, keeping the largest.
  double alias = 4e-3;
  for (int k = 0; k < 4; ++k) alias = std::nextafter(alias, 1.0);
  bp.push_back(alias);
  coalesce_breakpoints(bp);
  ASSERT_EQ(bp.size(), 3u);
  EXPECT_DOUBLE_EQ(bp[0], 5e-19);
  EXPECT_DOUBLE_EQ(bp[1], 1e-12);
  EXPECT_DOUBLE_EQ(bp[2], alias);
  // Far-apart points never merge: tol stays a vanishing fraction of t.
  EXPECT_LT(breakpoint_tol(4e-3), 1e-17);
  EXPECT_GE(breakpoint_tol(0.0), 1e-18);
}

TEST(CornerTransient, TopologyMismatchFallsBackPerLane) {
  const Circuit a =
      sample_cell(cells::CellType::kInv1, cells::Implementation::k2D);
  const Circuit b =
      sample_cell(cells::CellType::kNand2, cells::Implementation::k2D);
  TransientOptions topt;
  topt.t_stop = 1e-10;
  const CornerTransientResult group = corner_transient({&a, &b}, topt);
  ASSERT_TRUE(group.ok) << group.error;
  EXPECT_FALSE(group.lockstep);
  ASSERT_EQ(group.lanes.size(), 2u);
  EXPECT_TRUE(group.lanes[0].ok);
  EXPECT_TRUE(group.lanes[1].ok);
}

}  // namespace
}  // namespace mivtx::spice
