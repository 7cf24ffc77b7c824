#include "verify/properties.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "analyze/libsta.h"
#include "cells/netgen.h"
#include "charlib/library.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "spice/ac.h"
#include "spice/transient.h"
#include "verify/compare.h"
#include "verify/differential.h"
#include "waveform/measure.h"

namespace mivtx::verify {
namespace {

using spice::Circuit;
using spice::NodeId;
using spice::SourceSpec;
using waveform::Waveform;

// Accumulates one property's verdict; fail() keeps only the first detail
// so the report points at a single replayable instance.
struct PropertyCheck {
  PropertyResult result;

  explicit PropertyCheck(std::string name, double bound) {
    result.name = std::move(name);
    result.bound = bound;
  }
  void observe(double err) { result.worst = std::max(result.worst, err); }
  void expect(bool ok, const std::string& detail) {
    if (!ok && result.pass) {
      result.pass = false;
      result.detail = detail;
    }
  }
  // err must stay within the declared bound.
  void expect_within(double err, const std::string& what) {
    observe(err);
    expect(err <= result.bound,
           format("%s: error %.3e exceeds bound %.3e", what.c_str(), err,
                  result.bound));
  }
  void done(std::size_t cases) { result.cases = cases; }
};

spice::NewtonOptions tight_newton() {
  spice::NewtonOptions o;
  o.vtol = 1e-12;
  o.reltol = 1e-9;
  o.itol = 1e-15;
  o.residual_tol = 1e-9;
  o.bypass_vtol = 0.0;
  return o;
}

// --------------------------------------------------------------- circuits

// Random linear resistive network: a resistor spanning tree guarantees a DC
// path to ground from every node, extra chords add mesh structure, then one
// voltage source and two current sources provide independent stimulus
// groups for the superposition / scaling checks.
struct LinearNetwork {
  Circuit circuit;
  double v_value = 0.0;
  double i1_value = 0.0;
  double i2_value = 0.0;
};

LinearNetwork random_linear_network(Rng& rng) {
  LinearNetwork net;
  Circuit& ckt = net.circuit;
  const std::size_t n = 3 + rng.uniform_index(6);  // 3..8 signal nodes
  std::vector<NodeId> nodes{spice::kGround};
  for (std::size_t i = 1; i <= n; ++i)
    nodes.push_back(ckt.node(format("n%zu", i)));
  std::size_t r = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const NodeId parent = nodes[rng.uniform_index(i)];  // tree: earlier node
    ckt.add_resistor(format("R%zu", r++), nodes[i], parent,
                     rng.uniform(100.0, 10e3));
  }
  const std::size_t chords = rng.uniform_index(n);
  for (std::size_t c = 0; c < chords; ++c) {
    const NodeId a = nodes[rng.uniform_index(n + 1)];
    const NodeId b = nodes[rng.uniform_index(n + 1)];
    if (a == b) continue;
    ckt.add_resistor(format("R%zu", r++), a, b, rng.uniform(100.0, 10e3));
  }
  net.v_value = rng.uniform(-2.0, 2.0);
  net.i1_value = rng.uniform(-1e-3, 1e-3);
  net.i2_value = rng.uniform(-1e-3, 1e-3);
  ckt.add_vsource("V1", nodes[1 + rng.uniform_index(n)], spice::kGround,
                  SourceSpec::DC(net.v_value));
  auto distinct_pair = [&](NodeId& a, NodeId& b) {
    a = nodes[rng.uniform_index(n + 1)];
    do {
      b = nodes[1 + rng.uniform_index(n)];
    } while (b == a);
  };
  NodeId p = spice::kGround, m = spice::kGround;
  distinct_pair(p, m);
  ckt.add_isource("I1", p, m, SourceSpec::DC(net.i1_value));
  distinct_pair(p, m);
  ckt.add_isource("I2", p, m, SourceSpec::DC(net.i2_value));
  return net;
}

linalg::Vector solve_dcop(const Circuit& ckt, PropertyCheck& check,
                          const char* what) {
  const spice::DcResult r = spice::dc_operating_point(ckt, tight_newton());
  check.expect(r.converged, format("%s: dcop did not converge", what));
  return r.x;
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

// ----------------------------------------------------- dcop superposition

PropertyResult check_dcop_superposition(const PropertyOptions& opts) {
  PropertyCheck check("dcop-superposition", 1e-8);
  Rng rng(opts.seed ^ 0x50e12u);
  for (std::size_t k = 0; k < opts.cases; ++k) {
    LinearNetwork net = random_linear_network(rng);
    const linalg::Vector full = solve_dcop(net.circuit, check, "full");

    Circuit v_only = net.circuit;
    v_only.element("I1").source = SourceSpec::DC(0.0);
    v_only.element("I2").source = SourceSpec::DC(0.0);
    const linalg::Vector xv = solve_dcop(v_only, check, "v-only");

    Circuit i_only = net.circuit;
    i_only.element("V1").source = SourceSpec::DC(0.0);
    const linalg::Vector xi = solve_dcop(i_only, check, "i-only");

    linalg::Vector sum = xv;
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += xi[i];
    check.expect_within(max_abs_diff(full, sum), format("case %zu", k));
  }
  check.done(opts.cases);
  return check.result;
}

PropertyResult check_dcop_scaling(const PropertyOptions& opts) {
  PropertyCheck check("dcop-scaling", 1e-8);
  Rng rng(opts.seed ^ 0xa11ce5u);
  for (std::size_t k = 0; k < opts.cases; ++k) {
    LinearNetwork net = random_linear_network(rng);
    const double alpha = rng.uniform(0.25, 4.0);
    const linalg::Vector base = solve_dcop(net.circuit, check, "base");

    Circuit scaled = net.circuit;
    scaled.element("V1").source = SourceSpec::DC(alpha * net.v_value);
    scaled.element("I1").source = SourceSpec::DC(alpha * net.i1_value);
    scaled.element("I2").source = SourceSpec::DC(alpha * net.i2_value);
    const linalg::Vector xs = solve_dcop(scaled, check, "scaled");

    linalg::Vector expected = base;
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] *= alpha;
    check.expect_within(max_abs_diff(xs, expected), format("case %zu", k));
  }
  check.done(opts.cases);
  return check.result;
}

// ------------------------------------------------------- linear transients

// RC ladder driven by a pulse: the workhorse linear transient testbed.
Circuit rc_ladder(std::size_t stages, double r_ohm, double c_farad,
                  const SourceSpec& stimulus) {
  Circuit ckt;
  NodeId prev = ckt.node("in");
  ckt.add_vsource("V1", prev, spice::kGround, stimulus);
  for (std::size_t s = 0; s < stages; ++s) {
    const NodeId next = ckt.node(format("s%zu", s + 1));
    ckt.add_resistor(format("R%zu", s + 1), prev, next, r_ohm);
    ckt.add_capacitor(format("C%zu", s + 1), next, spice::kGround, c_farad);
    prev = next;
  }
  return ckt;
}

spice::TransientOptions tight_transient(double t_stop) {
  spice::TransientOptions topt;
  topt.t_stop = t_stop;
  topt.reltol = 1e-6;
  topt.abstol_v = 1e-9;
  topt.newton = tight_newton();
  return topt;
}

spice::PulseSpec test_pulse(double delay) {
  spice::PulseSpec p;
  p.v1 = 0.0;
  p.v2 = 1.0;
  p.delay = delay;
  p.rise = 50e-12;
  p.fall = 50e-12;
  p.width = 400e-12;
  return p;
}

PropertyResult check_tran_scaling(const PropertyOptions& opts) {
  // Both runs approximate the exact solution to the local-error budget, so
  // the residual mismatch is bounded by the step control, not FP noise.
  PropertyCheck check("tran-scaling", 2e-5);
  Rng rng(opts.seed ^ 0x7ca1eu);
  const std::size_t cases = std::max<std::size_t>(3, opts.cases / 3);
  for (std::size_t k = 0; k < cases; ++k) {
    const double alpha = rng.uniform(0.5, 3.0);
    const std::size_t stages = 1 + rng.uniform_index(3);
    spice::PulseSpec p = test_pulse(30e-12);
    Circuit base = rc_ladder(stages, 1e3, 100e-15, SourceSpec::Pulse(p));
    spice::PulseSpec ps = p;
    ps.v1 *= alpha;
    ps.v2 *= alpha;
    Circuit scaled = rc_ladder(stages, 1e3, 100e-15, SourceSpec::Pulse(ps));

    const double t_stop = 600e-12;
    const spice::TransientResult a = transient(base, tight_transient(t_stop));
    const spice::TransientResult b = transient(scaled, tight_transient(t_stop));
    check.expect(a.ok && b.ok, format("case %zu: transient failed", k));
    if (!a.ok || !b.ok) continue;
    const Waveform& wa = a.v(format("s%zu", stages));
    const Waveform& wb = b.v(format("s%zu", stages));
    double err = 0.0;
    for (std::size_t i = 0; i < wa.size(); ++i)
      err = std::max(err, std::fabs(wb.sample(wa.time(i)) -
                                    alpha * wa.value(i)) / alpha);
    check.expect_within(err, format("case %zu (alpha %.2f)", k, alpha));
  }
  check.done(cases);
  return check.result;
}

PropertyResult check_tran_time_shift(const PropertyOptions& opts) {
  PropertyCheck check("tran-time-shift", 2e-5);
  Rng rng(opts.seed ^ 0x51f7edu);
  const std::size_t cases = std::max<std::size_t>(3, opts.cases / 3);
  for (std::size_t k = 0; k < cases; ++k) {
    const double shift = rng.uniform(20e-12, 120e-12);
    const std::size_t stages = 1 + rng.uniform_index(3);
    Circuit base =
        rc_ladder(stages, 1e3, 100e-15, SourceSpec::Pulse(test_pulse(40e-12)));
    Circuit shifted = rc_ladder(stages, 1e3, 100e-15,
                                SourceSpec::Pulse(test_pulse(40e-12 + shift)));

    const double t_stop = 600e-12;
    const spice::TransientResult a = transient(base, tight_transient(t_stop));
    const spice::TransientResult b =
        transient(shifted, tight_transient(t_stop + shift));
    check.expect(a.ok && b.ok, format("case %zu: transient failed", k));
    if (!a.ok || !b.ok) continue;
    const Waveform& wa = a.v(format("s%zu", stages));
    const Waveform& wb = b.v(format("s%zu", stages));
    double err = 0.0;
    for (std::size_t i = 0; i < wa.size(); ++i)
      err = std::max(err,
                     std::fabs(wb.sample(wa.time(i) + shift) - wa.value(i)));
    check.expect_within(err, format("case %zu (shift %s)", k,
                                    eng_format(shift, "s").c_str()));
  }
  check.done(cases);
  return check.result;
}

// ------------------------------------------------------ analytic RC / RL

// Response of a first-order lag (time constant tau) to a ramp 0 -> v_final
// over [t0, t0 + tr], then hold.  Closed form of dy/dt = (u(t) - y)/tau.
double first_order_ramp_response(double t, double t0, double tr, double v_final,
                                 double tau) {
  if (t <= t0) return 0.0;
  const double ramp_end = std::min(t - t0, tr);
  // During the ramp, u(t') = v_final * t'/tr:
  double y = (v_final / tr) * (ramp_end - tau * (1.0 - std::exp(-ramp_end / tau)));
  if (t <= t0 + tr) return y;
  // Hold phase: exponential approach from the ramp-end value.
  return v_final + (y - v_final) * std::exp(-(t - t0 - tr) / tau);
}

PropertyResult check_rc_rl_closed_form(const PropertyOptions&) {
  // Swept step-control settings: the observed error must respect each
  // setting's budget (scaled bound), holding the integrator's accuracy
  // claim to the analytic answer rather than to itself.
  PropertyCheck check("rc-rl-closed-form", 1.0);  // bound applied per-case
  const double reltols[] = {1e-3, 1e-4, 1e-5};
  const double t0 = 50e-12, tr = 100e-12, v_final = 1.0;
  std::size_t cases = 0;
  std::vector<double> rc_errors;
  for (const double reltol : reltols) {
    // RC: V -> R 1k -> node a -> C 200f, tau = 200 ps.
    Circuit rc;
    const NodeId in = rc.node("in"), a = rc.node("a");
    rc.add_vsource("V1", in, spice::kGround,
                   SourceSpec::Pwl({{0.0, 0.0},
                                    {t0, 0.0},
                                    {t0 + tr, v_final},
                                    {2e-9, v_final}}));
    rc.add_resistor("R1", in, a, 1e3);
    rc.add_capacitor("C1", a, spice::kGround, 200e-15);
    const double tau = 1e3 * 200e-15;

    spice::TransientOptions topt;
    topt.t_stop = 1.5e-9;
    topt.reltol = reltol;
    topt.abstol_v = 1e-9;
    topt.newton = tight_newton();
    const spice::TransientResult tr_rc = transient(rc, topt);
    check.expect(tr_rc.ok, format("rc reltol %.0e: transient failed", reltol));
    if (tr_rc.ok) {
      const Waveform& w = tr_rc.v("a");
      double err = 0.0;
      for (std::size_t i = 0; i < w.size(); ++i)
        err = std::max(err, std::fabs(w.value(i) -
                                      first_order_ramp_response(
                                          w.time(i), t0, tr, v_final, tau)));
      check.observe(err);
      rc_errors.push_back(err);
      // Budget: the LTE controller holds per-step error near reltol * swing;
      // global accumulation stays within a small multiple.
      check.expect(err <= 25.0 * reltol * v_final,
                   format("rc reltol %.0e: error %.3e exceeds %.3e", reltol,
                          err, 25.0 * reltol * v_final));
      ++cases;
    }

    // RL: V -> R 500 -> node a -> L 100n to ground.  The node voltage is
    // v_in - i R with i the first-order lag of v_in / R at tau = L / R, so
    // the same closed form applies to the current.
    Circuit rl;
    const NodeId in2 = rl.node("in"), a2 = rl.node("a");
    rl.add_vsource("V1", in2, spice::kGround,
                   SourceSpec::Pwl({{0.0, 0.0},
                                    {t0, 0.0},
                                    {t0 + tr, v_final},
                                    {2e-9, v_final}}));
    rl.add_resistor("R1", in2, a2, 500.0);
    rl.add_inductor("L1", a2, spice::kGround, 100e-9);
    const double tau_rl = 100e-9 / 500.0;
    const spice::TransientResult tr_rl = transient(rl, topt);
    check.expect(tr_rl.ok, format("rl reltol %.0e: transient failed", reltol));
    if (tr_rl.ok) {
      const Waveform& w = tr_rl.v("a");
      double err = 0.0;
      for (std::size_t i = 0; i < w.size(); ++i) {
        // v_a = v_in - R * i, i = (v_final-lag of v_in/R): closed form for
        // v_a is v_in(t) - first_order_ramp_response on the ramp of v_in.
        const double v_in =
            (w.time(i) <= t0)
                ? 0.0
                : (w.time(i) <= t0 + tr ? v_final * (w.time(i) - t0) / tr
                                        : v_final);
        const double expected =
            v_in - first_order_ramp_response(w.time(i), t0, tr, v_final, tau_rl);
        err = std::max(err, std::fabs(w.value(i) - expected));
      }
      check.observe(err);
      check.expect(err <= 25.0 * reltol * v_final,
                   format("rl reltol %.0e: error %.3e exceeds %.3e", reltol,
                          err, 25.0 * reltol * v_final));
      ++cases;
    }
  }
  // Tightening the tolerance by 100x must actually buy accuracy.
  if (rc_errors.size() == 3)
    check.expect(rc_errors[2] < rc_errors[0],
                 format("rc error did not improve: %.3e @1e-3 vs %.3e @1e-5",
                        rc_errors[0], rc_errors[2]));
  check.result.bound = 25.0 * 1e-3;  // loosest budget, for the report
  check.done(cases);
  return check.result;
}

// --------------------------------------------------- dc sweep consistency

PropertyResult check_dc_sweep_vs_dcop(const PropertyOptions&) {
  PropertyCheck check("dc-sweep-vs-dcop", 1e-8);
  // A real nonlinear circuit: the 2D inverter under its paper parasitics.
  DiffCase inv = make_cell_case(cells::CellType::kInv1,
                                cells::Implementation::k2D,
                                core::reference_model_library());
  inv.circuit.element("VA").source = SourceSpec::DC(0.0);

  std::vector<double> values;
  for (double v = 0.0; v <= 1.0 + 1e-12; v += 0.05) values.push_back(v);
  const spice::DcSweepResult sweep =
      spice::dc_sweep(inv.circuit, "VA", values, tight_newton());
  check.expect(sweep.converged, "dc_sweep did not converge");
  if (sweep.converged) {
    for (std::size_t k = 0; k < values.size(); ++k) {
      Circuit point = inv.circuit;
      point.element("VA").source = SourceSpec::DC(values[k]);
      const spice::DcResult r = spice::dc_operating_point(point, tight_newton());
      check.expect(r.converged, format("dcop at VA=%.2f failed", values[k]));
      if (!r.converged) continue;
      check.expect_within(max_abs_diff(sweep.solutions[k], r.x),
                          format("VA = %.2f", values[k]));
    }
  }
  check.done(values.size());
  return check.result;
}

// ------------------------------------------------------- ac vs transient

PropertyResult check_ac_vs_transient(const PropertyOptions&) {
  PropertyCheck check("ac-vs-transient", 5e-3);
  // RC low-pass, fc = 1/(2 pi RC) ~ 1.59 MHz; probe below and above.
  const double r_ohm = 1e3, c_farad = 100e-12;
  const double freqs[] = {0.5e6, 3e6};
  std::size_t cases = 0;
  for (const double f : freqs) {
    const double amp = 0.5;
    Circuit ckt;
    const NodeId in = ckt.node("in"), a = ckt.node("a");
    ckt.add_vsource("V1", in, spice::kGround, SourceSpec::Sin(0.0, amp, f));
    ckt.add_resistor("R1", in, a, r_ohm);
    ckt.add_capacitor("C1", a, spice::kGround, c_farad);

    const spice::AcResult ac = spice::ac_analysis(ckt, "V1", {f}, tight_newton());
    check.expect(ac.ok, format("ac at %.2e Hz failed", f));
    if (!ac.ok) continue;

    const double period = 1.0 / f;
    spice::TransientOptions topt;
    topt.t_stop = 10.0 * period;  // >> tau = 100 ns: homogeneous term dies
    topt.h_max = period / 200.0;
    topt.reltol = 1e-6;
    topt.abstol_v = 1e-9;
    topt.newton = tight_newton();
    const spice::TransientResult tr = transient(ckt, topt);
    check.expect(tr.ok, format("transient at %.2e Hz failed", f));
    if (!tr.ok) continue;

    // Fourier projection of the last two full periods onto sin/cos.
    const Waveform& w = tr.v("a");
    const double t1 = topt.t_stop, t0 = t1 - 2.0 * period;
    const std::size_t samples = 4000;
    double s_sum = 0.0, c_sum = 0.0;
    const double dt = (t1 - t0) / static_cast<double>(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      const double t = t0 + (static_cast<double>(i) + 0.5) * dt;
      const double v = w.sample(t);
      s_sum += v * std::sin(2.0 * M_PI * f * t) * dt;
      c_sum += v * std::cos(2.0 * M_PI * f * t) * dt;
    }
    const double window = t1 - t0;
    const double a_sin = 2.0 * s_sum / window, a_cos = 2.0 * c_sum / window;
    const double measured_mag = std::hypot(a_sin, a_cos) / amp;
    const double measured_ph = std::atan2(a_cos, a_sin);

    const double ac_mag = ac.magnitude("a", 0);
    const double ac_ph = ac.phase("a", 0);
    check.expect_within(std::fabs(measured_mag - ac_mag) / ac_mag,
                        format("magnitude at %.2e Hz", f));
    double dph = measured_ph - ac_ph;
    while (dph > M_PI) dph -= 2.0 * M_PI;
    while (dph < -M_PI) dph += 2.0 * M_PI;
    check.expect_within(std::fabs(dph), format("phase at %.2e Hz", f));
    ++cases;
  }
  check.done(cases);
  return check.result;
}

// ------------------------------------------------- crossings brute oracle

// Independent re-derivation of the documented find_crossings semantics by
// run-length scanning: collapse at-level runs, then judge each transition
// by the strict sides before and after it.  O(n), no interpolation search,
// no shared code with waveform/measure.cpp.
std::vector<waveform::Crossing> oracle_crossings(const Waveform& w,
                                                 double level) {
  std::vector<waveform::Crossing> out;
  const std::size_t n = w.size();
  auto side = [&](std::size_t i) {
    if (w.value(i) > level) return +1;
    if (w.value(i) < level) return -1;
    return 0;
  };
  int last_side = 0;            // strict side of the last non-level sample
  std::size_t last_idx = 0;     // its index
  std::size_t i = 0;
  while (i < n) {
    if (side(i) != 0) {
      if (last_side != 0 && side(i) != last_side && i == last_idx + 1) {
        // Strict straddle: interpolated instant inside the segment.
        const double t0 = w.time(i - 1), t1 = w.time(i);
        const double v0 = w.value(i - 1), v1 = w.value(i);
        const double t = t0 + (level - v0) / (v1 - v0) * (t1 - t0);
        out.push_back({t, side(i) > 0 ? waveform::EdgeKind::kRise
                                      : waveform::EdgeKind::kFall});
      }
      last_side = side(i);
      last_idx = i;
      ++i;
      continue;
    }
    // At-level run [run_start, i).
    const std::size_t run_start = i;
    while (i < n && side(i) == 0) ++i;
    const int before = last_side;
    const int after = i < n ? side(i) : 0;
    const double t = w.time(run_start);
    if (before == 0 && after != 0) {
      // Starts on the level: departure direction at the first sample.
      out.push_back({t, after > 0 ? waveform::EdgeKind::kRise
                                  : waveform::EdgeKind::kFall});
    } else if (before != 0 && after == 0) {
      // Ends on the level: arrival direction at the first at-level sample.
      out.push_back({t, before > 0 ? waveform::EdgeKind::kFall
                                   : waveform::EdgeKind::kRise});
    } else if (before != 0 && after != 0 && before != after) {
      out.push_back({t, after > 0 ? waveform::EdgeKind::kRise
                                  : waveform::EdgeKind::kFall});
    }
    // Touch (before == after) or all-level waveform: no crossing.  The
    // run's samples update nothing: last_side survives across a touch.
    if (i < n) {
      last_side = after;
      last_idx = i;
      // The non-level sample that ended the run is consumed on the next
      // loop turn; straddle logic must not also fire for it.
      ++i;
    }
  }
  return out;
}

Waveform random_level_waveform(Rng& rng, double level) {
  // Values drawn from a ladder around the level so exact hits and plateaus
  // happen constantly; occasional repeats make multi-sample plateaus.
  const double ladder[] = {level - 0.4, level - 0.2, level, level,
                           level + 0.2, level + 0.5};
  const std::size_t n = 2 + rng.uniform_index(30);
  std::vector<double> times, values;
  double t = 0.0;
  double v = ladder[rng.uniform_index(6)];
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniform(1e-12, 50e-12);
    if (!rng.bernoulli(0.3)) v = ladder[rng.uniform_index(6)];
    times.push_back(t);
    values.push_back(v);
  }
  return Waveform(std::move(times), std::move(values));
}

PropertyResult check_crossings_oracle(const PropertyOptions& opts) {
  PropertyCheck check("crossings-oracle", 1e-15);
  const std::size_t cases = opts.cases * 25;
  Rng rng(opts.seed ^ 0xc0551u);
  for (std::size_t k = 0; k < cases; ++k) {
    const double level = rng.uniform(-1.0, 1.0);
    const Waveform w = random_level_waveform(rng, level);
    const auto expected = oracle_crossings(w, level);
    const auto got = find_crossings(w, level, waveform::EdgeKind::kAny);
    check.expect(got.size() == expected.size(),
                 format("case %zu: %zu crossings, oracle says %zu", k,
                        got.size(), expected.size()));
    if (got.size() != expected.size()) continue;
    for (std::size_t i = 0; i < got.size(); ++i) {
      check.expect_within(std::fabs(got[i].time - expected[i].time),
                          format("case %zu crossing %zu time", k, i));
      check.expect(got[i].edge == expected[i].edge,
                   format("case %zu crossing %zu edge differs", k, i));
    }
    // Directional filters must be exact sublists.
    for (const waveform::EdgeKind kind :
         {waveform::EdgeKind::kRise, waveform::EdgeKind::kFall}) {
      const auto filtered = find_crossings(w, level, kind);
      std::size_t j = 0;
      for (const auto& c : expected)
        if (c.edge == kind) {
          check.expect(j < filtered.size() &&
                           std::fabs(filtered[j].time - c.time) <= 1e-15,
                       format("case %zu: filtered crossing %zu missing", k, j));
          ++j;
        }
      check.expect(j == filtered.size(),
                   format("case %zu: filter returned extras", k));
    }
    // next_crossing at random probes must agree with the full list.
    for (int probe = 0; probe < 4; ++probe) {
      const double after = rng.uniform(0.0, w.t_end() * 1.1);
      const auto nc = next_crossing(w, level, after, waveform::EdgeKind::kAny);
      const waveform::Crossing* first = nullptr;
      for (const auto& c : expected)
        if (c.time >= after) {
          first = &c;
          break;
        }
      check.expect((nc.has_value()) == (first != nullptr),
                   format("case %zu: next_crossing presence mismatch", k));
      if (nc.has_value() && first != nullptr) {
        check.expect_within(std::fabs(nc->time - first->time),
                            format("case %zu next_crossing time", k));
        check.expect(nc->edge == first->edge,
                     format("case %zu next_crossing edge", k));
      }
    }
  }
  check.done(cases);
  return check.result;
}

// -------------------------------------------------- unknown_name roundtrip

PropertyResult check_unknown_name_roundtrip(const PropertyOptions& opts) {
  PropertyCheck check("unknown-name-roundtrip", 0.0);
  const std::size_t cases = opts.cases * 4;
  Rng rng(opts.seed ^ 0x0a3eu);
  for (std::size_t k = 0; k < cases; ++k) {
    Circuit ckt;
    const std::size_t n = 2 + rng.uniform_index(7);
    std::vector<NodeId> nodes{spice::kGround};
    for (std::size_t i = 1; i <= n; ++i)
      nodes.push_back(ckt.node(format("node_%zu", i)));
    auto pick = [&] { return nodes[rng.uniform_index(nodes.size())]; };
    std::size_t serial = 0;
    const std::size_t elements = 2 + rng.uniform_index(8);
    std::vector<std::string> branch_elements;
    for (std::size_t e = 0; e < elements; ++e) {
      const std::string name = format("X%zu", serial++);
      switch (rng.uniform_index(6)) {
        case 0:
          ckt.add_resistor(name, pick(), pick(), 1e3);
          break;
        case 1:
          ckt.add_capacitor(name, pick(), pick(), 1e-15);
          break;
        case 2:
          ckt.add_inductor(name, pick(), pick(), 1e-9);
          branch_elements.push_back(name);
          break;
        case 3:
          ckt.add_vsource(name, pick(), pick(), SourceSpec::DC(1.0));
          branch_elements.push_back(name);
          break;
        case 4:
          ckt.add_vcvs(name, pick(), pick(), pick(), pick(), 2.0);
          branch_elements.push_back(name);
          break;
        default:
          ckt.add_vccs(name, pick(), pick(), pick(), pick(), 1e-3);
          break;
      }
    }
    // Voltage unknowns map back to node names.
    for (NodeId node = 1; node < ckt.num_nodes(); ++node)
      check.expect(ckt.unknown_name(ckt.node_unknown(node)) ==
                       ckt.node_name(node),
                   format("case %zu: node %zu name mismatch", k, node));
    // Branch unknowns map back to I(<element>).
    for (const std::string& name : branch_elements) {
      const spice::Element& e = ckt.element(name);
      check.expect(ckt.unknown_name(ckt.branch_unknown(e)) == "I(" + name + ")",
                   format("case %zu: branch %s name mismatch", k, name.c_str()));
    }
    // Every unknown index names something, and the names are distinct.
    std::vector<std::string> names;
    for (std::size_t u = 0; u < ckt.system_size(); ++u)
      names.push_back(ckt.unknown_name(u));
    std::sort(names.begin(), names.end());
    check.expect(std::adjacent_find(names.begin(), names.end()) == names.end(),
                 format("case %zu: duplicate unknown names", k));
  }
  check.done(cases);
  return check.result;
}

// ------------------------------------------------- charlib table lookups

// Random strictly-ascending axis of n points.
std::vector<double> random_axis(Rng& rng, std::size_t n) {
  std::vector<double> axis;
  double x = rng.uniform(-5.0, 5.0);
  for (std::size_t i = 0; i < n; ++i) {
    axis.push_back(x);
    x += rng.uniform(0.1, 3.0);
  }
  return axis;
}

PropertyResult check_charlib_bilinear(const PropertyOptions& opts) {
  // Bilinear lookup: exact at grid points, a convex combination of the
  // bounding corners between them (hence monotone over monotone tables),
  // clamped-and-flagged beyond the hull; and analyze::linear_library
  // reproduces the linear timing model it encodes.
  PropertyCheck check("charlib-bilinear", 1e-12);
  const std::size_t cases = opts.cases * 4;
  Rng rng(opts.seed ^ 0xcaab1eu);
  for (std::size_t k = 0; k < cases; ++k) {
    const std::vector<double> slews = random_axis(rng, 2 + rng.uniform_index(4));
    const std::vector<double> loads = random_axis(rng, 2 + rng.uniform_index(4));
    charlib::Table2D table(slews, loads);
    const bool monotone = rng.uniform_index(2) == 0;
    for (std::size_t i = 0; i < slews.size(); ++i)
      for (std::size_t j = 0; j < loads.size(); ++j)
        table.set(i, j, monotone
                            ? 1.0 * i + 0.5 * j + 0.1 * rng.uniform(0.0, 1.0)
                            : rng.uniform(-10.0, 10.0));

    // Exact (and unflagged) at every grid point.
    for (std::size_t i = 0; i < slews.size(); ++i) {
      for (std::size_t j = 0; j < loads.size(); ++j) {
        const charlib::LookupResult r = table.lookup(slews[i], loads[j]);
        check.expect_within(std::fabs(r.value - table.at(i, j)),
                            format("case %zu grid point (%zu,%zu)", k, i, j));
        check.expect(!r.clamped_slew && !r.clamped_load,
                     format("case %zu: clamp flagged on a grid point", k));
      }
    }

    // Interior points stay inside the bounding cell's corner hull; over a
    // monotone table the lookup is monotone along each axis.
    for (std::size_t probe = 0; probe < 8; ++probe) {
      const std::size_t i = rng.uniform_index(slews.size() - 1);
      const std::size_t j = rng.uniform_index(loads.size() - 1);
      const double s = rng.uniform(slews[i], slews[i + 1]);
      const double l = rng.uniform(loads[j], loads[j + 1]);
      const charlib::LookupResult r = table.lookup(s, l);
      const double corners[] = {table.at(i, j), table.at(i + 1, j),
                                table.at(i, j + 1), table.at(i + 1, j + 1)};
      const double lo = *std::min_element(corners, corners + 4);
      const double hi = *std::max_element(corners, corners + 4);
      check.expect(r.value >= lo - 1e-12 && r.value <= hi + 1e-12,
                   format("case %zu: interior value outside corner hull", k));
      check.expect(!r.clamped_slew && !r.clamped_load,
                   format("case %zu: clamp flagged inside the hull", k));
      if (monotone) {
        const charlib::LookupResult up_s = table.lookup(slews[i + 1], l);
        const charlib::LookupResult up_l = table.lookup(s, loads[j + 1]);
        check.expect(r.value <= up_s.value + 1e-12 &&
                         r.value <= up_l.value + 1e-12,
                     format("case %zu: monotone table, non-monotone lookup",
                            k));
      }
    }

    // Beyond the hull: flagged, and equal to the clamped edge value.
    const double mid_l = 0.5 * (loads.front() + loads.back());
    const charlib::LookupResult below = table.lookup(slews.front() - 1.0, mid_l);
    check.expect(below.clamped_slew && !below.clamped_load,
                 format("case %zu: slew underflow not flagged", k));
    check.expect_within(
        std::fabs(below.value - table.lookup(slews.front(), mid_l).value),
        format("case %zu: slew underflow not clamped to the edge", k));
    const charlib::LookupResult beyond =
        table.lookup(slews.back() + 2.0, loads.back() + 2.0);
    check.expect(beyond.clamped_slew && beyond.clamped_load,
                 format("case %zu: corner overflow not flagged", k));
    check.expect_within(
        std::fabs(beyond.value -
                  table.at(slews.size() - 1, loads.size() - 1)),
        format("case %zu: corner overflow not clamped to the corner", k));
  }

  // linear_library: the linear CellTiming model encoded as 2x2 tables
  // must reproduce the model's formula at any physical (slew, load), with
  // no clamp, and every arc must be non-inverting.
  Rng lin_rng(opts.seed ^ 0x1143a7u);
  // Error relative to the terms' magnitude: the delay may cancel to ~0.
  const auto rel = [](double got, double want, double scale) {
    return std::fabs(got - want) / scale;
  };
  for (std::size_t k = 0; k < opts.cases; ++k) {
    gatelevel::TimingModel model;
    model.c_ref = lin_rng.uniform(0.5e-15, 2e-15);
    const cells::Implementation impl =
        cells::all_implementations()[lin_rng.uniform_index(4)];
    model.load_slope[impl] = lin_rng.uniform(1e3, 5e4);
    const cells::CellType type =
        cells::all_cells()[lin_rng.uniform_index(cells::all_cells().size())];
    gatelevel::CellTiming& t = model.cells[impl][type];
    t.delay_ref = lin_rng.uniform(1e-12, 100e-12);
    t.input_cap = lin_rng.uniform(0.05e-15, 2e-15);
    t.slew_ref = lin_rng.uniform(1e-12, 100e-12);
    t.slew_slope = lin_rng.uniform(1e3, 5e4);
    t.slew_sens = lin_rng.uniform(0.0, 0.5);
    const charlib::CharLibrary lib = analyze::linear_library(model);
    const charlib::CellChar* cell = lib.find(impl, type);
    check.expect(cell != nullptr && lib.num_cells() == 1,
                 format("linear case %zu: cell entry missing", k));
    if (cell == nullptr) continue;
    for (const std::string& pin : cells::cell_input_names(type)) {
      check.expect(cell->pin_cap(pin) == t.input_cap,
                   format("linear case %zu: pin cap of %s", k, pin.c_str()));
      for (const bool rise : {true, false}) {
        const charlib::ArcTables* arc = cell->find_arc(pin, rise);
        check.expect(arc != nullptr && arc->output_rise == rise,
                     format("linear case %zu: arc %s missing or inverting", k,
                            pin.c_str()));
        if (arc == nullptr) continue;
        for (std::size_t q = 0; q < 4; ++q) {
          const double slew = lin_rng.uniform(0.0, 200e-12);
          const double load = lin_rng.uniform(0.0, 50e-15);
          const double dc = load - model.c_ref;
          const double slope = model.load_slope[impl];
          const charlib::LookupResult d = arc->delay.lookup(slew, load);
          const charlib::LookupResult sl = arc->out_slew.lookup(slew, load);
          check.expect_within(
              rel(d.value, t.delay_ref + slope * dc + t.slew_sens * slew,
                  t.delay_ref + std::fabs(slope * dc) + t.slew_sens * slew),
              format("linear case %zu delay", k));
          check.expect_within(
              rel(sl.value, t.slew_ref + t.slew_slope * dc,
                  t.slew_ref + std::fabs(t.slew_slope * dc)),
              format("linear case %zu out_slew", k));
          check.expect(!d.clamped() && !sl.clamped(),
                       format("linear case %zu: physical query clamped", k));
        }
      }
    }
  }
  check.done(cases + opts.cases);
  return check.result;
}

PropertyResult check_mlib_roundtrip(const PropertyOptions& opts) {
  // .mlib serialization: to_text -> from_text -> to_text is byte-stable
  // and the reparsed library compares equal, for randomized libraries.
  PropertyCheck check("mlib-roundtrip", 0.0);
  const std::size_t cases = opts.cases * 2;
  Rng rng(opts.seed ^ 0x316b5u);
  const std::vector<cells::Implementation> impls = {
      cells::Implementation::k2D, cells::Implementation::kMiv1Channel,
      cells::Implementation::kMiv2Channel, cells::Implementation::kMiv4Channel};
  for (std::size_t k = 0; k < cases; ++k) {
    charlib::CharLibrary lib;
    lib.slew_axis = random_axis(rng, 2 + rng.uniform_index(3));
    lib.load_axis = random_axis(rng, 2 + rng.uniform_index(3));
    const std::size_t n_entries = 1 + rng.uniform_index(4);
    for (std::size_t e = 0; e < n_entries; ++e) {
      const cells::CellType type =
          cells::all_cells()[rng.uniform_index(cells::all_cells().size())];
      const cells::Implementation impl = impls[rng.uniform_index(impls.size())];
      if (lib.find(impl, type) != nullptr) continue;
      charlib::CellChar cell;
      cell.type = type;
      cell.area = rng.uniform(1e-14, 1e-12);
      for (const std::string& pin : cells::cell_input_names(type)) {
        cell.input_cap.emplace_back(pin, rng.uniform(1e-17, 1e-15));
        for (const bool input_rise : {true, false}) {
          if (rng.uniform_index(4) == 0) continue;  // leave arc holes too
          charlib::ArcTables arc;
          arc.pin = pin;
          arc.input_rise = input_rise;
          arc.output_rise = rng.uniform_index(2) == 0;
          for (charlib::Table2D* t : {&arc.delay, &arc.out_slew, &arc.energy}) {
            *t = charlib::Table2D(lib.slew_axis, lib.load_axis);
            for (std::size_t i = 0; i < lib.slew_axis.size(); ++i)
              for (std::size_t j = 0; j < lib.load_axis.size(); ++j)
                t->set(i, j, rng.uniform(-1e-10, 1e-10));
          }
          cell.arcs.push_back(std::move(arc));
        }
      }
      lib.insert(impl, std::move(cell));
    }
    const std::string text = lib.to_text();
    const charlib::CharLibrary back = charlib::CharLibrary::from_text(text);
    check.expect(back == lib, format("case %zu: reparse not equal", k));
    check.expect(back.to_text() == text,
                 format("case %zu: render not byte-stable", k));
  }
  check.done(cases);
  return check.result;
}

}  // namespace

std::vector<PropertyResult> run_properties(const PropertyOptions& opts) {
  std::vector<PropertyResult> results;
  results.push_back(check_dcop_superposition(opts));
  results.push_back(check_dcop_scaling(opts));
  results.push_back(check_tran_scaling(opts));
  results.push_back(check_tran_time_shift(opts));
  results.push_back(check_rc_rl_closed_form(opts));
  results.push_back(check_dc_sweep_vs_dcop(opts));
  results.push_back(check_ac_vs_transient(opts));
  results.push_back(check_crossings_oracle(opts));
  results.push_back(check_unknown_name_roundtrip(opts));
  results.push_back(check_charlib_bilinear(opts));
  results.push_back(check_mlib_roundtrip(opts));
  return results;
}

bool all_passed(const std::vector<PropertyResult>& results) {
  for (const PropertyResult& r : results)
    if (!r.pass) return false;
  return true;
}

}  // namespace mivtx::verify
