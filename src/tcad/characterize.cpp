#include "tcad/characterize.h"

#include <cmath>

#include "common/error.h"
#include "linalg/vector_ops.h"
#include "runtime/metrics.h"

namespace mivtx::tcad {

namespace {

// Publish the simulator's work since the last sweep: once per sweep, since
// every Metrics::add takes the registry lock.
void publish_work(DeviceSimulator& sim) {
  const SolverWork w = sim.take_work();
  runtime::Metrics& m = runtime::Metrics::global();
  m.add("tcad.bias_points", static_cast<double>(w.bias_points));
  m.add("tcad.continuation_steps", static_cast<double>(w.continuation_steps));
  m.add("tcad.gummel_iterations", static_cast<double>(w.gummel_iterations));
  m.add("tcad.banded_factorizations",
        static_cast<double>(w.banded_factorizations));
}

}  // namespace

double Characterizer::polarity_sign() const {
  return sim_.structure().spec.polarity == Polarity::kNmos ? 1.0 : -1.0;
}

Curve Characterizer::id_vg(double vds_mag, const std::vector<double>& vg_mags) {
  const double s = polarity_sign();
  Curve out;
  out.reserve(vg_mags.size());
  sim_.reset();
  for (double vg : vg_mags) {
    const Solution& sol = sim_.solve(BiasPoint{s * vg, s * vds_mag});
    out.push_back(CurvePoint{vg, std::fabs(sim_.drain_current(sol))});
  }
  publish_work(sim_);
  return out;
}

Curve Characterizer::id_vd(double vgs_mag, const std::vector<double>& vd_mags) {
  const double s = polarity_sign();
  Curve out;
  out.reserve(vd_mags.size());
  sim_.reset();
  for (double vd : vd_mags) {
    const Solution& sol = sim_.solve(BiasPoint{s * vgs_mag, s * vd});
    out.push_back(CurvePoint{vd, std::fabs(sim_.drain_current(sol))});
  }
  publish_work(sim_);
  return out;
}

Curve Characterizer::cgg_vg(double vds_mag, const std::vector<double>& vg_mags,
                            double dv) {
  MIVTX_EXPECT(dv > 0.0, "cgg_vg needs a positive dv");
  const double s = polarity_sign();
  Curve out;
  out.reserve(vg_mags.size());
  sim_.reset();
  for (double vg : vg_mags) {
    const Solution lo = sim_.solve(BiasPoint{s * (vg - dv), s * vds_mag});
    const double q_lo = sim_.gate_charge(lo);
    const Solution hi = sim_.solve(BiasPoint{s * (vg + dv), s * vds_mag});
    const double q_hi = sim_.gate_charge(hi);
    // dQg/dVg at the actual (signed) biases: both charge and voltage mirror
    // for PMOS, so the signed step is s * dv.
    out.push_back(CurvePoint{vg, (q_hi - q_lo) / (2.0 * s * dv)});
  }
  publish_work(sim_);
  return out;
}

double Characterizer::ion(double vdd) {
  const double s = polarity_sign();
  sim_.reset();
  const Solution& sol = sim_.solve(BiasPoint{s * vdd, s * vdd});
  publish_work(sim_);
  return std::fabs(sim_.drain_current(sol));
}

double Characterizer::ioff(double vdd) {
  const double s = polarity_sign();
  sim_.reset();
  const Solution& sol = sim_.solve(BiasPoint{0.0, s * vdd});
  publish_work(sim_);
  return std::fabs(sim_.drain_current(sol));
}

double Characterizer::vth_cc(double vdd) {
  const DeviceSpec& spec = sim_.structure().spec;
  const double i_crit = 100e-9 * spec.w_total / spec.l_gate;
  const auto vgs = linalg::linspace(0.0, vdd, 41);
  const Curve c = id_vg(0.05, vgs);
  for (std::size_t k = 1; k < c.size(); ++k) {
    if (c[k - 1].y < i_crit && c[k].y >= i_crit) {
      const double f = (std::log(i_crit) - std::log(c[k - 1].y)) /
                       (std::log(c[k].y) - std::log(c[k - 1].y));
      return c[k - 1].x + f * (c[k].x - c[k - 1].x);
    }
  }
  return c.back().y >= i_crit ? c.back().x : vdd;
}

}  // namespace mivtx::tcad
