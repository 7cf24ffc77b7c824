#include "tcad/solver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/units.h"
#include "linalg/banded.h"

namespace mivtx::tcad {

namespace {

// Bernoulli function B(x) = x / (exp(x) - 1), overflow-safe.
double bernoulli(double x) {
  const double ax = std::fabs(x);
  if (ax < 1e-10) return 1.0 - 0.5 * x;
  if (ax < 1e-4) return 1.0 - 0.5 * x + x * x / 12.0;
  if (x > 0.0) {
    const double e = std::exp(-x);
    return x * e / (1.0 - e);
  }
  return x / std::expm1(x);
}

// Caughey-Thomas doping-dependent low-field mobility (Si, 300 K), m^2/Vs.
double ct_mobility(bool electrons, double abs_doping) {
  if (electrons) {
    const double mu_min = 6.85e-3, mu_max = 0.1414;
    const double nref = 9.20e22, alpha = 0.711;
    return mu_min + (mu_max - mu_min) /
                        (1.0 + std::pow(abs_doping / nref, alpha));
  }
  const double mu_min = 4.49e-3, mu_max = 4.705e-2;
  const double nref = 2.23e23, alpha = 0.719;
  return mu_min +
         (mu_max - mu_min) / (1.0 + std::pow(abs_doping / nref, alpha));
}

}  // namespace

DeviceSimulator::DeviceSimulator(DeviceSpec spec, GummelOptions opts)
    : spec_(std::move(spec)), opts_(opts), structure_(build_structure(spec_)),
      table_(build_edge_table(structure_)),
      vt_(thermal_voltage(opts.temperature)), ni_(kSiIntrinsicDensity),
      lu_(structure_.mesh.num_nodes(), structure_.mesh.ny(),
          structure_.mesh.ny()) {
  mu0_n_.reserve(table_.edges.size());
  mu0_p_.reserve(table_.edges.size());
  for (const Edge& e : table_.edges) {
    mu0_n_.push_back(ct_mobility(true, e.abs_doping) * spec_.mobility_factor);
    mu0_p_.push_back(ct_mobility(false, e.abs_doping) * spec_.mobility_factor);
  }
}

SolverWork DeviceSimulator::take_work() { return std::exchange(work_, {}); }

void DeviceSimulator::reset() { have_state_ = false; }

double DeviceSimulator::contact_psi(ContactKind kind, BiasPoint bias,
                                    double doping) const {
  switch (kind) {
    case ContactKind::kSource:
      return 0.0 + vt_ * std::asinh(doping / (2.0 * ni_));
    case ContactKind::kDrain:
      return bias.vd + vt_ * std::asinh(doping / (2.0 * ni_));
    case ContactKind::kGate:
    case ContactKind::kMiv:
      return bias.vg + spec_.gate_offset;
    case ContactKind::kNone:
      break;
  }
  MIVTX_FAIL("contact_psi on a non-contact node");
}

double DeviceSimulator::edge_mobility(bool electrons, std::size_t e,
                                      double e_parallel) const {
  const double mu0 = electrons ? mu0_n_[e] : mu0_p_[e];
  const double vsat = electrons ? spec_.vsat_n : spec_.vsat_p;
  if (electrons) {
    const double r = mu0 * e_parallel / vsat;
    return mu0 / std::sqrt(1.0 + r * r);
  }
  return mu0 / (1.0 + mu0 * e_parallel / vsat);
}

void DeviceSimulator::factor_and_solve(linalg::Vector& rhs) {
  lu_.factor();
  ++work_.banded_factorizations;
  lu_.solve_in_place(rhs);
}

double DeviceSimulator::solve_poisson(Solution& sol, BiasPoint bias) {
  const EdgeTable& et = table_;
  const std::size_t nn = structure_.mesh.num_nodes();

  // Quasi-Fermi-preserving reference state for the exponential update.
  const linalg::Vector psi0 = sol.psi;
  const linalg::Vector n0 = sol.n;
  const linalg::Vector p0 = sol.p;

  double last_update = 0.0;
  for (int it = 0; it < opts_.max_poisson_newton; ++it) {
    linalg::BandedMatrix& jac = lu_.matrix();
    jac.set_zero();
    linalg::Vector rhs(nn, 0.0);  // -F

    for (std::size_t nd = 0; nd < nn; ++nd) {
      const ContactKind ck = structure_.contact[nd];
      if (ck != ContactKind::kNone) {
        jac.set(nd, nd, 1.0);
        rhs[nd] = contact_psi(ck, bias, structure_.doping[nd]) - sol.psi[nd];
        continue;
      }
      const double vsi = et.si_volume[nd];
      if (vsi > 0.0) {
        // Carriers follow the exponential update within this Newton solve.
        const double arg = std::clamp((sol.psi[nd] - psi0[nd]) / vt_, -60.0, 60.0);
        const double n_now = n0[nd] * std::exp(arg);
        const double p_now = p0[nd] * std::exp(-arg);
        // Residual F_i = sum_edges c*(psi_j - psi_i) + q*Vsi*(p - n + N);
        // the assembled matrix is -J (positive diagonal), so rhs = +F.
        const double charge = kElementaryCharge * vsi *
                              (p_now - n_now + structure_.doping[nd]);
        rhs[nd] += charge;
        jac.add(nd, nd, kElementaryCharge * vsi * (p_now + n_now) / vt_);
      }
    }
    for (const Edge& e : et.edges) {
      const bool a_d = structure_.contact[e.a] != ContactKind::kNone;
      const bool b_d = structure_.contact[e.b] != ContactKind::kNone;
      const double flux = e.c_poisson * (sol.psi[e.b] - sol.psi[e.a]);
      if (!a_d) {
        rhs[e.a] += flux;  // +F: flux enters F_a with positive sign
        jac.add(e.a, e.a, e.c_poisson);
        jac.add(e.a, e.b, -e.c_poisson);
      }
      if (!b_d) {
        rhs[e.b] -= flux;
        jac.add(e.b, e.b, e.c_poisson);
        jac.add(e.b, e.a, -e.c_poisson);
      }
    }

    factor_and_solve(rhs);
    const linalg::Vector& dpsi = rhs;
    double max_d = 0.0;
    for (std::size_t nd = 0; nd < nn; ++nd) {
      const double d = std::clamp(dpsi[nd], -opts_.newton_clamp,
                                  opts_.newton_clamp);
      sol.psi[nd] += d;
      max_d = std::max(max_d, std::fabs(dpsi[nd]));
    }
    if (it == 0) last_update = max_d;
    if (max_d < 1e-10) break;
  }

  // Commit carriers to the new potential (preserves quasi-Fermi levels).
  for (std::size_t nd = 0; nd < nn; ++nd) {
    if (et.si_volume[nd] <= 0.0) continue;
    const double arg = std::clamp((sol.psi[nd] - psi0[nd]) / vt_, -60.0, 60.0);
    sol.n[nd] = n0[nd] * std::exp(arg);
    sol.p[nd] = p0[nd] * std::exp(-arg);
  }
  return last_update;
}

void DeviceSimulator::solve_continuity(Solution& sol, bool electrons) {
  const EdgeTable& et = table_;
  const std::size_t nn = structure_.mesh.num_nodes();
  const double q_sign = electrons ? 1.0 : -1.0;

  linalg::BandedMatrix& a = lu_.matrix();
  a.set_zero();
  linalg::Vector rhs(nn, 0.0);
  linalg::Vector& u = electrons ? sol.n : sol.p;

  const double tau = spec_.tau_srh;

  for (std::size_t nd = 0; nd < nn; ++nd) {
    const bool semi = et.si_volume[nd] > 0.0;
    const ContactKind ck = structure_.contact[nd];
    if (!semi) {
      a.set(nd, nd, 1.0);
      rhs[nd] = 0.0;
      continue;
    }
    if (ck == ContactKind::kSource || ck == ContactKind::kDrain) {
      // Ohmic: charge-neutral equilibrium carrier densities.
      const double dop = structure_.doping[nd];
      const double maj = 0.5 * (std::fabs(dop) +
                                std::sqrt(dop * dop + 4.0 * ni_ * ni_));
      const double minr = ni_ * ni_ / maj;
      const double target = (dop >= 0.0) == electrons ? maj : minr;
      a.set(nd, nd, 1.0);
      rhs[nd] = target;
      continue;
    }
    // SRH recombination, linearized in the solved carrier.
    const double n_old = sol.n[nd], p_old = sol.p[nd];
    const double denom = tau * (n_old + ni_) + tau * (p_old + ni_);
    const double vol = et.si_volume[nd];
    const double other = electrons ? p_old : n_old;
    a.add(nd, nd, vol * other / denom);
    rhs[nd] += vol * ni_ * ni_ / denom;
  }

  for (std::size_t k = 0; k < et.edges.size(); ++k) {
    const Edge& e = et.edges[k];
    if (e.si_face <= 0.0) continue;
    const bool a_semi = et.si_volume[e.a] > 0.0;
    const bool b_semi = et.si_volume[e.b] > 0.0;
    if (!a_semi || !b_semi) continue;

    const double u_ab = q_sign * (sol.psi[e.a] - sol.psi[e.b]) / vt_;
    const double epar = std::fabs(sol.psi[e.a] - sol.psi[e.b]) / e.d;
    const double mu = edge_mobility(electrons, k, epar);
    const double g = mu * vt_ * e.si_face / e.d;
    // Flux a->b = g * (u_a * B(u_ab) - u_b * B(-u_ab)).
    const double ba = bernoulli(u_ab);
    const double bb = bernoulli(-u_ab);

    const ContactKind cka = structure_.contact[e.a];
    const ContactKind ckb = structure_.contact[e.b];
    const bool a_free = cka == ContactKind::kNone;
    const bool b_free = ckb == ContactKind::kNone;
    if (a_free) {
      a.add(e.a, e.a, g * ba);
      a.add(e.a, e.b, -g * bb);
    }
    if (b_free) {
      a.add(e.b, e.b, g * bb);
      a.add(e.b, e.a, -g * ba);
    }
  }

  factor_and_solve(rhs);
  for (std::size_t nd = 0; nd < nn; ++nd) {
    if (et.si_volume[nd] <= 0.0) {
      u[nd] = 0.0;
      continue;
    }
    u[nd] = std::max(rhs[nd], 1.0);  // positivity floor (1 carrier/m^3)
  }
}

Solution DeviceSimulator::solve_equilibrium() {
  const Mesh& mesh = structure_.mesh;
  const EdgeTable& et = table_;
  const std::size_t nn = mesh.num_nodes();

  Solution sol;
  sol.bias = BiasPoint{0.0, 0.0};
  sol.psi.assign(nn, 0.0);
  sol.n.assign(nn, 0.0);
  sol.p.assign(nn, 0.0);

  // Initial guess: local charge-neutral potential.
  for (std::size_t nd = 0; nd < nn; ++nd) {
    if (et.si_volume[nd] > 0.0) {
      sol.psi[nd] = vt_ * std::asinh(structure_.doping[nd] / (2.0 * ni_));
      sol.n[nd] = ni_ * std::exp(sol.psi[nd] / vt_);
      sol.p[nd] = ni_ * std::exp(-sol.psi[nd] / vt_);
    }
  }
  // Equilibrium: quasi-Fermi levels are flat at 0, so repeated Poisson
  // passes (each re-linearizing around the last state) converge to the
  // exact Boltzmann equilibrium.
  double upd = 1.0;
  for (int it = 0; it < opts_.max_gummel && upd > opts_.psi_tol; ++it) {
    upd = solve_poisson(sol, BiasPoint{0.0, 0.0});
    sol.gummel_iterations = it + 1;
  }
  work_.gummel_iterations += static_cast<std::uint64_t>(sol.gummel_iterations);
  sol.converged = upd <= opts_.psi_tol;
  return sol;
}

Solution DeviceSimulator::solve_single(BiasPoint bias, const Solution* seed) {
  Solution sol = seed ? *seed : solve_equilibrium();
  sol.bias = bias;
  sol.converged = false;

  double upd = 1.0;
  int it = 0;
  for (; it < opts_.max_gummel; ++it) {
    upd = solve_poisson(sol, bias);
    solve_continuity(sol, /*electrons=*/true);
    solve_continuity(sol, /*electrons=*/false);
    if (upd < opts_.psi_tol && it >= 2) break;
  }
  sol.gummel_iterations = it + 1;
  ++work_.continuation_steps;
  work_.gummel_iterations += static_cast<std::uint64_t>(sol.gummel_iterations);
  sol.converged = upd < opts_.psi_tol * 10.0 + 1e-12 || upd < opts_.psi_tol;
  if (!sol.converged) {
    MIVTX_WARN << "gummel not converged at vg=" << bias.vg
               << " vd=" << bias.vd << " (update " << upd << " V)";
  }
  return sol;
}

const Solution& DeviceSimulator::solve(BiasPoint bias) {
  ++work_.bias_points;
  if (!have_state_) {
    state_ = solve_equilibrium();
    state_.bias = BiasPoint{0.0, 0.0};
    have_state_ = true;
  }
  const double dvg = bias.vg - state_.bias.vg;
  const double dvd = bias.vd - state_.bias.vd;
  const double span = std::max(std::fabs(dvg), std::fabs(dvd));
  const int steps =
      std::max(1, static_cast<int>(std::ceil(span / opts_.max_bias_step)));
  const BiasPoint from = state_.bias;
  for (int k = 1; k <= steps; ++k) {
    const double f = static_cast<double>(k) / steps;
    const BiasPoint b{from.vg + f * dvg, from.vd + f * dvd};
    state_ = solve_single(b, &state_);
  }
  return state_;
}

double DeviceSimulator::drain_current(const Solution& sol) const {
  const EdgeTable& et = table_;
  double current_per_width = 0.0;  // A per meter of width

  for (std::size_t k = 0; k < et.edges.size(); ++k) {
    const Edge& e = et.edges[k];
    if (e.si_face <= 0.0) continue;
    const bool a_drain = structure_.contact[e.a] == ContactKind::kDrain;
    const bool b_drain = structure_.contact[e.b] == ContactKind::kDrain;
    if (a_drain == b_drain) continue;  // internal or contact-contact edge
    // Orient: c = drain contact node, o = interior node.
    const std::size_t c = a_drain ? e.a : e.b;
    const std::size_t o = a_drain ? e.b : e.a;

    const double u = (sol.psi[c] - sol.psi[o]) / vt_;
    const double epar = std::fabs(sol.psi[c] - sol.psi[o]) / e.d;
    const double mun = edge_mobility(true, k, epar);
    const double mup = edge_mobility(false, k, epar);
    const double gn = mun * vt_ * e.si_face / e.d;
    const double gp = mup * vt_ * e.si_face / e.d;
    // Particle fluxes out of the contact node.
    const double phi_n =
        gn * (sol.n[c] * bernoulli(u) - sol.n[o] * bernoulli(-u));
    const double phi_p =
        gp * (sol.p[c] * bernoulli(-u) - sol.p[o] * bernoulli(u));
    current_per_width += kElementaryCharge * (phi_p - phi_n);
  }
  return current_per_width * spec_.w_total;
}

double DeviceSimulator::gate_charge(const Solution& sol) const {
  const EdgeTable& et = table_;
  double q_per_width = 0.0;
  auto is_gate = [&](std::size_t nd) {
    return structure_.contact[nd] == ContactKind::kGate ||
           structure_.contact[nd] == ContactKind::kMiv;
  };
  for (const Edge& e : et.edges) {
    const bool ag = is_gate(e.a), bg = is_gate(e.b);
    if (ag == bg) continue;
    const std::size_t c = ag ? e.a : e.b;
    const std::size_t o = ag ? e.b : e.a;
    q_per_width += e.c_poisson * (sol.psi[c] - sol.psi[o]);
  }
  return q_per_width * spec_.w_total;
}

double DeviceSimulator::total_recombination(const Solution& sol) const {
  const EdgeTable& et = table_;
  double r = 0.0;
  const double tau = spec_.tau_srh;
  for (std::size_t nd = 0; nd < structure_.mesh.num_nodes(); ++nd) {
    const double vol = et.si_volume[nd];
    if (vol <= 0.0) continue;
    const double n = sol.n[nd], p = sol.p[nd];
    r += vol * (n * p - ni_ * ni_) /
         (tau * (n + ni_) + tau * (p + ni_));
  }
  return r * spec_.w_total;
}

}  // namespace mivtx::tcad
