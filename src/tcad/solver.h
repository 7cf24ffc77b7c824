// Coupled Poisson / drift-diffusion solver (Gummel iteration).
//
// Numerics:
//   * Nonlinear Poisson per Gummel pass: Newton with the classic
//     quasi-Fermi-preserving exponential update n*exp(dpsi/vt), damped by a
//     per-node update clamp.
//   * Electron/hole continuity: Scharfetter-Gummel fluxes with lagged
//     field-dependent mobility (Caughey-Thomas doping term + velocity
//     saturation) and linearized SRH recombination.
//   * Linear solves: banded LU; natural y-fastest ordering keeps the
//     bandwidth at ny.  Each simulator owns one BandedLU workspace that
//     every Poisson-Newton and continuity solve reassembles and refactors
//     in place, so a solve allocates no matrix.
//   * Bias continuation: solve() steps contacts in <=100 mV increments from
//     the previous converged solution.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/banded.h"
#include "linalg/vector_ops.h"
#include "tcad/device.h"
#include "tcad/edge_table.h"

namespace mivtx::tcad {

struct BiasPoint {
  double vg = 0.0;  // gate (and MIV) voltage
  double vd = 0.0;  // drain voltage; source at 0
};

struct GummelOptions {
  int max_gummel = 200;
  double psi_tol = 1e-7;        // V, infinity-norm of the Poisson update
  int max_poisson_newton = 100;
  double newton_clamp = 0.10;   // V, per-node Poisson update clamp
  double max_bias_step = 0.10;  // V, continuation step
  double temperature = 300.0;   // K
};

struct Solution {
  bool converged = false;
  int gummel_iterations = 0;
  BiasPoint bias;
  linalg::Vector psi;  // per node (V)
  linalg::Vector n;    // per node (m^-3), zero on oxide nodes
  linalg::Vector p;    // per node (m^-3)
};

// Work done by a simulator since its counts were last taken.
struct SolverWork {
  std::uint64_t bias_points = 0;         // solve() calls
  std::uint64_t continuation_steps = 0;  // Gummel solves at one bias
  // Gummel iterations at continuation steps plus equilibrium Poisson passes
  std::uint64_t gummel_iterations = 0;
  std::uint64_t banded_factorizations = 0;  // Poisson-Newton + continuity
};

class DeviceSimulator {
 public:
  explicit DeviceSimulator(DeviceSpec spec, GummelOptions opts = {});

  const DeviceStructure& structure() const { return structure_; }
  const GummelOptions& options() const { return opts_; }

  // Solve at a bias point, warm-starting from the last converged solution
  // (continuation steps inserted automatically for large bias jumps).
  const Solution& solve(BiasPoint bias);
  // Invalidate the warm-start state (forces re-equilibration).
  void reset();

  // Terminal drain current (A) for the full device width, sign per the
  // applied bias (negative for PMOS-style operation).
  double drain_current(const Solution& sol) const;
  // Total charge on the gate electrode (gate + MIV plates), in coulombs for
  // the full device width.
  double gate_charge(const Solution& sol) const;

  // Sheet conductance diagnostics used by tests.
  double total_recombination(const Solution& sol) const;

  // The work counts accumulated so far, which are then reset to zero.
  SolverWork take_work();

 private:
  Solution solve_single(BiasPoint bias, const Solution* seed);
  // Equilibrium (all contacts grounded, Boltzmann carriers).
  Solution solve_equilibrium();
  // One nonlinear Poisson solve with frozen quasi-Fermi structure.
  // Returns the infinity norm of psi change.
  double solve_poisson(Solution& sol, BiasPoint bias);
  // Electron / hole continuity update.
  void solve_continuity(Solution& sol, bool electrons);
  // Factor the assembled lu_.matrix() in place and solve for rhs.
  void factor_and_solve(linalg::Vector& rhs);

  double contact_psi(ContactKind kind, BiasPoint bias, double doping) const;
  // Field-dependent mobility on edge `e` (velocity saturation applied to
  // the edge's low-field mobility).
  double edge_mobility(bool electrons, std::size_t e,
                       double e_parallel) const;

  DeviceSpec spec_;
  GummelOptions opts_;
  DeviceStructure structure_;
  EdgeTable table_;
  double vt_;  // thermal voltage
  double ni_;
  // Per-edge low-field (Caughey-Thomas x mobility_factor) mobility, m^2/Vs.
  std::vector<double> mu0_n_, mu0_p_;
  linalg::BandedLU lu_;  // the one linear-solve workspace
  SolverWork work_;

  bool have_state_ = false;
  Solution state_;
};

}  // namespace mivtx::tcad
