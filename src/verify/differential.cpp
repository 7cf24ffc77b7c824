#include "verify/differential.h"

#include <algorithm>
#include <cmath>

#include "cells/circuitgen.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/ppa.h"
#include "runtime/artifact_cache.h"
#include "spice/parser.h"

namespace mivtx::verify {
namespace {

// Tolerances tight enough that the cross-config comparison measures the
// solver core, not Newton slack (same settings the backend-equivalence
// tests pin).
spice::NewtonOptions strict_newton(const SolverConfig& cfg) {
  spice::NewtonOptions o;
  o.backend = cfg.backend;
  if (cfg.bypass_vtol == 0.0) {
    o.vtol = 1e-12;
    o.reltol = 1e-9;
    o.itol = 1e-15;
    o.residual_tol = 1e-9;
  }
  // else: the bypass cache's error floor sits above the strict tolerances
  // (Newton could never settle), so the bypass axis runs at the stock
  // production settings it ships with — that is the contract it verifies.
  o.bypass_vtol = cfg.bypass_vtol;
  o.reuse_factorization = cfg.reuse_factorization;
  o.device_eval = cfg.device_eval;
  o.linear_solver = cfg.linear_solver;
  // Krylov solves must land well inside the cross-config comparison bound;
  // the budget is generous because a budget miss silently reroutes to the
  // direct ladder and the comparison would stop measuring the Krylov path.
  o.iterative_rtol = 1e-12;
  o.iterative_max_iterations = 2000;
  return o;
}

struct CaseRun {
  bool ok = false;
  std::string error;
  linalg::Vector dcop_x;
  spice::TransientResult tran;
};

CaseRun run_case(const DiffCase& c, const SolverConfig& cfg) {
  CaseRun run;
  const spice::NewtonOptions newton = strict_newton(cfg);
  if (c.run_dcop) {
    const spice::DcResult dc = spice::dc_operating_point(c.circuit, newton);
    if (!dc.converged) {
      run.error = format("dcop failed to converge (strategy %s)",
                         dc.strategy.c_str());
      return run;
    }
    run.dcop_x = dc.x;
  }
  if (c.run_transient) {
    spice::TransientOptions topt;
    topt.t_stop = c.t_stop;
    topt.h_max = c.h_max;
    topt.newton = newton;
    run.tran = spice::transient(c.circuit, topt);
    if (!run.tran.ok) {
      run.error = format("transient failed: %s", run.tran.error.c_str());
      return run;
    }
  }
  run.ok = true;
  return run;
}

}  // namespace

std::vector<SolverConfig> default_solver_matrix() {
  using spice::DeviceEval;
  std::vector<SolverConfig> m;
  m.push_back({"dense", spice::SolverBackend::kDense, true, 0.0,
               DeviceEval::kScalar, 0.0});
  m.push_back({"sparse", spice::SolverBackend::kSparse, true, 0.0,
               DeviceEval::kScalar, 0.0});
  // Ladder cross-check: every solve runs a fresh full factorization, so
  // the reuse/refactorize rungs are measured against the scratch path.
  m.push_back({"sparse-fullfactor", spice::SolverBackend::kSparse, false, 0.0,
               DeviceEval::kScalar, 0.0});
  // Production bypass tolerance: approximate by design, and it runs at the
  // stock Newton settings (see strict_newton), so its bound covers both the
  // cache error floor and stock-vs-strict step-grid differences.
  m.push_back({"sparse-bypass", spice::SolverBackend::kSparse, true, 1e-9,
               DeviceEval::kScalar, 1e-4});
  // Batched SIMD device kernel vs the scalar reference at the exact
  // tolerance: the kernel is a transliteration of the same math, so it
  // must hold the 1e-9 cross-config bound with no special casing.
  m.push_back({"sparse-simd", spice::SolverBackend::kSparse, true, 0.0,
               DeviceEval::kSimd, 0.0});
  // SIMD + bypass at the production settings: the full production fast
  // path against the dense scalar reference.
  m.push_back({"simd-bypass", spice::SolverBackend::kSparse, true, 1e-9,
               DeviceEval::kSimd, 1e-4});
  // Pinned BiCGStab on cell-sized systems: the Krylov tier against the
  // dense reference far below its crossover.  Iterative dx steps walk a
  // slightly different Newton path (and transient step grid), so the lane
  // runs at the production iterative tolerance rather than the exact one.
  m.push_back({"sparse-bicgstab", spice::SolverBackend::kSparse, true, 0.0,
               DeviceEval::kScalar, 1e-6, spice::LinearSolver::kBicgstab});
  return m;
}

std::vector<SolverConfig> iterative_solver_matrix(bool pin_cg) {
  using spice::DeviceEval;
  using spice::LinearSolver;
  std::vector<SolverConfig> m;
  // Reference: the direct sparse LU ladder.  Device evaluation stays on
  // kAuto for every lane — the axis under test is the linear solver, and
  // the big corpora would pay thousands of needless scalar evals.
  m.push_back({"sparse-direct", spice::SolverBackend::kSparse, true, 0.0,
               DeviceEval::kAuto, 0.0, LinearSolver::kDirect});
  m.push_back({"sparse-auto", spice::SolverBackend::kSparse, true, 0.0,
               DeviceEval::kAuto, 1e-6, LinearSolver::kAuto});
  m.push_back({"sparse-bicgstab", spice::SolverBackend::kSparse, true, 0.0,
               DeviceEval::kAuto, 1e-6, LinearSolver::kBicgstab});
  if (pin_cg) {
    m.push_back({"sparse-cg", spice::SolverBackend::kSparse, true, 0.0,
                 DeviceEval::kAuto, 1e-6, LinearSolver::kCg});
  }
  return m;
}

DiffCase make_cell_case(cells::CellType type, cells::Implementation impl,
                        const core::ModelLibrary& library) {
  const core::PpaEngine engine(library);
  core::PpaOptions probe;
  probe.t_delay = 20e-12;
  probe.t_width = 100e-12;
  cells::CellNetlist cell = cells::build_cell(
      type, impl, engine.model_set(impl), probe.parasitics, probe.vdd);
  core::apply_pin_stimulus(cell, 0, *core::PpaEngine::sensitize(type, 0),
                           probe);
  DiffCase c;
  c.name = format("%s/%s", cells::cell_name(type), cells::impl_name(impl));
  c.circuit = std::move(cell.circuit);
  c.t_stop = 1e-10;  // covers the rising input edge
  return c;
}

std::vector<DiffCase> cell_corpus(const core::ModelLibrary& library) {
  std::vector<DiffCase> cases;
  for (const cells::CellType type : cells::all_cells())
    for (const cells::Implementation impl : cells::all_implementations())
      cases.push_back(make_cell_case(type, impl, library));
  return cases;
}

DiffCase make_power_grid_case(std::size_t rows, std::size_t cols) {
  cells::PowerGridSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  cells::GeneratedCircuit gen = cells::build_power_grid(spec);
  DiffCase c;
  c.name = gen.name;
  c.circuit = std::move(gen.circuit);
  c.run_transient = false;
  return c;
}

DiffCase make_adder_case(std::size_t bits, cells::Implementation impl,
                         const core::ModelLibrary& library) {
  const core::PpaEngine engine(library);
  cells::GeneratedCircuit gen =
      cells::build_adder_array(bits, impl, engine.model_set(impl),
                               cells::ParasiticSpec{}, 1.0);
  DiffCase c;
  c.name = gen.name;
  c.circuit = std::move(gen.circuit);
  c.run_transient = false;
  return c;
}

DiffCase make_ring_case(std::size_t stages, cells::Implementation impl,
                        const core::ModelLibrary& library) {
  const core::PpaEngine engine(library);
  cells::GeneratedCircuit gen =
      cells::build_ring_oscillator(stages, impl, engine.model_set(impl),
                                   cells::ParasiticSpec{}, 1.0);
  DiffCase c;
  c.name = gen.name;
  c.circuit = std::move(gen.circuit);
  c.run_transient = false;
  return c;
}

DiffCase netlist_case(const std::string& name, const std::string& text,
                      double default_t_stop) {
  const spice::ParsedNetlist parsed = spice::parse_netlist(text);
  DiffCase c;
  c.name = name;
  c.circuit = parsed.circuit;
  c.t_stop = default_t_stop;
  for (const std::string& d : parsed.directives) {
    const auto arg = split(d, " \t");
    if (!arg.empty() && equals_ci(arg[0], ".tran") && arg.size() >= 3)
      c.t_stop = parse_spice_number(arg[2]);
  }
  return c;
}

std::string CaseConfigReport::summary() const {
  if (!error.empty())
    return format("%s/%s: ERROR %s", case_name.c_str(), config_name.c_str(),
                  error.c_str());
  std::string out = format("%s/%s: %s", case_name.c_str(), config_name.c_str(),
                           ok ? "ok" : "FAIL");
  out += format(" dcop %.3e", dcop.max_abs);
  if (!dcop.pass)
    out += format(" (worst unknown %s)", dcop.worst_unknown.c_str());
  out += ", tran " + transient.summary();
  return out;
}

DiffReport run_differential(const std::vector<DiffCase>& cases,
                            const DiffOptions& opts) {
  MIVTX_EXPECT(!opts.matrix.empty(), "differential: empty solver matrix");
  DiffReport report;
  report.cases = cases.size();

  // Each case runs the whole matrix in one task (reference + comparisons),
  // so fan-out across cases is embarrassingly parallel and index-ordered.
  const std::vector<std::vector<CaseConfigReport>> per_case =
      runtime::parallel_map<std::vector<CaseConfigReport>>(
          opts.pool, cases.size(), [&](std::size_t idx) {
            const DiffCase& c = cases[idx];
            std::vector<CaseConfigReport> out;
            const CaseRun ref = run_case(c, opts.matrix[0]);
            for (std::size_t k = 1; k < opts.matrix.size(); ++k) {
              const SolverConfig& cfg = opts.matrix[k];
              CaseConfigReport r;
              r.case_name = c.name;
              r.config_name =
                  format("%s-vs-%s", opts.matrix[0].name.c_str(),
                         cfg.name.c_str());
              r.tolerance =
                  cfg.tolerance > 0.0 ? cfg.tolerance : opts.tolerance;
              if (!ref.ok) {
                r.error = "reference " + opts.matrix[0].name + ": " + ref.error;
                out.push_back(std::move(r));
                continue;
              }
              const CaseRun run = run_case(c, cfg);
              if (!run.ok) {
                r.error = cfg.name + ": " + run.error;
                out.push_back(std::move(r));
                continue;
              }
              r.ok = true;
              if (c.run_dcop) {
                r.dcop = compare_solutions(c.circuit, ref.dcop_x, run.dcop_x,
                                           r.tolerance);
                r.ok = r.ok && r.dcop.pass;
              }
              if (c.run_transient) {
                r.transient =
                    compare_transients(ref.tran, run.tran, r.tolerance);
                r.ok = r.ok && r.transient.pass;
              }
              out.push_back(std::move(r));
            }
            return out;
          });

  for (const auto& vec : per_case) {
    for (const CaseConfigReport& r : vec) {
      report.comparisons += 1;
      const double worst = std::max(r.dcop.max_abs, r.transient.max_abs);
      if (worst > report.worst_divergence) {
        report.worst_divergence = worst;
        report.worst_case = r.case_name + "/" + r.config_name;
      }
      if (!r.ok) {
        report.failures += 1;
        report.pass = false;
      }
      report.reports.push_back(r);
    }
  }
  return report;
}

namespace {

bool bit_equal(double a, double b) {
  // Bit-identity contract: +-0 and NaN payloads are out of scope here,
  // exact == on the measured doubles is the right comparison.
  return a == b;
}

std::string compare_ppa(const core::CellPpa& a, const core::CellPpa& b,
                        const char* axis) {
  if (a.ok != b.ok)
    return format("%s: ok flag differs (%d vs %d)", axis, a.ok, b.ok);
  if (!bit_equal(a.delay, b.delay))
    return format("%s: delay differs by %.3e s", axis,
                  std::fabs(a.delay - b.delay));
  if (!bit_equal(a.power, b.power))
    return format("%s: power differs by %.3e W", axis,
                  std::fabs(a.power - b.power));
  if (!bit_equal(a.area, b.area)) return format("%s: area differs", axis);
  if (!bit_equal(a.pdp, b.pdp)) return format("%s: pdp differs", axis);
  if (a.arcs.size() != b.arcs.size())
    return format("%s: arc count %zu vs %zu", axis, a.arcs.size(),
                  b.arcs.size());
  for (std::size_t i = 0; i < a.arcs.size(); ++i) {
    if (a.arcs[i].pin != b.arcs[i].pin ||
        a.arcs[i].input_rising != b.arcs[i].input_rising ||
        !bit_equal(a.arcs[i].delay, b.arcs[i].delay))
      return format("%s: arc %zu (%s) differs", axis, i,
                    a.arcs[i].pin.c_str());
  }
  return {};
}

}  // namespace

PpaDiffReport run_ppa_differential(const core::ModelLibrary& library,
                                   const PpaDiffOptions& opts) {
  PpaDiffReport report;

  std::vector<std::pair<cells::CellType, cells::Implementation>> pairs;
  for (const cells::CellType type : cells::all_cells())
    for (const cells::Implementation impl : cells::all_implementations())
      pairs.emplace_back(type, impl);
  if (opts.max_cells > 0 && pairs.size() > opts.max_cells)
    pairs.resize(opts.max_cells);
  report.cells = pairs.size();

  // Serial reference: no pool, no cache.
  const core::PpaEngine serial(library);
  // Parallel engine with a cold in-memory cache; a third pass over the same
  // engine must be served from the warm cache and still read back
  // bit-identical.
  runtime::ThreadPool pool(opts.jobs);
  runtime::ArtifactCache cache;
  const core::PpaEngine parallel(library, {}, {},
                                 {pool.size() > 1 ? &pool : nullptr, &cache});

  for (const auto& [type, impl] : pairs) {
    PpaEquivalence row;
    row.cell = format("%s/%s", cells::cell_name(type), cells::impl_name(impl));
    const core::CellPpa ref = serial.measure(type, impl);
    const std::uint64_t hits_before = cache.stats().hits;
    const core::CellPpa cold = parallel.measure(type, impl);
    const core::CellPpa warm = parallel.measure(type, impl);
    row.detail = compare_ppa(ref, cold, "1-vs-N-threads");
    if (row.detail.empty())
      row.detail = compare_ppa(cold, warm, "cold-vs-warm-cache");
    if (row.detail.empty() && cache.stats().hits <= hits_before)
      row.detail = "cold-vs-warm-cache: warm re-measure never hit the cache";
    row.ok = row.detail.empty();
    if (!row.ok) {
      report.failures += 1;
      report.pass = false;
    }
    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace mivtx::verify
