// PPA measurement engine (paper §IV / Fig. 5).
//
// For every (cell, implementation) and each input pin it finds a side-input
// assignment that makes the output sensitive to that pin and runs the pin
// probe below (probe_pin), the one cell-pin measurement that the NLDM
// characterizer (charlib/characterize.h) and the Monte-Carlo engine
// (core/variability.h) run as well.  Reported metrics:
//   delay  - mean 50%-to-50% propagation delay over all pin arcs and both
//            edges (the paper's "average propagation delay of the outputs")
//   power  - mean VDD-rail power over the switching window, averaged over
//            the pin simulations
//   area   - cell layout area from layout/cell_layout.h
//   pdp    - power * delay
#pragma once

#include <optional>
#include <vector>

#include "cells/netgen.h"
#include "core/flow.h"
#include "layout/cell_layout.h"
#include "runtime/exec_policy.h"
#include "spice/dcop.h"

namespace mivtx::core {

struct ArcMeasurement {
  std::string pin;
  bool input_rising = false;
  double delay = 0.0;  // s
};

struct CellPpa {
  cells::CellType type = cells::CellType::kInv1;
  cells::Implementation impl = cells::Implementation::k2D;
  bool ok = false;
  double delay = 0.0;  // s (average over arcs)
  double power = 0.0;  // W (average)
  double area = 0.0;   // m^2
  double pdp = 0.0;    // J
  cells::MivStats mivs;
  std::vector<ArcMeasurement> arcs;
};

struct PpaOptions {
  double vdd = 1.0;
  double t_edge = 20e-12;    // input rise/fall
  double t_delay = 200e-12;  // time before the first edge
  double t_width = 500e-12;  // pulse width
  double h_max = 10e-12;     // transient step cap
  // Solver-core selection for the measurement transients (backend,
  // bypass tolerance, ...); defaults pick the sparse core for every cell.
  spice::NewtonOptions newton;
  cells::ParasiticSpec parasitics;
  // Mandatory pre-simulation gate: lint the cell topology, the rule-driven
  // layout (KOZ checks), and the generated netlist before spending any
  // transient time on it.  A cell failing the gate comes back with
  // ok == false and no measurements.  Opt out for deliberately ill-formed
  // experiments.
  bool lint = true;
};

// The pin probe: the one measurement behind Fig. 5, the NLDM library and
// the Monte-Carlo statistics.  Pin `pin` of the cell pulses full swing (up
// at t_delay, down at mid = t_delay + t_width, edges t_edge) while the side
// inputs sit at the sensitizing DC levels `side`; one transient runs to
// t_stop = 2 * mid.  The rising input edge is measured over [0, mid] and
// the falling one over [mid, t_stop].

// Drive a built cell for probing `pin`: side inputs at their sensitizing
// DC levels, the probed pin pulsing low -> high -> low.
void apply_pin_stimulus(cells::CellNetlist& cell, std::size_t pin,
                        const std::vector<bool>& side,
                        const PpaOptions& opts);

// Why a probe lane did or did not measure.  A missing crossing means the
// transient ran but the output never reached the threshold inside its
// half window.
enum class ProbeOutcome {
  kOk,
  kTransientFailed,
  kNoDelayCrossing,  // output never crossed vdd/2 after the input edge
  kNoSlewCrossing,   // output never completed its 10%-90% transition
};
const char* probe_outcome_name(ProbeOutcome outcome);

// What one input edge of a probe lane measured.
struct ProbeEdge {
  std::optional<double> delay;  // s, 50%-to-50% propagation
  std::optional<double> slew;   // s, 10-90% output transition / 0.8
  double energy = 0.0;          // J, VDD-rail energy over the half window
};

// One lane of a probe: one cell build under one model set.
struct PinProbeLane {
  // Default state (never simulated) reads as a failed transient.
  ProbeOutcome outcome = ProbeOutcome::kTransientFailed;
  bool failed_input_rise = false;  // input edge of the first missing crossing
  ProbeEdge rise, fall;            // by input edge
  double power = 0.0;  // W, average VDD-rail power over [0, t_stop]
  cells::MivStats mivs;
};

struct PinProbe {
  std::vector<PinProbeLane> lanes;  // one per model set, same order
  bool lockstep = false;            // the lanes ran lane-packed
};

// Probe `pin` of (type, impl) once per model set in `lanes`, all through
// one spice::corner_transient: several lanes run lockstep, one lane per SIMD
// lane of the batched device kernel; a single lane runs spice::transient.
PinProbe probe_pin(cells::CellType type, cells::Implementation impl,
                   std::size_t pin, const std::vector<bool>& side,
                   const std::vector<cells::ModelSet>& lanes,
                   const PpaOptions& opts);

class PpaEngine {
 public:
  // `exec` controls scheduling and artifact reuse only; measured numbers
  // are identical for any pool size (per-pin results reduce in pin order)
  // and any cache state (keys hash the cards + every physics option).
  PpaEngine(const ModelLibrary& library, PpaOptions opts = {},
            layout::DesignRules rules = {}, runtime::ExecPolicy exec = {});

  // Model set used for an implementation (n-type per variant, p-type
  // always traditional).
  cells::ModelSet model_set(cells::Implementation impl) const;

  CellPpa measure(cells::CellType type, cells::Implementation impl) const;
  // All 14 cells x 4 implementations.
  std::vector<CellPpa> measure_all() const;

  // Pin sensitization: values for the other inputs so the output follows
  // (or inverts) pin `pin_index`.  nullopt if the pin cannot toggle the
  // output (never the case for these cells).
  static std::optional<std::vector<bool>> sensitize(cells::CellType type,
                                                    std::size_t pin_index);
  // Whether the output rises when pin `pin_index` rises under the
  // sensitizing side inputs `side` (it then falls when the pin falls).
  static bool output_rises(cells::CellType type, std::size_t pin_index,
                           const std::vector<bool>& side);

  const layout::DesignRules& rules() const { return layout_.rules(); }

 private:
  CellPpa measure_uncached(cells::CellType type,
                           cells::Implementation impl) const;

  const ModelLibrary& library_;
  PpaOptions opts_;
  layout::LayoutModel layout_;
  runtime::ExecPolicy exec_;
};

// Per-implementation averages across all cells (the summary numbers the
// paper quotes: delay -3 %/-2 %/+2 %, power -0.5 %/-1 %/-2 %, ...).
struct ImplementationSummary {
  cells::Implementation impl = cells::Implementation::k2D;
  double mean_delay = 0.0;
  double mean_power = 0.0;
  double mean_area = 0.0;
  double mean_pdp = 0.0;
};

std::vector<ImplementationSummary> summarize(const std::vector<CellPpa>& all);

}  // namespace mivtx::core
