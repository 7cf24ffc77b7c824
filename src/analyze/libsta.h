// Static timing analysis: the one arrival propagator over a gate-level
// netlist.  Every arc delay/slew is looked up in an NLDM library (charlib)
// — either a characterized one or `linear_library`'s exact encoding of the
// linear CellTiming model (gatelevel/sta.h).
//
// The pass:
//   * dual-edge propagation — every net carries independent rise and fall
//     arrival/slew/required, and each library arc maps an input edge to
//     its output edge (inverting or non-inverting under the sensitizing
//     side inputs), so chain parity is modeled exactly;
//   * slews come from the out_slew tables and feed the readers' lookups
//     (iteration-free: the netlist is combinational and processed in
//     topological order);
//   * loads come from the library's per-pin input capacitances plus the
//     StaLoadOptions output/extra-net loads;
//   * a required-time backward pass against a clock period (or, with no
//     clock given, against the worst arrival, making the worst slack zero
//     up to rounding), per-net slack and worst-N path enumeration;
//   * out-of-grid lookups are clamped AND counted (clamped_lookups), so
//     the analyzer can surface extrapolation as a `table-extrapolation`
//     diagnostic instead of silently trusting the table edge;
//   * a cell or arc absent from the library is never a crash or a silent
//     fallback: it is recorded in `missing` (the analyzer renders these as
//     `missing-timing` diagnostics) and the affected arc contributes a
//     zero-delay passthrough so the rest of the graph stays analyzable.
//
// Determinism: ties in the worst-arrival reduction break toward the
// lexicographically smallest driving net name, then input-rise before
// input-fall; path listings sort by (slack, arrival descending, endpoint
// name), so reports are byte-stable for a given design and library.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "charlib/library.h"
#include "gatelevel/netlist.h"
#include "gatelevel/sta.h"

namespace mivtx::analyze {

// Options of the analyzer's timing pass (analyzer.h), mapped onto
// LibStaOptions.
struct StaOptions {
  // External loads (per-output overrides, extra net loads); defaults keep
  // the paper's one-reference-load-per-output condition.
  gatelevel::StaLoadOptions loads;
  // Required arrival at every primary output (s).  <= 0 means "relative
  // analysis": the required time is the worst arrival itself.
  double clock_period = 0.0;
  // Transition time at the primary inputs (s).
  double input_slew = 0.0;
  // How many endpoint paths to enumerate, worst slack first.
  std::size_t worst_paths = 5;
};

// Single-edge (worst edge per net) view of a timing result: what the
// analyzer report and renderers consume.
struct NetTiming {
  double arrival = 0.0;   // s
  double required = 0.0;  // s (infinity when no output is reachable)
  double slack = 0.0;     // required - arrival
  double slew = 0.0;      // s, transition of the driving arc
  std::string critical_from;  // driving net of the critical input ("" = PI)
  std::string driver;         // driving instance ("" = primary input)
};

struct PathPoint {
  std::string instance;  // "" for the primary-input start point
  std::string net;
  double arrival = 0.0;
  double slew = 0.0;
};

struct TimingPath {
  std::string endpoint;
  double arrival = 0.0;
  double required = 0.0;
  double slack = 0.0;
  std::vector<PathPoint> points;  // launch -> endpoint
};

struct SlackStaResult {
  std::map<std::string, NetTiming> nets;
  double worst_arrival = 0.0;
  double worst_slack = 0.0;
  std::string worst_endpoint;
  // Worst `worst_paths` endpoint paths, slack ascending.
  std::vector<TimingPath> paths;
};

struct LibStaOptions {
  gatelevel::StaLoadOptions loads;
  // Required arrival at the primary outputs; <= 0 = relative analysis.
  double clock_period = 0.0;
  // Transition at the primary inputs, both edges (s).
  double input_slew = 20e-12;
  std::size_t worst_paths = 5;
  // Reference load a primary output contributes when StaLoadOptions says
  // "use the reference" (the paper's 1 fF measurement condition).
  double c_ref = 1e-15;
};

// One library hole found during the pass.  pin == "" means the whole
// (impl, cell) entry is missing; otherwise the named (pin, input edge) arc.
struct MissingTiming {
  std::string instance;
  std::string cell;
  std::string pin;
  bool input_rise = true;
};

struct EdgeTiming {
  double arrival = 0.0;   // s; -inf when this edge never arrives
  double slew = 0.0;      // s, equivalent full-swing ramp
  double required = 0.0;  // s; +inf when unconstrained
  // s; required - arrival, carried backward arc by arc so that exactly
  // tied critical paths read exactly 0; +inf when unconstrained.
  double slack = 0.0;
  std::string critical_from;    // driving net of the winning arc ("" = PI)
  bool critical_from_rise = true;  // input edge of the winning arc
  bool valid() const;  // arrival is finite
};

struct LibNetTiming {
  EdgeTiming rise, fall;
  std::string driver;  // driving instance ("" = primary input)
  double slack = 0.0;  // min over valid edges; +inf when none constrained
  const EdgeTiming& edge(bool rise_edge) const {
    return rise_edge ? rise : fall;
  }
};

struct LibStaResult {
  std::map<std::string, LibNetTiming> nets;
  double worst_arrival = 0.0;
  double worst_slack = 0.0;
  std::string worst_endpoint;
  bool worst_endpoint_rise = true;
  // Worst `worst_paths` endpoint paths (per-edge critical walk).
  std::vector<TimingPath> paths;
  // Lookups that fell outside the characterization grid (clamped).
  std::size_t clamped_lookups = 0;
  // Library holes, in deterministic (topological instance, pin) order.
  std::vector<MissingTiming> missing;
  // Sum over gates of the mean per-arc switching energy at the propagated
  // (slew, load) point (J): one full toggle of every gate.  blockppa's
  // power numerator.
  double switching_energy = 0.0;

  // Collapse to the single-edge vocabulary (worst edge per net) for the
  // analyzer report and renderers.
  SlackStaResult to_slack_result() const;
};

LibStaResult run_library_sta(const gatelevel::GateNetlist& netlist,
                             const charlib::CharLibrary& library,
                             cells::Implementation impl,
                             const LibStaOptions& options = {});

// The linear CellTiming model as a library run_library_sta evaluates
// exactly.  Every (impl, cell, pin, input edge) gets a non-inverting arc
// (output edge = input edge) whose 2x2 tables span the axes {0, 1} s x
// {0, 1} F and hold
//   delay    = delay_ref + slope * (C - c_ref) + slew_sens * slew
//   out_slew = slew_ref + slew_slope * (C - c_ref)
// at the corners.  The model is affine in (slew, load), so bilinear lookup
// reproduces it (to rounding) anywhere inside the hull, which no physical
// slew or load leaves.  Pin caps are `input_cap`; energy and area are 0.
// An implementation without a load slope contributes no cells, so its
// instances surface as missing timing.  Run it with LibStaOptions::c_ref
// = model.c_ref so primary outputs see the model's reference load.
charlib::CharLibrary linear_library(const gatelevel::TimingModel& model);

}  // namespace mivtx::analyze
