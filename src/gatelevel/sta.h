// Linear gate-level timing model and the STA load configuration.
//
// The timing model is built from PPA measurements
// (core::build_timing_model) or synthesized (analyze::default_timing_model):
// each (cell, impl) gets its nominal delay at the reference 1 fF load, an
// implementation-level load-sensitivity slope (s/F), and a per-pin input
// capacitance estimated from the compact model's gate charge.  An arc's
// delay is
//   d0 + slope * (C_fanout - C_ref) + slew_sens * input_slew
// where C_fanout sums the input capacitances of the driven pins (primary
// outputs count as one reference load each).  The STA itself is
// analyze::run_library_sta over analyze::linear_library(model); the
// liberty export and the electrical max-load-cap rule read the model
// directly.
#pragma once

#include <map>
#include <string>

#include "cells/netgen.h"

namespace mivtx::gatelevel {

struct CellTiming {
  double delay_ref = 0.0;  // s, at the reference load
  double input_cap = 0.0;  // F, per input pin (average)
  // Slew model; the zero defaults degrade gracefully to the pure delay
  // model above.
  double slew_ref = 0.0;    // s, output transition at the reference load
  double slew_slope = 0.0;  // s/F, transition sensitivity to extra load
  double slew_sens = 0.0;   // extra delay per second of input transition
};

class TimingModel {
 public:
  // Reference load the delays were measured at (the paper's 1 fF).
  double c_ref = 1e-15;
  // Delay sensitivity to extra load (s/F), per implementation.
  std::map<cells::Implementation, double> load_slope;
  // Per (impl, cell) timing data.
  std::map<cells::Implementation, std::map<cells::CellType, CellTiming>>
      cells;

  const CellTiming& timing(cells::Implementation impl,
                           cells::CellType type) const;
  double slope(cells::Implementation impl) const;
};

// External load configuration.  The original model hardcoded one reference
// load per primary output (the paper's 1 fF measurement condition); these
// options keep that default but allow per-output loads and extra lumped
// capacitance on internal nets (wire load, probe caps).
struct StaLoadOptions {
  // Load on each primary output not listed in `output_load`.
  // Negative = use the timing model's reference load c_ref.
  double default_output_load = -1.0;
  // Per-primary-output load overrides (F).
  std::map<std::string, double> output_load;
  // Additional lumped capacitance per net (F), applied on top of the pin
  // and output loads (any net, not just outputs).
  std::map<std::string, double> extra_net_load;

  // Effective load a primary output contributes.
  double load_for_output(const std::string& net, double c_ref) const;
};

}  // namespace mivtx::gatelevel
