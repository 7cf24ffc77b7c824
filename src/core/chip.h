// Chip-level extension: lift the cell-level PPA study to small benchmark
// circuits.  This header supplies the measured linear timing model and the
// circuit suite; the timing and two-tier placement run through
// analyze::run_block_ppa over analyze::linear_library(model) (see
// bench/bench_ext_chiplevel.cpp), which implements the paper's future-work
// direction (separate per-tier placement) end to end.
#pragma once

#include <vector>

#include "core/ppa.h"
#include "gatelevel/netlist.h"
#include "gatelevel/sta.h"

namespace mivtx::core {

struct TimingModelOptions {
  // Cell used to measure the per-implementation load-sensitivity slope.
  cells::CellType slope_cell = cells::CellType::kInv1;
  // Second load point for the slope measurement (first is the PPA
  // reference, 1 fF).
  double c_load_alt = 2e-15;
};

// Measure a gate-level timing model from transient simulation: per-cell
// reference delays via PpaEngine, per-implementation load slope from a
// two-point load sweep on `slope_cell`, and per-pin input capacitance from
// the compact model's gate capacitance at mid rail.
// Runs the full 14-cell PPA matrix (~1 min).
gatelevel::TimingModel build_timing_model(const ModelLibrary& library,
                                          const PpaOptions& ppa_opts = {},
                                          const TimingModelOptions& opts = {});

// The benchmark circuit suite used by the chip-level benches.
std::vector<gatelevel::GateNetlist> benchmark_circuits();

}  // namespace mivtx::core
