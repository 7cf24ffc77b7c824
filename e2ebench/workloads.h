// The four benchmark workloads.  Each drives the program only through its
// public entry points, times those calls itself and reads the counters
// the program already publishes in runtime::Metrics::global().
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "verify/golden.h"

namespace e2e {

// Paper chain from an empty cache: 8-device TCAD + extraction flow, the
// 56-case Fig. 5 sweep on the extracted cards, mini-grid charlib for
// rca16's cells and rca16 block PPA.  Checked against table3 + fig4.
Report run_chain_cold(const Options& opt);

// Library build from the reference cards: Fig. 5 sweep, default-grid NLDM
// characterization of all 56 units one at a time, mini-grid charlib +
// block PPA of rca16 and alu4, a 16-sample lane-packed variability run.
// Checked against fig5 + blockppa.
Report run_cell_library(const Options& opt);

// Block-scale inputs: block PPA and analysis of a seeded ~20k-gate random
// block and alu64, Krylov-tier power-grid dcops, a direct-solver adder
// array dcop and a ring-oscillator transient.  Output digest must repeat.
Report run_block_scale(const Options& opt);

// One mivtx_serve daemon under a closed loop of 4 connections sending a
// seeded skewed ppa/charlib/health mix.  Sampled payloads must be
// byte-identical to local PpaEngine / Characterizer output.
Report run_serve_mixed(const Options& opt);

// Golden baselines by suite name, read from tests/golden/<suite>.json
// under the checkout root; throws mivtx::Error when one is absent.
using Baselines = std::vector<std::pair<std::string, std::string>>;
Baselines read_baselines(const Options& opt, const std::vector<std::string>& suites);

// Recomputes each suite from `ctx` (whose cache the workload already
// filled) and records one check per suite against its baseline.  A check
// that had to recompute a cached artifact is a mismatch too.
void check_golden_suites(Report& r, mivtx::verify::GoldenContext& ctx,
                         const Baselines& baselines);

}  // namespace e2e
