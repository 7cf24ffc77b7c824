#include "analyze/analyzer.h"

#include <set>

#include "common/strings.h"

namespace mivtx::analyze {

gatelevel::TimingModel default_timing_model() {
  gatelevel::TimingModel model;
  model.c_ref = 1e-15;

  // Base delay per cell (s, at the 1 fF reference load), ordered roughly by
  // stack depth / series-transistor count.
  auto base_delay = [](cells::CellType t) {
    switch (t) {
      case cells::CellType::kInv1: return 12e-12;
      case cells::CellType::kNand2: return 16e-12;
      case cells::CellType::kNor2: return 18e-12;
      case cells::CellType::kAnd2: return 20e-12;
      case cells::CellType::kOr2: return 20e-12;
      case cells::CellType::kNand3: return 20e-12;
      case cells::CellType::kAoi2: return 22e-12;
      case cells::CellType::kOai2: return 22e-12;
      case cells::CellType::kNor3: return 24e-12;
      case cells::CellType::kAnd3: return 24e-12;
      case cells::CellType::kOr3: return 24e-12;
      case cells::CellType::kMux2: return 26e-12;
      case cells::CellType::kXor2: return 28e-12;
      case cells::CellType::kXnor2: return 28e-12;
    }
    return 20e-12;
  };
  // Fig. 5(a) average delay deltas: -3 % / -2 % / +2 % vs 2D.
  auto impl_factor = [](cells::Implementation impl) {
    switch (impl) {
      case cells::Implementation::k2D: return 1.00;
      case cells::Implementation::kMiv1Channel: return 0.97;
      case cells::Implementation::kMiv2Channel: return 0.98;
      case cells::Implementation::kMiv4Channel: return 1.02;
    }
    return 1.0;
  };

  for (const cells::Implementation impl : cells::all_implementations()) {
    model.load_slope[impl] = 8e3 * impl_factor(impl);  // ~8 ps / fF
    for (const cells::CellType type : cells::all_cells()) {
      gatelevel::CellTiming t;
      t.delay_ref = base_delay(type) * impl_factor(impl);
      t.input_cap = 0.12e-15;
      t.slew_ref = 1.5 * t.delay_ref;
      t.slew_slope = 10e3 * impl_factor(impl);  // ~10 ps / fF
      t.slew_sens = 0.12;
      model.cells[impl][type] = t;
    }
  }
  return model;
}

AnalyzeReport analyze_design(const Design& design,
                             const gatelevel::TimingModel& timing,
                             const AnalyzeOptions& options) {
  AnalyzeReport report;
  lint::DiagnosticSink sink;
  sink.set_default_file(design.source);

  if (options.run_electrical) {
    ElectricalRuleOptions elec = options.electrical;
    elec.timing = &timing;
    elec.impl = options.impl;
    analyze_electrical(design, sink, elec);
  }

  // STA and placement need the strict netlist invariants.
  std::optional<gatelevel::GateNetlist> netlist;
  if (options.run_sta || options.place_mode) {
    netlist = to_gate_netlist(design);
    if (!netlist) {
      sink.info("sta-skipped",
                "design violates netlist invariants; timing and placement "
                "passes skipped (see electrical findings)");
    }
  }

  if (options.run_sta && netlist) {
    LibStaOptions lopts;
    lopts.loads = options.sta.loads;
    lopts.clock_period = options.sta.clock_period;
    lopts.worst_paths = options.sta.worst_paths;
    std::optional<charlib::CharLibrary> linear;
    if (options.library != nullptr) {
      if (options.sta.input_slew > 0.0)
        lopts.input_slew = options.sta.input_slew;
    } else {
      // The linear model keeps its own conditions: the configured
      // primary-input slew (0 s by default) and its reference load.
      linear = linear_library(timing);
      lopts.input_slew = options.sta.input_slew;
      lopts.c_ref = timing.c_ref;
    }
    report.libsta = run_library_sta(
        *netlist, linear ? *linear : *options.library, options.impl, lopts);
    for (const MissingTiming& m : report.libsta->missing) {
      sink.error("missing-timing",
                 m.pin.empty()
                     ? format("cell %s has no characterized timing for "
                              "implementation %s",
                              m.cell.c_str(), cells::impl_name(options.impl))
                     : format("cell %s pin %s has no characterized %s arc",
                              m.cell.c_str(), m.pin.c_str(),
                              m.input_rise ? "rise" : "fall"),
                 m.instance);
    }
    if (report.libsta->clamped_lookups > 0) {
      sink.info("table-extrapolation",
                format("%zu table lookups fell outside the characterization "
                       "grid and were clamped to the grid edge",
                       report.libsta->clamped_lookups));
    }
    report.sta = report.libsta->to_slack_result();
    if (options.sta.clock_period > 0.0) {
      std::set<std::string> seen;
      for (const std::string& po : netlist->primary_outputs()) {
        if (!seen.insert(po).second) continue;
        const NetTiming& t = report.sta->nets.at(po);
        if (t.slack < 0.0) {
          sink.error("timing-violation",
                     format("arrival %s > required %s (slack %s)",
                            eng_format(t.arrival, "s").c_str(),
                            eng_format(t.required, "s").c_str(),
                            eng_format(t.slack, "s").c_str()),
                     "", po, 0);
        }
      }
    }
  }

  if (options.place_mode && netlist) {
    const place::Placer placer(options.tier.rules);
    report.placement =
        placer.place(*netlist, options.impl, *options.place_mode);
    analyze_tiers(design, *report.placement, sink, options.tier);
  }

  report.findings = sink.diagnostics();
  report.errors = sink.num_errors();
  report.warnings = sink.num_warnings();
  return report;
}

}  // namespace mivtx::analyze
