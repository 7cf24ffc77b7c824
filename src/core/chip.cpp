#include "core/chip.h"

#include "bsimsoi/model.h"
#include "common/error.h"
#include "common/log.h"

namespace mivtx::core {

gatelevel::TimingModel build_timing_model(const ModelLibrary& library,
                                          const PpaOptions& ppa_opts,
                                          const TimingModelOptions& opts) {
  gatelevel::TimingModel model;
  model.c_ref = ppa_opts.parasitics.c_load;

  PpaEngine engine(library, ppa_opts);
  for (cells::Implementation impl : cells::all_implementations()) {
    // Input capacitance: average gate capacitance of one n-type plus one
    // p-type device at mid rail (every cell pin drives one of each).
    const cells::ModelSet set = engine.model_set(impl);
    const double half = 0.5 * ppa_opts.vdd;
    const double cin =
        bsimsoi::eval(set.nmos, half, half, 0.0).dqg[bsimsoi::kDvG] +
        bsimsoi::eval(set.pmos, -half, -half, 0.0).dqg[bsimsoi::kDvG];

    for (cells::CellType type : cells::all_cells()) {
      const CellPpa ppa = engine.measure(type, impl);
      MIVTX_EXPECT(ppa.ok, std::string("PPA failed for ") +
                               cells::cell_name(type));
      model.cells[impl][type] =
          gatelevel::CellTiming{ppa.delay, cin};
    }

    // Load slope from a second load point on the slope cell.
    PpaOptions alt = ppa_opts;
    alt.parasitics.c_load = opts.c_load_alt;
    PpaEngine alt_engine(library, alt);
    const CellPpa base = engine.measure(opts.slope_cell, impl);
    const CellPpa heavy = alt_engine.measure(opts.slope_cell, impl);
    MIVTX_EXPECT(base.ok && heavy.ok, "slope measurement failed");
    model.load_slope[impl] = (heavy.delay - base.delay) /
                             (opts.c_load_alt - ppa_opts.parasitics.c_load);
  }
  return model;
}

std::vector<gatelevel::GateNetlist> benchmark_circuits() {
  std::vector<gatelevel::GateNetlist> out;
  out.push_back(gatelevel::ripple_carry_adder(8));
  out.push_back(gatelevel::decoder(4));
  out.push_back(gatelevel::parity_tree(16));
  out.push_back(gatelevel::mux_tree(8));
  out.push_back(gatelevel::aoi_block());
  return out;
}

}  // namespace mivtx::core
