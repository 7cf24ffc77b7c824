// End-to-end single-device walkthrough of the paper's methodology on the
// INV1X1 cell: TCAD characterization -> staged Level-70 extraction ->
// netlist construction -> transient waveforms.
//
// This is the Fig. 3 flow on one device, with the intermediate artifacts
// printed so each hand-off is visible.  Runs fresh TCAD (~8 s).
#include <cstdio>

#include "cells/netgen.h"
#include "common/log.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "spice/transient.h"
#include "waveform/measure.h"

using namespace mivtx;

int main() {
  set_log_level(LogLevel::kError);
  const core::ProcessParams proc;
  const extract::SweepGrid grid;

  // --- TCAD characterization (the "measurement") ---------------------------
  std::printf("== 1. TCAD characterization: 1-channel MIV-transistor ==\n");
  const extract::CharacteristicSet n_data = core::characterize_device(
      proc, core::Variant::kMiv1Channel, core::Polarity::kNmos, grid);
  std::printf("   idvg(low/high), %zu-curve idvd family, cv: done\n",
              n_data.idvd.size());

  // --- Staged extraction ----------------------------------------------------
  std::printf("\n== 2. Staged Level-70 extraction (Fig. 3) ==\n");
  const extract::ExtractionReport n_rep = extract::extract_card(
      n_data,
      core::initial_card(proc, core::Variant::kMiv1Channel,
                         core::Polarity::kNmos));
  TextTable st({"stage", "error before", "error after"});
  for (const auto& s : n_rep.stages)
    st.add_row({s.name, format("%.4f", s.error_before),
                format("%.4f", s.error_after)});
  st.print();
  std::printf("region errors: IDVG %.1f%%  IDVD %.1f%%  CV %.1f%%\n",
              100 * n_rep.errors.idvg, 100 * n_rep.errors.idvd,
              100 * n_rep.errors.cv);

  // --- Cell netlist ---------------------------------------------------------
  std::printf("\n== 3. INV1X1 netlist (1-channel implementation) ==\n");
  cells::ModelSet models;
  models.nmos = n_rep.card;
  models.pmos = core::reference_model_library().card(
      core::Variant::kTraditional, core::Polarity::kPmos);
  cells::CellNetlist cell =
      cells::build_cell(cells::CellType::kInv1,
                        cells::Implementation::kMiv1Channel, models,
                        cells::ParasiticSpec{}, proc.vdd);
  std::printf("%s", cells::to_netlist_text(cell).c_str());

  // --- Transient -------------------------------------------------------------
  std::printf("\n== 4. Transient: pulse on A, waveforms at the output ==\n");
  core::PpaOptions probe;  // 20 ps edges, 200 ps delay, 500 ps width
  probe.vdd = proc.vdd;
  core::apply_pin_stimulus(cell, 0, {false}, probe);
  spice::TransientOptions topt;
  topt.t_stop = 1.4e-9;
  topt.h_max = 10e-12;
  const spice::TransientResult tr = spice::transient(cell.circuit, topt);
  if (!tr.ok) {
    std::printf("transient failed: %s\n", tr.error.c_str());
    return 1;
  }
  TextTable w({"t (ps)", "V(A) (V)", "V(out) (V)", "I(VDD) (uA)"});
  for (double t = 0.0; t <= 1.4e-9 + 1e-15; t += 1e-10) {
    w.add_row({format("%.0f", t * 1e12),
               format("%.3f", tr.v("a_in").sample(t)),
               format("%.3f", tr.v(cell.output_node).sample(t)),
               format("%+.2f", tr.i("VDD").sample(t) * 1e6)});
  }
  w.print();

  const auto tphl = waveform::propagation_delay(
      tr.v("a_in"), tr.v(cell.output_node), proc.vdd / 2, proc.vdd / 2, 0.0,
      waveform::EdgeKind::kRise, waveform::EdgeKind::kFall);
  const auto tplh = waveform::propagation_delay(
      tr.v("a_in"), tr.v(cell.output_node), proc.vdd / 2, proc.vdd / 2,
      7e-10, waveform::EdgeKind::kFall, waveform::EdgeKind::kRise);
  std::printf("\ntpHL = %s, tpLH = %s, avg VDD power = %s\n",
              eng_format(tphl.value_or(0), "s").c_str(),
              eng_format(tplh.value_or(0), "s").c_str(),
              eng_format(-proc.vdd * tr.i("VDD").average(0, topt.t_stop), "W")
                  .c_str());
  return 0;
}
