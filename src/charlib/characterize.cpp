#include "charlib/characterize.h"

#include <cmath>

#include "bsimsoi/model.h"
#include "cells/topology.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/artifacts.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "trace/trace.h"

namespace mivtx::charlib {

namespace {

// Bump when the characterization procedure or the .mlib payload changes
// shape: stale cache entries then stop matching.
constexpr int kCharlibSchemaVersion = 1;

}  // namespace

CharGrid default_char_grid() {
  return CharGrid{{4e-12, 20e-12, 100e-12}, {0.1e-15, 1e-15, 8e-15}};
}

CharGrid mini_char_grid() {
  return CharGrid{{10e-12, 80e-12}, {0.2e-15, 4e-15}};
}

Characterizer::Characterizer(const core::ModelLibrary& library,
                             CharOptions opts, layout::DesignRules rules,
                             runtime::ExecPolicy exec)
    : library_(library), opts_(std::move(opts)), layout_(rules), exec_(exec) {
  if (opts_.grid.slews.empty() || opts_.grid.loads.empty())
    opts_.grid = default_char_grid();
  // Validate the axes up front (Table2D enforces the same invariants).
  Table2D probe(opts_.grid.slews, opts_.grid.loads);
}

runtime::CacheKey Characterizer::cell_key(cells::CellType type,
                                          cells::Implementation impl) const {
  core::PpaEngine engine(library_, opts_.ppa);
  const cells::ModelSet models = engine.model_set(impl);
  StableHash h;
  h.mix("charlib-cell");
  h.mix(core::kArtifactSchemaVersion).mix(kCharlibSchemaVersion);
  h.mix(models.nmos.to_model_line()).mix(models.pmos.to_model_line());
  h.mix(cells::cell_name(type)).mix(impl_tag(impl));
  h.mix(opts_.grid.slews.size());
  for (const double s : opts_.grid.slews) h.mix(s);
  h.mix(opts_.grid.loads.size());
  for (const double l : opts_.grid.loads) h.mix(l);
  // Physics options.  t_edge and parasitics.c_load are deliberately
  // excluded: the grid overrides them at every point.
  const core::PpaOptions& o = opts_.ppa;
  h.mix(o.vdd).mix(o.t_delay).mix(o.t_width).mix(o.h_max);
  h.mix(o.parasitics.r_miv).mix(o.parasitics.r_wire);
  h.mix(o.parasitics.r_rail).mix(o.parasitics.r_extra_sd_4ch);
  h.mix(o.parasitics.c_miv_external);
  h.mix(static_cast<int>(o.newton.backend));
  h.mix(static_cast<int>(o.newton.sparse_min_unknowns));
  h.mix(o.newton.bypass_vtol);
  const layout::DesignRules& r = layout_.rules();
  h.mix(r.gate_length).mix(r.spacer).mix(r.sd_length).mix(r.device_width);
  h.mix(r.m1_width).mix(r.m1_space).mix(r.via_size).mix(r.miv_size);
  h.mix(r.miv_liner).mix(r.rail_track).mix(r.cell_margin);
  h.mix(r.miv_keepout_overlap);
  return runtime::CacheKey{"charlib", h.digest()};
}

CellChar Characterizer::characterize_uncached(
    cells::CellType type, cells::Implementation impl) const {
  trace::Span span("charlib.cell", "charlib",
                   (std::string(cells::cell_name(type)) + "/" +
                    impl_tag(impl))
                       .c_str());
  CellChar out;
  out.type = type;
  out.area = layout_.layout_cell(type, impl).cell_area();

  core::PpaEngine engine(library_, opts_.ppa);
  const cells::ModelSet models = engine.model_set(impl);
  const auto input_names = cells::cell_input_names(type);
  const double vdd = opts_.ppa.vdd;
  const double half = 0.5 * vdd;

  // Per-pin input capacitance: gate charge sensitivity at mid rail of
  // every device the pin gates (core::build_timing_model's estimate,
  // refined per pin from the topology's actual gate counts).
  const cells::CellTopology& topo = cells::cell_topology(type);
  const double cn =
      bsimsoi::eval(models.nmos, half, half, 0.0).dqg[bsimsoi::kDvG];
  const double cp =
      bsimsoi::eval(models.pmos, -half, -half, 0.0).dqg[bsimsoi::kDvG];
  for (const std::string& pin : input_names) {
    double cap = 0.0;
    for (const cells::MosInstance& fet : topo.fets)
      if (fet.gate == pin) cap += fet.pmos ? cp : cn;
    out.input_cap.emplace_back(pin, cap);
  }

  const std::vector<double>& slews = opts_.grid.slews;
  const std::vector<double>& loads = opts_.grid.loads;
  const std::size_t points = slews.size() * loads.size();

  for (std::size_t pin = 0; pin < input_names.size(); ++pin) {
    const auto side = core::PpaEngine::sensitize(type, pin);
    MIVTX_EXPECT(side.has_value(),
                 std::string("charlib: pin cannot be sensitized: ") +
                     cells::cell_name(type) + "/" + input_names[pin]);

    // All grid points of this pin fan out; the tables fill in point order
    // afterwards so results are identical for any pool size.
    const std::vector<core::PinProbeLane> measured =
        runtime::parallel_map<core::PinProbeLane>(
            exec_.pool, points, [&](std::size_t flat) {
              core::PpaOptions popt = opts_.ppa;
              popt.t_edge = slews[flat / loads.size()];
              popt.parasitics.c_load = loads[flat % loads.size()];
              runtime::Metrics::global().add("charlib.transients");
              return std::move(
                  core::probe_pin(type, impl, pin, *side, {models}, popt)
                      .lanes.front());
            });

    ArcTables rise, fall;
    rise.pin = fall.pin = input_names[pin];
    rise.input_rise = true;
    rise.output_rise = core::PpaEngine::output_rises(type, pin, *side);
    fall.input_rise = false;
    fall.output_rise = !rise.output_rise;
    for (ArcTables* arc : {&rise, &fall}) {
      arc->delay = Table2D(slews, loads);
      arc->out_slew = Table2D(slews, loads);
      arc->energy = Table2D(slews, loads);
    }
    for (std::size_t flat = 0; flat < points; ++flat) {
      const core::PinProbeLane& m = measured[flat];
      const std::size_t si = flat / loads.size();
      const std::size_t li = flat % loads.size();
      const char* edge = m.outcome == core::ProbeOutcome::kTransientFailed
                             ? ""
                             : m.failed_input_rise ? " (rising input edge)"
                                                   : " (falling input edge)";
      MIVTX_EXPECT(m.outcome == core::ProbeOutcome::kOk,
                   format("charlib: %s/%s pin %s at slew %g s, load %g F: "
                          "%s%s",
                          cells::cell_name(type), impl_tag(impl),
                          input_names[pin].c_str(), slews[si], loads[li],
                          core::probe_outcome_name(m.outcome), edge));
      for (const bool r : {true, false}) {
        ArcTables& arc = r ? rise : fall;
        const core::ProbeEdge& e = r ? m.rise : m.fall;
        arc.delay.set(si, li, *e.delay);
        arc.out_slew.set(si, li, *e.slew);
        arc.energy.set(si, li, e.energy);
      }
    }
    out.arcs.push_back(std::move(rise));
    out.arcs.push_back(std::move(fall));
  }
  return out;
}

CellChar Characterizer::characterize_cell(cells::CellType type,
                                          cells::Implementation impl) const {
  runtime::Metrics& metrics = runtime::Metrics::global();
  if (exec_.cache != nullptr) {
    const runtime::CacheKey key = cell_key(type, impl);
    if (const auto hit = exec_.cache->get(key)) {
      try {
        CharLibrary one = CharLibrary::from_text(*hit);
        const CellChar* entry = one.find(impl, type);
        MIVTX_EXPECT(entry != nullptr && one.slew_axis == opts_.grid.slews &&
                         one.load_axis == opts_.grid.loads,
                     "cached charlib entry does not match the request");
        metrics.add("charlib.cache_hit");
        return *entry;
      } catch (const Error& e) {
        MIVTX_WARN << "discarding unreadable cached charlib entry for "
                   << cells::cell_name(type) << "/" << impl_tag(impl) << ": "
                   << e.what();
      }
    }
    CellChar result = characterize_uncached(type, impl);
    metrics.add("charlib.computed");
    CharLibrary one;
    one.slew_axis = opts_.grid.slews;
    one.load_axis = opts_.grid.loads;
    one.insert(impl, result);
    exec_.cache->put(key, one.to_text());
    return result;
  }
  CellChar result = characterize_uncached(type, impl);
  metrics.add("charlib.computed");
  return result;
}

CharLibrary Characterizer::characterize(
    const std::vector<std::pair<cells::CellType, cells::Implementation>>&
        jobs) const {
  trace::Span span("charlib.characterize", "charlib");
  CharLibrary lib;
  lib.slew_axis = opts_.grid.slews;
  lib.load_axis = opts_.grid.loads;
  // (cell, impl) entries are independent; the nested per-point fan-out
  // shares the pool (TaskGroup::wait helps, so this cannot deadlock).
  const std::vector<CellChar> entries = runtime::parallel_map<CellChar>(
      exec_.pool, jobs.size(), [&](std::size_t i) {
        return characterize_cell(jobs[i].first, jobs[i].second);
      });
  for (std::size_t i = 0; i < jobs.size(); ++i)
    lib.insert(jobs[i].second, entries[i]);
  return lib;
}

CharLibrary Characterizer::characterize_all() const {
  std::vector<std::pair<cells::CellType, cells::Implementation>> jobs;
  for (const cells::CellType type : cells::all_cells())
    for (const cells::Implementation impl : cells::all_implementations())
      jobs.emplace_back(type, impl);
  return characterize(jobs);
}

}  // namespace mivtx::charlib
