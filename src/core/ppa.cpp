#include "core/ppa.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/artifacts.h"
#include "lint/cell_rules.h"
#include "lint/circuit_rules.h"
#include "runtime/artifact_cache.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "spice/corner.h"
#include "spice/transient.h"
#include "trace/trace.h"
#include "waveform/measure.h"

namespace mivtx::core {

namespace {

Variant variant_of(cells::Implementation impl) {
  switch (impl) {
    case cells::Implementation::k2D: return Variant::kTraditional;
    case cells::Implementation::kMiv1Channel: return Variant::kMiv1Channel;
    case cells::Implementation::kMiv2Channel: return Variant::kMiv2Channel;
    case cells::Implementation::kMiv4Channel: return Variant::kMiv4Channel;
  }
  return Variant::kTraditional;
}

}  // namespace

PpaEngine::PpaEngine(const ModelLibrary& library, PpaOptions opts,
                     layout::DesignRules rules, runtime::ExecPolicy exec)
    : library_(library), opts_(opts), layout_(rules), exec_(exec) {}

cells::ModelSet PpaEngine::model_set(cells::Implementation impl) const {
  cells::ModelSet set;
  set.nmos = library_.card(variant_of(impl), Polarity::kNmos);
  // The bottom tier is always the traditional 2D FDSOI p-type device.
  set.pmos = library_.card(Variant::kTraditional, Polarity::kPmos);
  return set;
}

std::optional<std::vector<bool>> PpaEngine::sensitize(cells::CellType type,
                                                      std::size_t pin_index) {
  const std::size_t n = cells::cell_num_inputs(type);
  MIVTX_EXPECT(pin_index < n, "pin index out of range");
  const std::size_t combos = std::size_t{1} << (n - 1);
  for (std::size_t mask = 0; mask < combos; ++mask) {
    std::vector<bool> in(n, false);
    std::size_t bit = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == pin_index) continue;
      in[i] = (mask >> bit) & 1u;
      ++bit;
    }
    in[pin_index] = false;
    const bool f0 = cells::cell_logic(type, in);
    in[pin_index] = true;
    const bool f1 = cells::cell_logic(type, in);
    if (f0 != f1) {
      in[pin_index] = false;  // return the side values; pin value unused
      return in;
    }
  }
  return std::nullopt;
}

bool PpaEngine::output_rises(cells::CellType type, std::size_t pin_index,
                             const std::vector<bool>& side) {
  std::vector<bool> in = side;
  in[pin_index] = true;
  return cells::cell_logic(type, in);
}

namespace {

// Total simulated time of one pin probe (pulse up, pulse down, recovery).
double pin_probe_t_stop(const PpaOptions& opts) {
  return opts.t_delay + opts.t_width + opts.t_delay + opts.t_width;
}

// Read every probe quantity off one lane's transient.  `out_rise` is the
// output edge the rising input edge causes under the side inputs.
void measure_pin_waveforms(const spice::TransientResult& tr,
                           const cells::CellNetlist& cell,
                           const std::string& pin_name, bool out_rise,
                           const PpaOptions& opts, PinProbeLane& lane) {
  using waveform::EdgeKind;
  // Circuit node names are case-normalized to lower case.
  const auto& v_in = tr.v(to_lower(pin_name) + "_in");
  const auto& v_out = tr.v(cell.output_node);
  const auto& i_vdd = tr.i(cell.vdd_source);
  const double half = 0.5 * opts.vdd;
  const double mid = opts.t_delay + opts.t_width;
  const double t_stop = pin_probe_t_stop(opts);

  lane.rise.delay = waveform::propagation_delay(
      v_in, v_out, half, half, 0.0, EdgeKind::kRise, EdgeKind::kAny);
  lane.fall.delay = waveform::propagation_delay(
      v_in, v_out, half, half, mid, EdgeKind::kFall, EdgeKind::kAny);
  // Output slew as the equivalent full-swing ramp of its 10-90% transition.
  const auto rise_t = waveform::transition_time(
      v_out, 0.0, opts.vdd, 0.0, out_rise ? EdgeKind::kRise : EdgeKind::kFall);
  const auto fall_t = waveform::transition_time(
      v_out, 0.0, opts.vdd, mid, out_rise ? EdgeKind::kFall : EdgeKind::kRise);
  if (rise_t) lane.rise.slew = *rise_t / 0.8;
  if (fall_t) lane.fall.slew = *fall_t / 0.8;

  // The VDD source's branch current reads + -> - through the source
  // (negative while delivering); energy and power want the delivered
  // direction.
  lane.rise.energy = -waveform::supply_energy(i_vdd, opts.vdd, 0.0, mid);
  lane.fall.energy = -waveform::supply_energy(i_vdd, opts.vdd, mid, t_stop);
  lane.power = -opts.vdd * i_vdd.average(0.0, t_stop);

  lane.outcome = ProbeOutcome::kOk;
  if (!lane.rise.delay || !lane.fall.delay) {
    lane.outcome = ProbeOutcome::kNoDelayCrossing;
    lane.failed_input_rise = !lane.rise.delay;
  } else if (!lane.rise.slew || !lane.fall.slew) {
    lane.outcome = ProbeOutcome::kNoSlewCrossing;
    lane.failed_input_rise = !lane.rise.slew;
  }
}

}  // namespace

void apply_pin_stimulus(cells::CellNetlist& cell, std::size_t pin,
                        const std::vector<bool>& side,
                        const PpaOptions& opts) {
  for (std::size_t i = 0; i < cell.input_sources.size(); ++i) {
    spice::Element& src = cell.circuit.element(cell.input_sources[i]);
    if (i == pin) {
      spice::PulseSpec p;
      p.v1 = 0.0;
      p.v2 = opts.vdd;
      p.delay = opts.t_delay;
      p.rise = opts.t_edge;
      p.fall = opts.t_edge;
      p.width = opts.t_width;
      src.source = spice::SourceSpec::Pulse(p);
    } else {
      src.source = spice::SourceSpec::DC(side[i] ? opts.vdd : 0.0);
    }
  }
}

const char* probe_outcome_name(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kOk: return "ok";
    case ProbeOutcome::kTransientFailed: return "transient_failed";
    case ProbeOutcome::kNoDelayCrossing: return "no_delay_crossing";
    case ProbeOutcome::kNoSlewCrossing: return "no_slew_crossing";
  }
  return "?";
}

PinProbe probe_pin(cells::CellType type, cells::Implementation impl,
                   std::size_t pin, const std::vector<bool>& side,
                   const std::vector<cells::ModelSet>& lanes,
                   const PpaOptions& opts) {
  MIVTX_EXPECT(!lanes.empty(), "probe_pin: no model sets");
  const std::string pin_name = cells::cell_input_names(type)[pin];
  const bool out_rise = PpaEngine::output_rises(type, pin, side);

  std::vector<cells::CellNetlist> built;
  built.reserve(lanes.size());
  std::vector<const spice::Circuit*> circuits;
  circuits.reserve(lanes.size());
  for (const cells::ModelSet& models : lanes) {
    built.push_back(
        cells::build_cell(type, impl, models, opts.parasitics, opts.vdd));
    apply_pin_stimulus(built.back(), pin, side, opts);
    circuits.push_back(&built.back().circuit);
  }

  spice::TransientOptions topt;
  topt.t_stop = pin_probe_t_stop(opts);
  topt.h_max = opts.h_max;
  topt.newton = opts.newton;
  // One lane is never packable, so corner_transient runs it through
  // spice::transient exactly as a direct call would.
  const spice::CornerTransientResult group =
      spice::corner_transient(circuits, topt);
  PinProbe probe;
  probe.lockstep = group.lockstep;
  probe.lanes.resize(lanes.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    PinProbeLane& lane = probe.lanes[k];
    lane.mivs = built[k].mivs;
    const spice::TransientResult& tr = group.lanes[k];
    if (!tr.ok) {
      std::string lane_tag;
      if (lanes.size() > 1) lane_tag.append(" lane ").append(std::to_string(k));
      MIVTX_WARN << cells::cell_name(type) << "/" << cells::impl_name(impl)
                 << " pin " << pin_name << lane_tag
                 << ": transient failed: " << tr.error;
      continue;  // outcome stays kTransientFailed
    }
    measure_pin_waveforms(tr, built[k], pin_name, out_rise, opts, lane);
  }
  return probe;
}

CellPpa PpaEngine::measure_uncached(cells::CellType type,
                                    cells::Implementation impl) const {
  trace::Span span("ppa.cell", "ppa",
                   (std::string(cells::cell_name(type)) + "/" +
                    cells::impl_name(impl))
                       .c_str());
  runtime::ScopedTimer timer("ppa.measure");
  CellPpa result;
  result.type = type;
  result.impl = impl;
  const layout::CellLayout cell_layout = layout_.layout_cell(type, impl);
  result.area = cell_layout.cell_area();

  const cells::ModelSet models = model_set(impl);
  const auto input_names = cells::cell_input_names(type);

  // Pre-simulation gate: a floating gate, a KOZ violation or a singular
  // netlist must fail loudly here, not corrupt the Fig. 5 averages with a
  // quietly-diverged transient.
  if (opts_.lint) {
    lint::DiagnosticSink sink;
    lint::lint_topology(cells::cell_topology(type), sink);
    lint::lint_layout(cell_layout, layout_.rules(), sink);
    const cells::CellNetlist probe =
        cells::build_cell(type, impl, models, opts_.parasitics, opts_.vdd);
    lint::lint_circuit(probe.circuit, sink);
    if (sink.has_errors()) {
      MIVTX_WARN << cells::cell_name(type) << "/" << cells::impl_name(impl)
                 << " rejected by lint gate:\n"
                 << sink.render_text();
      return result;  // ok == false
    }
  }

  // Pin sensitizations (serial: cheap truth-table walk, deterministic
  // warnings), then the expensive transients fan out per pin.
  std::vector<std::optional<std::vector<bool>>> sides(input_names.size());
  for (std::size_t pin = 0; pin < input_names.size(); ++pin) {
    sides[pin] = sensitize(type, pin);
    if (!sides[pin]) {
      MIVTX_WARN << cells::cell_name(type) << ": pin " << input_names[pin]
                 << " cannot be sensitized";
    }
  }

  const std::vector<PinProbeLane> probes =
      runtime::parallel_map<PinProbeLane>(
          exec_.pool, input_names.size(), [&](std::size_t pin) {
            if (!sides[pin]) return PinProbeLane{};  // never simulated
            trace::Span span("ppa.pin", "ppa", input_names[pin].c_str());
            runtime::Metrics::global().add("ppa.transients");
            return std::move(
                probe_pin(type, impl, pin, *sides[pin], {models}, opts_)
                    .lanes.front());
          });

  // Ordered reduction: accumulate in pin order exactly as the serial loop
  // did, so delay/power averages are bit-identical for any pool size.
  // Power counts every simulated pin; delay only the edges that crossed.
  double delay_sum = 0.0;
  std::size_t delay_count = 0;
  double power_sum = 0.0;
  std::size_t power_count = 0;
  for (std::size_t pin = 0; pin < probes.size(); ++pin) {
    const PinProbeLane& probe = probes[pin];
    if (probe.outcome == ProbeOutcome::kTransientFailed) continue;
    result.mivs = probe.mivs;
    for (const bool rise : {true, false}) {
      const std::optional<double>& d = (rise ? probe.rise : probe.fall).delay;
      if (!d) continue;
      delay_sum += *d;
      ++delay_count;
      result.arcs.push_back(ArcMeasurement{input_names[pin], rise, *d});
    }
    power_sum += probe.power;
    ++power_count;
  }

  if (delay_count > 0 && power_count > 0) {
    result.ok = true;
    result.delay = delay_sum / static_cast<double>(delay_count);
    result.power = power_sum / static_cast<double>(power_count);
    result.pdp = result.delay * result.power;
  }
  return result;
}

CellPpa PpaEngine::measure(cells::CellType type,
                           cells::Implementation impl) const {
  runtime::Metrics& metrics = runtime::Metrics::global();
  if (exec_.cache != nullptr) {
    const runtime::CacheKey key =
        ppa_key(model_set(impl), type, impl, opts_, layout_.rules());
    if (const auto hit = exec_.cache->get(key)) {
      try {
        CellPpa cached = parse_cell_ppa(*hit);
        metrics.add("ppa.cache_hit");
        return cached;
      } catch (const Error& e) {
        MIVTX_WARN << "discarding unreadable cached PPA for "
                   << cells::cell_name(type) << "/" << cells::impl_name(impl)
                   << ": " << e.what();
      }
    }
    CellPpa result = measure_uncached(type, impl);
    metrics.add("ppa.computed");
    exec_.cache->put(key, serialize_cell_ppa(result));
    return result;
  }
  CellPpa result = measure_uncached(type, impl);
  metrics.add("ppa.computed");
  return result;
}

std::vector<CellPpa> PpaEngine::measure_all() const {
  trace::Span span("ppa.measure_all", "ppa");
  std::vector<std::pair<cells::CellType, cells::Implementation>> order;
  for (cells::CellType type : cells::all_cells()) {
    for (cells::Implementation impl : cells::all_implementations()) {
      order.emplace_back(type, impl);
    }
  }
  // (cell, implementation) pairs are independent; nested per-pin fan-out
  // shares the same pool (TaskGroup::wait helps, so this cannot deadlock).
  return runtime::parallel_map<CellPpa>(
      exec_.pool, order.size(), [&](std::size_t i) {
        return measure(order[i].first, order[i].second);
      });
}

std::vector<ImplementationSummary> summarize(const std::vector<CellPpa>& all) {
  std::vector<ImplementationSummary> out;
  for (cells::Implementation impl : cells::all_implementations()) {
    ImplementationSummary s;
    s.impl = impl;
    std::size_t n = 0;
    for (const CellPpa& c : all) {
      if (c.impl != impl || !c.ok) continue;
      s.mean_delay += c.delay;
      s.mean_power += c.power;
      s.mean_area += c.area;
      s.mean_pdp += c.pdp;
      ++n;
    }
    if (n > 0) {
      const double inv = 1.0 / static_cast<double>(n);
      s.mean_delay *= inv;
      s.mean_power *= inv;
      s.mean_area *= inv;
      s.mean_pdp *= inv;
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace mivtx::core
