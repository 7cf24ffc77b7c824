#include "analyze/libsta.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace mivtx::analyze {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One per-edge timing arc, recorded in forward-pass order for the
// required-time backward pass.
struct EdgeArc {
  std::string from_net;
  bool in_rise = true;
  std::string to_net;
  bool out_rise = true;
  double delay = 0.0;
};

EdgeTiming& edge_of(LibNetTiming& t, bool rise_edge) {
  return rise_edge ? t.rise : t.fall;
}

// Worst (minimum-slack) valid edge of a net; ties prefer the later
// arrival, then rise.  Returns true/false for rise/fall, or nullopt when
// neither edge ever arrives.
std::optional<bool> worst_edge(const LibNetTiming& t) {
  std::optional<bool> best;
  for (const bool e : {true, false}) {
    const EdgeTiming& et = t.edge(e);
    if (!et.valid()) continue;
    if (!best) {
      best = e;
      continue;
    }
    const EdgeTiming& bt = t.edge(*best);
    if (et.slack < bt.slack ||
        (et.slack == bt.slack && et.arrival > bt.arrival))
      best = e;
  }
  return best;
}

}  // namespace

bool EdgeTiming::valid() const { return std::isfinite(arrival); }

LibStaResult run_library_sta(const gatelevel::GateNetlist& netlist,
                             const charlib::CharLibrary& library,
                             cells::Implementation impl,
                             const LibStaOptions& options) {
  MIVTX_EXPECT(netlist.finalized(), "netlist not finalized");
  LibStaResult out;

  // --- Net loads from the library's per-pin input capacitances ---------------
  std::map<std::string, double> load;
  for (const gatelevel::Instance& reader : netlist.instances()) {
    const charlib::CellChar* cc = library.find(impl, reader.type);
    const auto pins = cells::cell_input_names(reader.type);
    for (std::size_t k = 0; k < reader.inputs.size() && k < pins.size(); ++k)
      load[reader.inputs[k]] += cc != nullptr ? cc->pin_cap(pins[k]) : 0.0;
  }
  for (const std::string& po : netlist.primary_outputs())
    load[po] += options.loads.load_for_output(po, options.c_ref);
  for (const auto& [net, extra] : options.loads.extra_net_load)
    load[net] += extra;
  auto load_of = [&](const std::string& net) {
    const auto it = load.find(net);
    return it == load.end() ? 0.0 : it->second;
  };

  // --- Forward pass: per-edge arrival + slew ---------------------------------
  for (const std::string& in : netlist.primary_inputs()) {
    LibNetTiming t;
    for (const bool e : {true, false}) {
      EdgeTiming& et = edge_of(t, e);
      et.arrival = 0.0;
      et.slew = options.input_slew;
      et.required = et.slack = kInf;
    }
    out.nets.emplace(in, t);
  }

  std::vector<EdgeArc> arcs;
  std::vector<std::size_t> arc_counts;  // per topo-visited instance
  arc_counts.reserve(netlist.topological_order().size());

  for (const std::size_t idx : netlist.topological_order()) {
    const gatelevel::Instance& inst = netlist.instances()[idx];
    const charlib::CellChar* cc = library.find(impl, inst.type);
    const auto pins = cells::cell_input_names(inst.type);
    const double c_out = load_of(inst.output);

    LibNetTiming result;
    result.driver = inst.name;
    result.rise.arrival = result.fall.arrival = -kInf;
    result.rise.required = result.fall.required = kInf;
    result.rise.slack = result.fall.slack = kInf;
    const std::size_t arcs_before = arcs.size();
    double inst_energy = 0.0;
    std::size_t inst_energy_n = 0;

    auto consider = [](EdgeTiming& oe, double a, double slew,
                       const std::string& from, bool from_rise) {
      // Deterministic tie-break: smaller net name, then rise before fall.
      if (a > oe.arrival ||
          (a == oe.arrival &&
           (from < oe.critical_from ||
            (from == oe.critical_from && from_rise &&
             !oe.critical_from_rise)))) {
        oe.arrival = a;
        oe.slew = slew;
        oe.critical_from = from;
        oe.critical_from_rise = from_rise;
      }
    };

    if (cc == nullptr) {
      out.missing.push_back(
          MissingTiming{inst.name, cells::cell_name(inst.type), "", true});
      // Zero-delay passthrough of every input edge to both output edges:
      // keeps the rest of the graph analyzable; the analyzer turns the
      // record above into a missing-timing diagnostic.
      for (const std::string& in_net : inst.inputs) {
        const LibNetTiming& in_t = out.nets.at(in_net);
        for (const bool in_rise : {true, false}) {
          const EdgeTiming& ie = in_t.edge(in_rise);
          if (!ie.valid()) continue;
          for (const bool out_rise : {true, false}) {
            arcs.push_back(EdgeArc{in_net, in_rise, inst.output, out_rise,
                                   0.0});
            consider(edge_of(result, out_rise), ie.arrival, ie.slew, in_net,
                     in_rise);
          }
        }
      }
    } else {
      for (std::size_t k = 0; k < inst.inputs.size() && k < pins.size();
           ++k) {
        const std::string& in_net = inst.inputs[k];
        const LibNetTiming& in_t = out.nets.at(in_net);
        for (const bool in_rise : {true, false}) {
          const charlib::ArcTables* arc = cc->find_arc(pins[k], in_rise);
          if (arc == nullptr) {
            out.missing.push_back(MissingTiming{
                inst.name, cells::cell_name(inst.type), pins[k], in_rise});
            continue;
          }
          const EdgeTiming& ie = in_t.edge(in_rise);
          if (!ie.valid()) continue;
          const charlib::LookupResult d = arc->delay.lookup(ie.slew, c_out);
          const charlib::LookupResult s =
              arc->out_slew.lookup(ie.slew, c_out);
          const charlib::LookupResult e = arc->energy.lookup(ie.slew, c_out);
          if (d.clamped() || s.clamped()) ++out.clamped_lookups;
          inst_energy += e.value;
          ++inst_energy_n;
          const double delay = std::max(d.value, 0.0);
          arcs.push_back(
              EdgeArc{in_net, in_rise, inst.output, arc->output_rise, delay});
          consider(edge_of(result, arc->output_rise), ie.arrival + delay,
                   std::max(s.value, 0.0), in_net, in_rise);
        }
      }
    }
    if (inst.inputs.empty()) {
      result.rise.arrival = result.fall.arrival = 0.0;
      result.rise.slew = result.fall.slew = options.input_slew;
    }
    arc_counts.push_back(arcs.size() - arcs_before);
    if (inst_energy_n > 0)
      out.switching_energy +=
          inst_energy / static_cast<double>(inst_energy_n);
    out.nets[inst.output] = result;
  }

  // --- Worst arrival over the primary outputs, both edges --------------------
  out.worst_arrival = 0.0;
  for (const std::string& po : netlist.primary_outputs()) {
    const auto it = out.nets.find(po);
    MIVTX_EXPECT(it != out.nets.end(), "primary output unresolved: " + po);
    for (const bool e : {true, false}) {
      const EdgeTiming& et = it->second.edge(e);
      if (!et.valid()) continue;
      if (et.arrival > out.worst_arrival ||
          (et.arrival == out.worst_arrival &&
           (out.worst_endpoint.empty() || po < out.worst_endpoint ||
            (po == out.worst_endpoint && e && !out.worst_endpoint_rise)))) {
        out.worst_arrival = et.arrival;
        out.worst_endpoint = po;
        out.worst_endpoint_rise = e;
      }
    }
  }

  // --- Backward pass: per-edge required times and slacks ---------------------
  // An arc passes slack back as slack_out + (arrival_out - (arrival_in +
  // delay)).  The bracket is exactly 0 on the arc that set arrival_out, so
  // a critical path keeps its endpoint's slack bit for bit instead of
  // picking up the rounding of (T - sum of delays) - arrival.
  const double t_req =
      options.clock_period > 0.0 ? options.clock_period : out.worst_arrival;
  for (const std::string& po : netlist.primary_outputs()) {
    LibNetTiming& t = out.nets.at(po);
    for (const bool e : {true, false}) {
      EdgeTiming& et = edge_of(t, e);
      et.required = std::min(et.required, t_req);
      et.slack = std::min(et.slack, t_req - et.arrival);
    }
  }
  const auto& topo = netlist.topological_order();
  std::size_t arc_cursor = arcs.size();
  for (std::size_t v = topo.size(); v-- > 0;) {
    const gatelevel::Instance& inst = netlist.instances()[topo[v]];
    arc_cursor -= arc_counts[v];
    const LibNetTiming& out_t = out.nets.at(inst.output);
    for (std::size_t i = 0; i < arc_counts[v]; ++i) {
      const EdgeArc& arc = arcs[arc_cursor + i];
      const EdgeTiming& out_e = out_t.edge(arc.out_rise);
      EdgeTiming& in_e = edge_of(out.nets.at(arc.from_net), arc.in_rise);
      in_e.required = std::min(in_e.required, out_e.required - arc.delay);
      in_e.slack =
          std::min(in_e.slack, out_e.slack + (out_e.arrival -
                                              (in_e.arrival + arc.delay)));
    }
  }
  MIVTX_EXPECT(arc_cursor == 0, "arc bookkeeping out of sync");

  // --- Slack -----------------------------------------------------------------
  out.worst_slack = netlist.primary_outputs().empty() ? 0.0 : kInf;
  for (auto& [net, t] : out.nets) {
    double s = kInf;
    for (const bool e : {true, false}) {
      const EdgeTiming& et = t.edge(e);
      if (et.valid()) s = std::min(s, et.slack);
    }
    t.slack = s;
    out.worst_slack = std::min(out.worst_slack, s);
  }
  if (out.nets.empty()) out.worst_slack = 0.0;

  // --- Worst-N endpoint paths ------------------------------------------------
  std::vector<std::string> endpoints(netlist.primary_outputs());
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  std::stable_sort(endpoints.begin(), endpoints.end(),
                   [&](const std::string& a, const std::string& b) {
                     const LibNetTiming& ta = out.nets.at(a);
                     const LibNetTiming& tb = out.nets.at(b);
                     if (ta.slack != tb.slack) return ta.slack < tb.slack;
                     const auto ea = worst_edge(ta);
                     const auto eb = worst_edge(tb);
                     const double aa = ea ? ta.edge(*ea).arrival : -kInf;
                     const double ab = eb ? tb.edge(*eb).arrival : -kInf;
                     return aa > ab;
                   });
  const std::size_t n_paths = std::min(options.worst_paths, endpoints.size());
  for (std::size_t p = 0; p < n_paths; ++p) {
    const std::string& endpoint = endpoints[p];
    const LibNetTiming& et = out.nets.at(endpoint);
    const auto e0 = worst_edge(et);
    if (!e0) continue;  // endpoint never arrives (library holes upstream)
    TimingPath path;
    path.endpoint = endpoint;
    path.arrival = et.edge(*e0).arrival;
    path.required = et.edge(*e0).required;
    path.slack = et.slack;
    std::string net = endpoint;
    bool edge = *e0;
    while (true) {
      const LibNetTiming& t = out.nets.at(net);
      const EdgeTiming& te = t.edge(edge);
      path.points.push_back(PathPoint{t.driver, net, te.arrival, te.slew});
      if (te.critical_from.empty()) break;
      const bool next_edge = te.critical_from_rise;
      net = te.critical_from;
      edge = next_edge;
    }
    std::reverse(path.points.begin(), path.points.end());
    out.paths.push_back(std::move(path));
  }
  return out;
}

SlackStaResult LibStaResult::to_slack_result() const {
  SlackStaResult s;
  for (const auto& [net, t] : nets) {
    NetTiming n;
    n.driver = t.driver;
    n.slack = t.slack;
    const auto e = worst_edge(t);
    if (e) {
      const EdgeTiming& et = t.edge(*e);
      n.arrival = et.arrival;
      n.required = et.required;
      n.slew = et.slew;
      n.critical_from = et.critical_from;
    } else {
      n.arrival = 0.0;
      n.required = kInf;
    }
    s.nets.emplace(net, n);
  }
  s.worst_arrival = worst_arrival;
  s.worst_slack = worst_slack;
  s.worst_endpoint = worst_endpoint;
  s.paths = paths;
  return s;
}

charlib::CharLibrary linear_library(const gatelevel::TimingModel& model) {
  charlib::CharLibrary lib;
  lib.slew_axis = {0.0, 1.0};
  lib.load_axis = {0.0, 1.0};
  for (const auto& [impl, per_cell] : model.cells) {
    const auto slope_it = model.load_slope.find(impl);
    if (slope_it == model.load_slope.end()) continue;
    const double slope = slope_it->second;
    for (const auto& [type, t] : per_cell) {
      charlib::Table2D delay(lib.slew_axis, lib.load_axis);
      charlib::Table2D out_slew(lib.slew_axis, lib.load_axis);
      for (std::size_t i = 0; i < lib.slew_axis.size(); ++i) {
        for (std::size_t j = 0; j < lib.load_axis.size(); ++j) {
          const double dc = lib.load_axis[j] - model.c_ref;
          delay.set(i, j,
                    t.delay_ref + slope * dc + t.slew_sens * lib.slew_axis[i]);
          out_slew.set(i, j, t.slew_ref + t.slew_slope * dc);
        }
      }
      const charlib::Table2D energy(lib.slew_axis, lib.load_axis);
      charlib::CellChar cell;
      cell.type = type;
      for (const std::string& pin : cells::cell_input_names(type)) {
        cell.input_cap.emplace_back(pin, t.input_cap);
        for (const bool rise : {true, false})
          cell.arcs.push_back(
              charlib::ArcTables{pin, rise, rise, delay, out_slew, energy});
      }
      lib.insert(impl, std::move(cell));
    }
  }
  return lib;
}

}  // namespace mivtx::analyze
