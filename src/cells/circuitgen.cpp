#include "cells/circuitgen.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace mivtx::cells {

namespace {

// Shared rail hookup: VDD source behind a rail resistance, ground rail
// resistance.  Returns the internal rail nodes.
struct Rails {
  spice::NodeId vddi, gndi;
};

Rails add_rails(spice::Circuit& ckt, const ParasiticSpec& parasitics,
                double vdd) {
  const spice::NodeId vdd_ext = ckt.node("vdd_ext");
  Rails r{ckt.node("vddi"), ckt.node("gndi")};
  ckt.add_vsource("VDD", vdd_ext, spice::kGround, spice::SourceSpec::DC(vdd));
  ckt.add_resistor("Rvdd", vdd_ext, r.vddi, parasitics.r_rail);
  ckt.add_resistor("Rgnd", r.gndi, spice::kGround, parasitics.r_rail);
  return r;
}

// Instantiate one standard-cell topology at transistor level with the
// flattened wiring model (see the header comment): inputs/output bind to
// caller nodes, internal nets get prefixed private nodes, and each n-type
// gate pays an MIV stem (MIV implementations) or the spanning net pays one
// shared via with its stray MIS capacitance (2D).
spice::NodeId instantiate_gate(spice::Circuit& ckt, const std::string& prefix,
                               CellType type, Implementation impl,
                               const ModelSet& models,
                               const ParasiticSpec& parasitics,
                               const std::vector<spice::NodeId>& input_nodes,
                               spice::NodeId vddi, spice::NodeId gndi) {
  const CellTopology& topo = cell_topology(type);
  MIVTX_EXPECT(input_nodes.size() == topo.inputs.size(),
               "instantiate_gate: input arity mismatch for " +
                   std::string(cell_name(type)));

  const spice::NodeId out = ckt.node(prefix + "_y");
  auto resolve = [&](const std::string& net) -> spice::NodeId {
    if (net == "vdd") return vddi;
    if (net == "gnd") return gndi;
    if (net == topo.output) return out;
    for (std::size_t i = 0; i < topo.inputs.size(); ++i)
      if (net == topo.inputs[i]) return input_nodes[i];
    return ckt.node(prefix + "_" + net);
  };

  const bool per_gate_vias = impl != Implementation::k2D;
  // 2D: one external-contact via per distinct n-gate net of this instance,
  // shared by all its n-type gates.
  std::map<spice::NodeId, spice::NodeId> shared_top;
  int serial = 0;
  int idx = 0;
  for (const MosInstance& m : topo.fets) {
    const std::string name = std::string(m.pmos ? "MP_" : "MN_") + prefix +
                             "_" + std::to_string(idx++);
    if (m.pmos) {
      ckt.add_mosfet(name, resolve(m.drain), resolve(m.gate),
                     resolve(m.source), models.pmos);
      continue;
    }
    spice::NodeId g = resolve(m.gate);
    if (per_gate_vias) {
      const spice::NodeId stem =
          ckt.node(prefix + "_g" + std::to_string(serial));
      ckt.add_resistor("Rmivg_" + prefix + std::to_string(serial), g, stem,
                       parasitics.r_miv);
      g = stem;
      ++serial;
    } else {
      auto it = shared_top.find(g);
      if (it == shared_top.end()) {
        const spice::NodeId top =
            ckt.node(prefix + "_t" + std::to_string(serial));
        ckt.add_resistor("Rmiv_" + prefix + std::to_string(serial), g, top,
                         parasitics.r_miv);
        if (parasitics.c_miv_external > 0.0) {
          ckt.add_capacitor("Cmiv_" + prefix + std::to_string(serial), top,
                            spice::kGround, parasitics.c_miv_external);
        }
        it = shared_top.emplace(g, top).first;
        ++serial;
      }
      g = it->second;
    }
    ckt.add_mosfet(name, resolve(m.drain), g, resolve(m.source), models.nmos);
  }
  return out;
}

// `prefix` followed by the decimal `index`.  Appending, rather than
// `"x" + std::to_string(i)`, keeps GCC 12 at -O3 from flagging the rvalue
// operator+ with a false -Wrestrict.
std::string indexed(const char* prefix, std::size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

// "M" element names must be unique circuit-wide; instantiate_gate derives
// them from the prefix, so prefixes are kept distinct by construction.
std::string bit_prefix(const char* gate, std::size_t bit) {
  return std::string("b") + std::to_string(bit) + "_" + gate;
}

}  // namespace

GeneratedCircuit build_ring_oscillator(std::size_t stages, Implementation impl,
                                       const ModelSet& models,
                                       const ParasiticSpec& parasitics,
                                       double vdd, bool kick) {
  if (stages < 3) stages = 3;
  if (stages % 2 == 0) ++stages;  // a ring needs an odd inversion count

  GeneratedCircuit gen;
  gen.vdd = vdd;
  gen.name = "ring" + std::to_string(stages) + "_" + impl_name(impl);
  spice::Circuit& ckt = gen.circuit;
  const Rails rails = add_rails(ckt, parasitics, vdd);

  const bool per_gate_vias = impl != Implementation::k2D;
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string si = std::to_string(i);
    const spice::NodeId x = ckt.node("x" + si);  // stage input (bottom tier)
    const spice::NodeId y = ckt.node("y" + si);  // stage output
    ckt.add_mosfet("MP" + si, y, x, rails.vddi, models.pmos);
    spice::NodeId g;
    if (per_gate_vias) {
      g = ckt.node("g" + si);  // private MIV-transistor stem
      ckt.add_resistor("Rmivg" + si, x, g, parasitics.r_miv);
    } else {
      g = ckt.node("xt" + si);  // shared external-contact via to top tier
      ckt.add_resistor("Rmiv" + si, x, g, parasitics.r_miv);
      if (parasitics.c_miv_external > 0.0)
        ckt.add_capacitor("Cmiv" + si, g, spice::kGround,
                          parasitics.c_miv_external);
    }
    ckt.add_mosfet("MN" + si, y, g, rails.gndi, models.nmos);
    ckt.add_capacitor("Cl" + si, y, spice::kGround, parasitics.c_load);
    // Interconnect to the next stage's input, closing the ring at the end.
    const std::string next = std::to_string((i + 1) % stages);
    ckt.add_resistor("Rw" + si, y, ckt.node("x" + next), parasitics.r_wire);
  }

  if (kick) {
    // One-shot pull-down pulse on stage 0's output so transient analysis
    // leaves the metastable all-stages-at-mid-rail operating point.
    spice::PulseSpec p;
    p.v1 = 0.0;
    p.v2 = 20e-6;  // 20 uA briefly against a 1 fF load
    p.delay = 1e-12;
    p.rise = 1e-12;
    p.fall = 1e-12;
    p.width = 50e-12;
    ckt.add_isource("Ikick", ckt.node("y0"), spice::kGround,
                    spice::SourceSpec::Pulse(p));
  }
  gen.probe_node = indexed("y", stages - 1);
  return gen;
}

GeneratedCircuit build_adder_array(std::size_t bits, Implementation impl,
                                   const ModelSet& models,
                                   const ParasiticSpec& parasitics, double vdd,
                                   unsigned long long a_value,
                                   unsigned long long b_value) {
  if (bits == 0) bits = 1;
  GeneratedCircuit gen;
  gen.vdd = vdd;
  gen.name = "adder" + std::to_string(bits) + "_" + impl_name(impl);
  spice::Circuit& ckt = gen.circuit;

  // Segmented supply rails: one VDD source feeds a per-bit rail chain so
  // the supply rows stay banded instead of one node fanning out to every
  // device in the array.
  const spice::NodeId vdd_ext = ckt.node("vdd_ext");
  ckt.add_vsource("VDD", vdd_ext, spice::kGround, spice::SourceSpec::DC(vdd));
  spice::NodeId vdd_prev = vdd_ext;
  spice::NodeId gnd_prev = spice::kGround;

  // Carry-in: DC 0 behind an input wire.
  const spice::NodeId cin0 = ckt.node("cin_in");
  ckt.add_vsource("VCIN", cin0, spice::kGround, spice::SourceSpec::DC(0.0));
  spice::NodeId carry = ckt.node("c0");
  ckt.add_resistor("Rw_cin", cin0, carry, parasitics.r_wire);
  gen.input_sources.push_back("VCIN");

  for (std::size_t i = 0; i < bits; ++i) {
    const std::string si = std::to_string(i);
    const spice::NodeId vddi = ckt.node("vddi" + si);
    const spice::NodeId gndi = ckt.node("gndi" + si);
    ckt.add_resistor("Rvdd" + si, vdd_prev, vddi, parasitics.r_rail);
    ckt.add_resistor("Rgnd" + si, gndi, gnd_prev, parasitics.r_rail);
    vdd_prev = vddi;
    gnd_prev = gndi;

    // Operand bits as DC sources behind input wires.
    const bool a_bit = i < 64 && ((a_value >> i) & 1ull);
    const bool b_bit = i < 64 && ((b_value >> i) & 1ull);
    const spice::NodeId a_in = ckt.node("a" + si + "_in");
    const spice::NodeId b_in = ckt.node("b" + si + "_in");
    ckt.add_vsource("VA" + si, a_in, spice::kGround,
                    spice::SourceSpec::DC(a_bit ? vdd : 0.0));
    ckt.add_vsource("VB" + si, b_in, spice::kGround,
                    spice::SourceSpec::DC(b_bit ? vdd : 0.0));
    const spice::NodeId a = ckt.node("a" + si);
    const spice::NodeId b = ckt.node("b" + si);
    ckt.add_resistor("Rwa" + si, a_in, a, parasitics.r_wire);
    ckt.add_resistor("Rwb" + si, b_in, b, parasitics.r_wire);
    gen.input_sources.push_back("VA" + si);
    gen.input_sources.push_back("VB" + si);

    // Full adder: sum = A ^ B ^ Cin, cout = NAND(NAND(A,B), NAND(A^B,Cin)).
    auto wire = [&](const std::string& gate, spice::NodeId from,
                    const std::string& net) -> spice::NodeId {
      const spice::NodeId to = ckt.node(net);
      ckt.add_resistor("Rw_" + bit_prefix(gate.c_str(), i), from, to,
                       parasitics.r_wire);
      return to;
    };
    const spice::NodeId p = wire(
        "p",
        instantiate_gate(ckt, bit_prefix("x1", i), CellType::kXor2, impl,
                         models, parasitics, {a, b}, vddi, gndi),
        "p" + si);
    const spice::NodeId sum = wire(
        "s",
        instantiate_gate(ckt, bit_prefix("x2", i), CellType::kXor2, impl,
                         models, parasitics, {p, carry}, vddi, gndi),
        "s" + si);
    const spice::NodeId n1 = wire(
        "n1",
        instantiate_gate(ckt, bit_prefix("d1", i), CellType::kNand2, impl,
                         models, parasitics, {a, b}, vddi, gndi),
        "n1_" + si);
    const spice::NodeId n2 = wire(
        "n2",
        instantiate_gate(ckt, bit_prefix("d2", i), CellType::kNand2, impl,
                         models, parasitics, {p, carry}, vddi, gndi),
        "n2_" + si);
    carry = wire(
        "c",
        instantiate_gate(ckt, bit_prefix("d3", i), CellType::kNand2, impl,
                         models, parasitics, {n1, n2}, vddi, gndi),
        indexed("c", i + 1));
    ckt.add_capacitor("Cls" + si, sum, spice::kGround, parasitics.c_load);
  }
  ckt.add_capacitor("Clc", carry, spice::kGround, parasitics.c_load);
  gen.probe_node = indexed("s", bits - 1);
  return gen;
}

std::vector<bool> chain_side_values(CellType type) {
  const std::size_t n = cell_num_inputs(type);
  std::vector<bool> in(n, false);
  for (std::size_t code = 0; code < (1ull << (n - 1)); ++code) {
    for (std::size_t k = 1; k < n; ++k) in[k] = ((code >> (k - 1)) & 1) != 0;
    in[0] = false;
    const bool out0 = cell_logic(type, in);
    in[0] = true;
    const bool out1 = cell_logic(type, in);
    if (out0 != out1) return in;
  }
  MIVTX_FAIL(std::string("chain_side_values: pin 0 of ") + cell_name(type) +
             " cannot be sensitized");
}

GeneratedCircuit build_gate_chain(const GateChainSpec& spec,
                                  Implementation impl, const ModelSet& models,
                                  const ParasiticSpec& parasitics, double vdd) {
  MIVTX_EXPECT(!spec.stages.empty(), "gate chain needs at least one stage");
  MIVTX_EXPECT(spec.stage_loads.empty() ||
                   spec.stage_loads.size() == spec.stages.size(),
               "gate chain: one stage_loads entry per stage (or none)");
  for (const std::size_t tap : spec.fanout_taps)
    MIVTX_EXPECT(tap < spec.stages.size(),
                 "gate chain: fanout tap past the last stage");

  GeneratedCircuit gen;
  gen.vdd = vdd;
  gen.name =
      "chain" + std::to_string(spec.stages.size()) + "_" + impl_name(impl);
  spice::Circuit& ckt = gen.circuit;
  const Rails rails = add_rails(ckt, parasitics, vdd);

  spice::PulseSpec p;
  p.v1 = 0.0;
  p.v2 = vdd;
  p.delay = spec.t_delay;
  p.rise = spec.t_edge;
  p.fall = spec.t_edge;
  p.width = spec.t_width;
  const spice::NodeId in = ckt.node("in");
  ckt.add_vsource("VIN", in, spice::kGround, spice::SourceSpec::Pulse(p));
  gen.input_sources.push_back("VIN");

  spice::NodeId x = ckt.node("x0");
  ckt.add_resistor("Rw_in", in, x, parasitics.r_wire);

  for (std::size_t i = 0; i < spec.stages.size(); ++i) {
    const CellType type = spec.stages[i];
    const std::string si = std::to_string(i);
    const std::vector<bool> side = chain_side_values(type);
    std::vector<spice::NodeId> inputs{x};
    for (std::size_t k = 1; k < side.size(); ++k)
      inputs.push_back(side[k] ? rails.vddi : rails.gndi);
    const spice::NodeId y =
        instantiate_gate(ckt, "s" + si, type, impl, models, parasitics,
                         inputs, rails.vddi, rails.gndi);
    const spice::NodeId net = ckt.node(indexed("x", i + 1));
    ckt.add_resistor("Rw" + si, y, net, parasitics.r_wire);
    const double c_load =
        spec.stage_loads.empty() ? parasitics.c_load : spec.stage_loads[i];
    if (c_load > 0.0)
      ckt.add_capacitor("Cl" + si, net, spice::kGround, c_load);
    if (std::find(spec.fanout_taps.begin(), spec.fanout_taps.end(), i) !=
        spec.fanout_taps.end()) {
      const spice::NodeId tap_y =
          instantiate_gate(ckt, "t" + si, CellType::kInv1, impl, models,
                           parasitics, {net}, rails.vddi, rails.gndi);
      ckt.add_capacitor("Clt" + si, tap_y, spice::kGround, parasitics.c_load);
    }
    x = net;
  }
  gen.probe_node = indexed("x", spec.stages.size());
  return gen;
}

GeneratedCircuit build_power_grid(const PowerGridSpec& spec) {
  MIVTX_EXPECT(spec.rows >= 2 && spec.cols >= 2,
               "power grid needs at least a 2x2 mesh");
  GeneratedCircuit gen;
  gen.vdd = spec.vdd;
  gen.name = "grid" + std::to_string(spec.rows) + "x" +
             std::to_string(spec.cols);
  spice::Circuit& ckt = gen.circuit;

  auto node_name = [&](std::size_t r, std::size_t c) {
    std::string name = indexed("n", r);
    name += '_';
    name += std::to_string(c);
    return name;
  };
  auto at = [&](std::size_t r, std::size_t c) {
    return ckt.node(node_name(r, c));
  };

  for (std::size_t r = 0; r < spec.rows; ++r) {
    for (std::size_t c = 0; c < spec.cols; ++c) {
      const spice::NodeId n = at(r, c);
      std::string rc = std::to_string(r);
      rc += '_';
      rc += std::to_string(c);
      if (c + 1 < spec.cols)
        ckt.add_resistor("Rh" + rc, n, at(r, c + 1), spec.r_seg);
      if (r + 1 < spec.rows)
        ckt.add_resistor("Rv" + rc, n, at(r + 1, c), spec.r_seg);
      if (spec.i_load > 0.0)
        ckt.add_isource("IL" + rc, n, spice::kGround,
                        spice::SourceSpec::DC(spec.i_load));
      if (spec.c_node > 0.0)
        ckt.add_capacitor("Cd" + rc, n, spice::kGround, spec.c_node);
    }
  }

  // Supply pads at the corners, as Norton equivalents: an ideal V source
  // would append a zero-diagonal branch row and break the SPD structure
  // the CG tier exists to exploit.
  const std::pair<std::size_t, std::size_t> corners[4] = {
      {0, 0},
      {0, spec.cols - 1},
      {spec.rows - 1, 0},
      {spec.rows - 1, spec.cols - 1}};
  const std::size_t pads = spec.pads < 4 ? (spec.pads ? spec.pads : 1) : 4;
  for (std::size_t i = 0; i < pads; ++i) {
    const spice::NodeId n = at(corners[i].first, corners[i].second);
    ckt.add_resistor("Rpad" + std::to_string(i), n, spice::kGround,
                     spec.r_pad);
    ckt.add_isource("IP" + std::to_string(i), spice::kGround, n,
                    spice::SourceSpec::DC(spec.vdd / spec.r_pad));
  }
  gen.probe_node = node_name(spec.rows / 2, spec.cols / 2);
  return gen;
}

std::string to_netlist_text(const GeneratedCircuit& gen) {
  const spice::Circuit& ckt = gen.circuit;
  std::ostringstream os;
  os << gen.name << '\n';
  std::set<std::string> emitted;
  for (const spice::Element& e : ckt.elements()) {
    if (e.kind != spice::ElementKind::kMosfet) continue;
    if (emitted.insert(e.model.name).second)
      os << e.model.to_model_line() << '\n';
  }
  auto emit_source = [&](const spice::SourceSpec& s) {
    switch (s.kind) {
      case spice::SourceKind::kDc:
        os << "DC " << format("%.9g", s.dc);
        break;
      case spice::SourceKind::kPulse:
        os << "PULSE(" << format("%.9g", s.pulse.v1) << ' '
           << format("%.9g", s.pulse.v2) << ' '
           << format("%.9g", s.pulse.delay) << ' '
           << format("%.9g", s.pulse.rise) << ' '
           << format("%.9g", s.pulse.fall) << ' '
           << format("%.9g", s.pulse.width);
        if (s.pulse.period > 0.0) os << ' ' << format("%.9g", s.pulse.period);
        os << ')';
        break;
      default:
        MIVTX_FAIL("generated circuits only use DC/PULSE sources");
    }
  };
  for (const spice::Element& e : ckt.elements()) {
    switch (e.kind) {
      case spice::ElementKind::kResistor:
      case spice::ElementKind::kCapacitor:
        os << e.name << ' ' << ckt.node_name(e.nodes[0]) << ' '
           << ckt.node_name(e.nodes[1]) << ' ' << format("%.9g", e.value)
           << '\n';
        break;
      case spice::ElementKind::kVoltageSource:
      case spice::ElementKind::kCurrentSource:
        os << e.name << ' ' << ckt.node_name(e.nodes[0]) << ' '
           << ckt.node_name(e.nodes[1]) << ' ';
        emit_source(e.source);
        os << '\n';
        break;
      case spice::ElementKind::kMosfet:
        os << e.name << ' ' << ckt.node_name(e.nodes[0]) << ' '
           << ckt.node_name(e.nodes[1]) << ' ' << ckt.node_name(e.nodes[2])
           << ' ' << e.model.name << '\n';
        break;
      default:
        MIVTX_FAIL("generated circuits only contain R/C/V/I/M elements");
    }
  }
  os << ".end\n";
  return os.str();
}

}  // namespace mivtx::cells
