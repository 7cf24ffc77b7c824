// Gate-level netlists: construction invariants, generator correctness
// (checked against arithmetic/boolean references over exhaustive or random
// vectors), and static timing analysis over the linear timing model (the
// library STA on analyze::linear_library).
#include <gtest/gtest.h>

#include "analyze/libsta.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gatelevel/netlist.h"
#include "gatelevel/sta.h"

namespace mivtx::gatelevel {
namespace {

TEST(GateNetlist, RejectsDoubleDrivers) {
  GateNetlist n("t");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x");
  EXPECT_THROW(n.add_instance(cells::CellType::kInv1, "u2", {"a"}, "x"),
               mivtx::Error);
  EXPECT_THROW(n.add_input("x"), mivtx::Error);
}

TEST(GateNetlist, RejectsWrongArity) {
  GateNetlist n("t");
  n.add_input("a");
  EXPECT_THROW(n.add_instance(cells::CellType::kNand2, "u1", {"a"}, "x"),
               mivtx::Error);
}

TEST(GateNetlist, FinalizeCatchesUndrivenNets) {
  GateNetlist n("t");
  n.add_input("a");
  n.add_instance(cells::CellType::kNand2, "u1", {"a", "ghost"}, "x");
  n.add_output("x");
  EXPECT_THROW(n.finalize(), mivtx::Error);
}

TEST(GateNetlist, FinalizeCatchesCycles) {
  GateNetlist n("t");
  n.add_input("a");
  n.add_instance(cells::CellType::kNand2, "u1", {"a", "y"}, "x");
  n.add_instance(cells::CellType::kInv1, "u2", {"x"}, "y");
  n.add_output("y");
  EXPECT_THROW(n.finalize(), mivtx::Error);
}

TEST(GateNetlist, TopologicalOrderRespectsDependencies) {
  GateNetlist n("t");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x1");
  n.add_instance(cells::CellType::kInv1, "u2", {"x1"}, "x2");
  n.add_instance(cells::CellType::kInv1, "u3", {"x2"}, "x3");
  n.add_output("x3");
  n.finalize();
  const auto& topo = n.topological_order();
  ASSERT_EQ(topo.size(), 3u);
  EXPECT_LT(topo[0], topo[1]);
  EXPECT_LT(topo[1], topo[2]);
}

TEST(GateNetlist, FanoutCounts) {
  GateNetlist n("t");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x");
  n.add_instance(cells::CellType::kInv1, "u2", {"x"}, "y1");
  n.add_instance(cells::CellType::kInv1, "u3", {"x"}, "y2");
  n.add_output("x");
  n.add_output("y1");
  n.add_output("y2");
  n.finalize();
  EXPECT_EQ(n.fanout("x"), 3u);  // two instance pins + primary output
  EXPECT_EQ(n.fanout("a"), 1u);
}

TEST(Generators, RippleCarryAdderAddsExhaustively4Bit) {
  const GateNetlist n = ripple_carry_adder(4);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; ++b) {
      for (unsigned cin = 0; cin < 2; ++cin) {
        std::map<std::string, bool> in;
        for (unsigned i = 0; i < 4; ++i) {
          in[format("a%u", i)] = (a >> i) & 1u;
          in[format("b%u", i)] = (b >> i) & 1u;
        }
        in["cin"] = cin;
        const auto out = n.evaluate(in);
        unsigned sum = 0;
        for (unsigned i = 0; i < 4; ++i)
          sum |= static_cast<unsigned>(out.at(format("s%u", i))) << i;
        sum |= static_cast<unsigned>(out.at("c4")) << 4;
        EXPECT_EQ(sum, a + b + cin) << a << "+" << b << "+" << cin;
        EXPECT_EQ(out.at("cout_alias"), out.at("c4"));
      }
    }
  }
}

TEST(Generators, DecoderOneHot) {
  const GateNetlist n = decoder(3);
  for (unsigned addr = 0; addr < 8; ++addr) {
    std::map<std::string, bool> in;
    in["en"] = true;
    for (unsigned i = 0; i < 3; ++i) in[format("a%u", i)] = (addr >> i) & 1u;
    const auto out = n.evaluate(in);
    for (unsigned r = 0; r < 8; ++r) {
      EXPECT_EQ(out.at(format("y%u", r)), r == addr) << addr << " " << r;
    }
    // Disabled: all zero.
    in["en"] = false;
    const auto off = n.evaluate(in);
    for (unsigned r = 0; r < 8; ++r) EXPECT_FALSE(off.at(format("y%u", r)));
  }
}

TEST(Generators, ParityTreeMatchesXorReduce) {
  const GateNetlist n = parity_tree(8);
  Rng rng(3);
  for (int trial = 0; trial < 64; ++trial) {
    std::map<std::string, bool> in;
    bool expect = false;
    for (unsigned i = 0; i < 8; ++i) {
      const bool v = rng.bernoulli(0.5);
      in[format("d%u", i)] = v;
      expect ^= v;
    }
    EXPECT_EQ(n.evaluate(in).at("parity"), expect);
  }
}

TEST(Generators, MuxTreeSelects) {
  const GateNetlist n = mux_tree(8);
  Rng rng(5);
  for (int trial = 0; trial < 64; ++trial) {
    std::map<std::string, bool> in;
    bool data[8];
    for (unsigned i = 0; i < 8; ++i) {
      data[i] = rng.bernoulli(0.5);
      in[format("d%u", i)] = data[i];
    }
    const unsigned sel = static_cast<unsigned>(rng.uniform_index(8));
    for (unsigned s = 0; s < 3; ++s) in[format("s%u", s)] = (sel >> s) & 1u;
    EXPECT_EQ(n.evaluate(in).at("y"), data[sel]) << "sel=" << sel;
  }
}

TEST(Generators, AoiBlockEvaluates) {
  const GateNetlist n = aoi_block();
  std::map<std::string, bool> in{{"d0", true}, {"d1", false},
                                 {"d2", true}, {"d3", false}};
  const auto out = n.evaluate(in);
  // z0 = !((d0&d1)|d2) = !(0|1) = 0 ; z1 = !((d1|d2)&d3) = !(1&0) = 1
  EXPECT_FALSE(out.at("z0"));
  EXPECT_TRUE(out.at("z1"));
}

TEST(Generators, HistogramsCoverExpectedCells) {
  const auto h = ripple_carry_adder(8).cell_histogram();
  EXPECT_EQ(h.at(cells::CellType::kXor2), 16u);
  EXPECT_EQ(h.at(cells::CellType::kAnd2), 16u);
  EXPECT_EQ(h.at(cells::CellType::kOr2), 8u);
  EXPECT_EQ(h.at(cells::CellType::kInv1), 2u);
}

// --- STA ------------------------------------------------------------------

TimingModel unit_timing(double inv = 1.0, double nand2 = 2.0,
                        double xor2 = 4.0) {
  TimingModel m;
  m.c_ref = 1e-15;
  for (cells::Implementation impl : cells::all_implementations()) {
    m.load_slope[impl] = 0.0;
    for (cells::CellType t : cells::all_cells()) {
      double d = 1.0;
      if (t == cells::CellType::kInv1) d = inv;
      if (t == cells::CellType::kNand2) d = nand2;
      if (t == cells::CellType::kXor2) d = xor2;
      m.cells[impl][t] = CellTiming{d, 0.0};
    }
  }
  return m;
}

// Worst primary-output arrival, its endpoint and critical path (instance
// names, launch to endpoint) of the 2D implementation.
struct Critical {
  double delay = 0.0;
  std::string output;
  std::vector<std::string> path;
  std::vector<analyze::MissingTiming> missing;
};

Critical linear_sta(const GateNetlist& n, const TimingModel& m,
                 const StaLoadOptions& loads = {}) {
  analyze::LibStaOptions opts;
  opts.loads = loads;
  opts.c_ref = m.c_ref;
  opts.input_slew = 0.0;
  const analyze::LibStaResult r = analyze::run_library_sta(
      n, analyze::linear_library(m), cells::Implementation::k2D, opts);
  Critical out{r.worst_arrival, r.worst_endpoint, {}, r.missing};
  if (!r.paths.empty())
    for (const analyze::PathPoint& p : r.paths.front().points)
      if (!p.instance.empty()) out.path.push_back(p.instance);
  return out;
}

TEST(Sta, ChainDelayAdds) {
  GateNetlist n("chain");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x1");
  n.add_instance(cells::CellType::kInv1, "u2", {"x1"}, "x2");
  n.add_instance(cells::CellType::kInv1, "u3", {"x2"}, "x3");
  n.add_output("x3");
  n.finalize();
  const Critical r = linear_sta(n, unit_timing());
  EXPECT_DOUBLE_EQ(r.delay, 3.0);
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path.front(), "u1");
  EXPECT_EQ(r.path.back(), "u3");
}

TEST(Sta, PicksSlowestBranch) {
  GateNetlist n("branch");
  n.add_input("a");
  n.add_input("b");
  // Fast branch: one INV; slow branch: XOR2 (d = 4).
  n.add_instance(cells::CellType::kInv1, "u_fast", {"a"}, "f");
  n.add_instance(cells::CellType::kXor2, "u_slow", {"a", "b"}, "s");
  n.add_instance(cells::CellType::kNand2, "u_join", {"f", "s"}, "y");
  n.add_output("y");
  n.finalize();
  const Critical r = linear_sta(n, unit_timing());
  EXPECT_DOUBLE_EQ(r.delay, 4.0 + 2.0);
  ASSERT_GE(r.path.size(), 2u);
  EXPECT_EQ(r.path[0], "u_slow");
}

TEST(Sta, LoadSlopePenalizesFanout) {
  GateNetlist n("fan");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u_drv", {"a"}, "x");
  for (int i = 0; i < 4; ++i) {
    n.add_instance(cells::CellType::kInv1, format("u_l%d", i), {"x"},
                   format("y%d", i));
    n.add_output(format("y%d", i));
  }
  n.finalize();
  TimingModel m = unit_timing();
  // Each pin loads 0.5 fF, slope 1 s/F; the driver sees 4 x 0.5 fF vs the
  // 1 fF reference -> +1 fF * slope on its delay.
  for (auto& [impl, per_cell] : m.cells) {
    for (auto& [t, ct] : per_cell) ct.input_cap = 0.5e-15;
  }
  for (auto& [impl, s] : m.load_slope) s = 1.0e15;  // 1 unit per fF
  const Critical r = linear_sta(n, m);
  // u_drv: 1.0 + 1e15 * (2 fF - 1 fF) = 2.0; leaves: 1.0 + 1e15*(1fF-1fF)
  // (each leaf drives one primary output = c_ref).
  EXPECT_NEAR(r.delay, 3.0, 1e-9);
}

TEST(Generators, AluBlockMatchesArithmeticReference) {
  const std::size_t bits = 4;
  const GateNetlist alu = alu_block(bits);
  // op: 0 = AND, 1 = OR, 2 = XOR, 3 = ADD.
  for (const unsigned a : {0u, 5u, 9u, 15u}) {
    for (const unsigned b : {0u, 3u, 12u, 15u}) {
      for (unsigned op = 0; op < 4; ++op) {
        for (const unsigned cin : {0u, 1u}) {
          std::map<std::string, bool> in;
          for (std::size_t i = 0; i < bits; ++i) {
            in[format("a%zu", i)] = (a >> i) & 1u;
            in[format("b%zu", i)] = (b >> i) & 1u;
          }
          in["cin"] = cin != 0;
          in["op0"] = (op & 1u) != 0;
          in["op1"] = (op & 2u) != 0;
          const auto nets = alu.evaluate(in);
          unsigned expect = 0;
          switch (op) {
            case 0: expect = a & b; break;
            case 1: expect = a | b; break;
            case 2: expect = a ^ b; break;
            case 3: expect = a + b + cin; break;
          }
          for (std::size_t i = 0; i < bits; ++i) {
            EXPECT_EQ(nets.at(format("y%zu", i)), ((expect >> i) & 1u) != 0)
                << "a=" << a << " b=" << b << " op=" << op << " bit " << i;
          }
          if (op == 3) {
            EXPECT_EQ(nets.at(format("c%zu", bits)),
                      ((expect >> bits) & 1u) != 0);
          }
        }
      }
    }
  }
}

TEST(Generators, AluBlockScalesPastFiveHundredInstances) {
  // The analyzer CI gate runs on alu64; keep it above the 500-instance bar.
  EXPECT_GE(alu_block(64).instances().size(), 500u);
  EXPECT_EQ(alu_block(64).instances().size(), 64u * 9u);
}

TEST(Sta, EmptyNetlistHasZeroDelay) {
  GateNetlist n("wire");
  n.add_input("a");
  n.add_output("a");
  n.finalize();
  const Critical r = linear_sta(n, unit_timing());
  EXPECT_DOUBLE_EQ(r.delay, 0.0);
  EXPECT_EQ(r.output, "a");
  EXPECT_TRUE(r.path.empty());
}

TEST(Sta, PerOutputLoadOverridesApply) {
  GateNetlist n("drv");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "y");
  n.add_output("y");
  n.finalize();
  TimingModel m = unit_timing();
  for (auto& [impl, s] : m.load_slope) s = 1.0e15;  // 1 delay unit per fF

  // Default: one reference load per output -> no load penalty.
  EXPECT_NEAR(linear_sta(n, m).delay, 1.0, 1e-12);
  // Global default-output-load override: 3 fF -> +2 units.
  StaLoadOptions loads;
  loads.default_output_load = 3e-15;
  EXPECT_NEAR(linear_sta(n, m, loads).delay, 3.0, 1e-12);
  // Per-output override beats the default.
  loads.output_load["y"] = 2e-15;
  EXPECT_NEAR(linear_sta(n, m, loads).delay, 2.0, 1e-12);
}

TEST(Sta, ZeroSlopeIgnoresLoadOptions) {
  GateNetlist n("drv");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "y");
  n.add_output("y");
  n.finalize();
  const TimingModel m = unit_timing();  // load_slope = 0
  StaLoadOptions loads;
  loads.output_load["y"] = 100e-15;
  loads.extra_net_load["y"] = 100e-15;
  EXPECT_DOUBLE_EQ(linear_sta(n, m, loads).delay, 1.0);
}

TEST(Sta, ExtraNetLoadAddsWireDelay) {
  GateNetlist n("chain");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x");
  n.add_instance(cells::CellType::kInv1, "u2", {"x"}, "y");
  n.add_output("y");
  n.finalize();
  TimingModel m = unit_timing();
  for (auto& [impl, per_cell] : m.cells) {
    for (auto& [t, ct] : per_cell) ct.input_cap = 1e-15;
  }
  for (auto& [impl, s] : m.load_slope) s = 1.0e15;
  // Baseline: u1 sees u2's 1 fF pin (= c_ref), u2 one reference load.
  EXPECT_NEAR(linear_sta(n, m).delay, 2.0, 1e-12);
  // 1 fF of wire load on the internal net adds one unit to u1 only.
  StaLoadOptions loads;
  loads.extra_net_load["x"] = 1e-15;
  EXPECT_NEAR(linear_sta(n, m, loads).delay, 3.0, 1e-12);
}

TEST(Sta, MissingTimingIsRecorded) {
  GateNetlist n("t");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "y");
  n.add_output("y");
  n.finalize();
  // A hole is a typed record and a zero-delay passthrough, never a throw.
  const Critical r = linear_sta(n, TimingModel{});
  ASSERT_EQ(r.missing.size(), 1u);
  EXPECT_EQ(r.missing[0].instance, "u1");
  EXPECT_EQ(r.missing[0].cell, "INV1X1");
  EXPECT_TRUE(r.missing[0].pin.empty());  // the whole (impl, cell) entry
  EXPECT_DOUBLE_EQ(r.delay, 0.0);
  EXPECT_EQ(r.output, "y");
  // An implementation without a load slope is a hole too.
  TimingModel no_slope = unit_timing();
  no_slope.load_slope.erase(cells::Implementation::k2D);
  EXPECT_EQ(linear_sta(n, no_slope).missing.size(), 1u);
}

}  // namespace
}  // namespace mivtx::gatelevel
