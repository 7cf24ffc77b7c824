// Tests for mivtx::analyze: the diagnostics pipeline (fingerprints,
// severity config, baselines, SARIF), the relaxed Design representation,
// the electrical and tier rule passes, the slack-based STA (including the
// differential check against transistor-level transient simulation), and
// the .gnl mutation decks in tests/fuzz.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "analyze/analyzer.h"
#include "analyze/design.h"
#include "analyze/electrical.h"
#include "analyze/pipeline.h"
#include "analyze/tier_rules.h"
#include "bsimsoi/model.h"
#include "cells/circuitgen.h"
#include "charlib/characterize.h"
#include "charlib/library.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "runtime/exec_policy.h"
#include "runtime/thread_pool.h"
#include "spice/transient.h"
#include "waveform/measure.h"

namespace mivtx::analyze {
namespace {

using lint::Diagnostic;
using lint::Severity;

Diagnostic make_diag(Severity sev, const std::string& rule,
                     const std::string& message, const std::string& element,
                     const std::string& node, int line,
                     const std::string& file) {
  Diagnostic d;
  d.severity = sev;
  d.rule = rule;
  d.message = message;
  d.element = element;
  d.node = node;
  d.line = line;
  d.file = file;
  return d;
}

// Flat per-cell timing: every cell `delay` seconds, no load or slew
// sensitivity unless the caller dials it in.
gatelevel::TimingModel flat_timing(double delay = 1.0) {
  gatelevel::TimingModel m;
  m.c_ref = 1e-15;
  for (cells::Implementation impl : cells::all_implementations()) {
    m.load_slope[impl] = 0.0;
    for (cells::CellType t : cells::all_cells()) {
      gatelevel::CellTiming ct;
      ct.delay_ref = delay;
      m.cells[impl][t] = ct;
    }
  }
  return m;
}

// --- Pipeline: fingerprints, severity config, baselines, SARIF ------------

TEST(Pipeline, FingerprintIgnoresLineButNotIdentity) {
  const Diagnostic a =
      make_diag(Severity::kError, "rule-a", "msg", "u1", "n1", 10, "f.gnl");
  Diagnostic moved = a;
  moved.line = 99;  // an edit above the finding moved it
  EXPECT_EQ(fingerprint(a), fingerprint(moved));
  EXPECT_EQ(fingerprint(a).size(), 16u);

  Diagnostic other_rule = a;
  other_rule.rule = "rule-b";
  Diagnostic other_net = a;
  other_net.node = "n2";
  Diagnostic other_file = a;
  other_file.file = "g.gnl";
  EXPECT_NE(fingerprint(a), fingerprint(other_rule));
  EXPECT_NE(fingerprint(a), fingerprint(other_net));
  EXPECT_NE(fingerprint(a), fingerprint(other_file));
}

TEST(Pipeline, SeverityConfigRemapsAndSuppresses) {
  const Diagnostic err =
      make_diag(Severity::kError, "loud", "m", "", "", 0, "f");
  const Diagnostic warn =
      make_diag(Severity::kWarning, "gone", "m", "", "", 0, "f");
  const Diagnostic pinned =
      make_diag(Severity::kWarning, "keep", "m", "u9", "", 0, "f");

  const SeverityConfig config = SeverityConfig::parse(
      "# comment\n"
      "severity loud info\n"
      "suppress gone\n"
      "suppress-finding " + fingerprint(pinned) + "\n");
  const auto out = config.apply({err, warn, pinned});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "loud");
  EXPECT_EQ(out[0].severity, Severity::kInfo);
}

TEST(Pipeline, SeverityConfigRejectsMalformedDirectives) {
  try {
    SeverityConfig::parse("severity only-two-tokens\n");
    FAIL() << "expected mivtx::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(SeverityConfig::parse("severity r nonsense\n"), Error);
  EXPECT_THROW(SeverityConfig::parse("frobnicate r\n"), Error);
}

TEST(Pipeline, BaselineRoundTripAndGating) {
  const Diagnostic known =
      make_diag(Severity::kError, "r1", "old finding", "u1", "", 3, "f");
  const Diagnostic fresh =
      make_diag(Severity::kError, "r2", "new finding", "u2", "", 7, "f");

  const std::string text = Baseline::serialize({known});
  const Baseline base = Baseline::parse(text);
  EXPECT_EQ(base.size(), 1u);
  EXPECT_TRUE(base.contains(fingerprint(known)));

  const auto gated = base.new_findings({known, fresh});
  ASSERT_EQ(gated.size(), 1u);
  EXPECT_EQ(gated[0].rule, "r2");

  // Round trip is stable: serializing the same findings reproduces the file.
  EXPECT_EQ(Baseline::serialize({known}), text);
}

TEST(Pipeline, SortDiagnosticsOrdersByFileLineRule) {
  std::vector<Diagnostic> diags = {
      make_diag(Severity::kWarning, "z-rule", "m", "", "", 5, "b.gnl"),
      make_diag(Severity::kWarning, "b-rule", "m", "", "", 5, "a.gnl"),
      make_diag(Severity::kWarning, "a-rule", "m", "", "", 9, "a.gnl"),
      make_diag(Severity::kWarning, "a-rule", "m", "", "", 5, "a.gnl"),
  };
  lint::sort_diagnostics(diags);
  EXPECT_EQ(diags[0].rule, "a-rule");
  EXPECT_EQ(diags[0].line, 5);
  EXPECT_EQ(diags[1].rule, "b-rule");
  EXPECT_EQ(diags[2].line, 9);
  EXPECT_EQ(diags[3].file, "b.gnl");
}

TEST(Pipeline, SarifRendererIsWellFormedAndOrderIndependent) {
  const Diagnostic e =
      make_diag(Severity::kError, "multi-driven-net", "2 drivers", "u1", "y",
                4, "bad.gnl");
  const Diagnostic w =
      make_diag(Severity::kWarning, "floating-net", "never read", "", "z", 2,
                "bad.gnl");
  const Diagnostic i = make_diag(Severity::kInfo, "tier-summary", "ok", "", "",
                                 0, "bad.gnl");

  const std::string sarif = render_sarif({e, w, i}, "mivtx_analyze", "1.0");
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"mivtx_analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"multi-driven-net\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"bad.gnl\""), std::string::npos);
  EXPECT_NE(sarif.find("partialFingerprints"), std::string::npos);
  // Renderers sort internally: input order must not change the bytes.
  EXPECT_EQ(sarif, render_sarif({i, w, e}, "mivtx_analyze", "1.0"));
}

TEST(Pipeline, MaxSeverityDrivesGate) {
  EXPECT_FALSE(max_severity({}).has_value());
  const Diagnostic w =
      make_diag(Severity::kWarning, "r", "m", "", "", 0, "f");
  const Diagnostic e = make_diag(Severity::kError, "r", "m", "", "", 0, "f");
  EXPECT_EQ(max_severity({w}), Severity::kWarning);
  EXPECT_EQ(max_severity({w, e}), Severity::kError);
}

// --- Relaxed Design + .gnl parser -----------------------------------------

TEST(DesignParser, RoundTripsWellFormedText) {
  lint::DiagnosticSink sink;
  const Design d = parse_design(
      "# a comment\n"
      "design half_adder\n"
      "input a b\n"
      "output s c\n"
      "gate XOR2X1 u_s a b s\n"
      "gate AND2X1 u_c a b c\n",
      sink);
  EXPECT_EQ(sink.diagnostics().size(), 0u);
  EXPECT_EQ(d.name, "half_adder");
  ASSERT_EQ(d.gates.size(), 2u);
  EXPECT_EQ(d.gates[0].type, cells::CellType::kXor2);
  EXPECT_EQ(d.gates[0].line, 5);

  lint::DiagnosticSink sink2;
  const Design back = parse_design(to_gnl_text(d), sink2);
  EXPECT_EQ(sink2.diagnostics().size(), 0u);
  EXPECT_EQ(to_gnl_text(back), to_gnl_text(d));
}

TEST(DesignParser, DiagnosesUnknownCellAndBadArity) {
  lint::DiagnosticSink sink;
  const Design d = parse_design(
      "design broken\n"
      "input a\n"
      "output y\n"
      "gate FROB9000 u1 a y\n"
      "gate NAND2X1 u2 a y\n"  // NAND2 wants 2 inputs
      "gate\n",
      sink);
  ASSERT_EQ(d.gates.size(), 2u);  // both bad gates kept, bare "gate" dropped
  EXPECT_FALSE(d.gates[0].type.has_value());
  std::size_t unknown = 0, arity = 0, parse = 0;
  for (const Diagnostic& diag : sink.diagnostics()) {
    if (diag.rule == "unknown-cell") ++unknown;
    if (diag.rule == "bad-arity") ++arity;
    if (diag.rule == "parse-error") ++parse;
  }
  EXPECT_EQ(unknown, 1u);
  EXPECT_EQ(arity, 1u);
  EXPECT_EQ(parse, 1u);
}

TEST(DesignParser, NetlistConversionRoundTrips) {
  const gatelevel::GateNetlist rca = gatelevel::ripple_carry_adder(4);
  const Design d = design_from_netlist(rca);
  EXPECT_EQ(d.gates.size(), rca.instances().size());
  const auto back = to_gate_netlist(d);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->instances().size(), rca.instances().size());
  // Functional equivalence on one vector: 7 + 9 + 1 = 17.
  std::map<std::string, bool> in;
  for (std::size_t i = 0; i < 4; ++i) {
    in[format("a%zu", i)] = (7u >> i) & 1u;
    in[format("b%zu", i)] = (9u >> i) & 1u;
  }
  in["cin"] = true;
  EXPECT_EQ(rca.evaluate(in), back->evaluate(in));
}

TEST(DesignParser, ConversionRejectsBrokenDesigns) {
  lint::DiagnosticSink sink;
  const Design d = parse_design(
      "design dup\n"
      "input a\n"
      "output y\n"
      "gate INV1X1 u1 a y\n"
      "gate INV1X1 u2 a y\n",
      sink);
  EXPECT_FALSE(to_gate_netlist(d).has_value());
}

// --- Electrical rules ------------------------------------------------------

std::size_t count_rule(const lint::DiagnosticSink& sink,
                       const std::string& rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.rule == rule) ++n;
  }
  return n;
}

TEST(Electrical, FlagsConnectivityViolations) {
  lint::DiagnosticSink parse_sink;
  const Design d = parse_design(
      "design broken\n"
      "input a unused_in\n"
      "output y no_driver_out\n"
      "gate INV1X1 u1 a y\n"
      "gate INV1X1 u1 a dead\n"        // duplicate name + floating output
      "gate INV1X1 u3 ghost lonely\n"  // undriven input net
      ,
      parse_sink);
  lint::DiagnosticSink sink;
  const std::size_t errors = analyze_electrical(d, sink);
  EXPECT_EQ(count_rule(sink, "duplicate-instance"), 1u);
  EXPECT_EQ(count_rule(sink, "undriven-net"), 1u);       // ghost
  EXPECT_EQ(count_rule(sink, "undriven-output"), 1u);    // no_driver_out
  EXPECT_EQ(count_rule(sink, "unused-input"), 1u);       // unused_in
  EXPECT_GE(count_rule(sink, "floating-net"), 1u);       // dead, lonely
  EXPECT_GE(count_rule(sink, "unreachable-logic"), 1u);  // u1 dup + u3
  EXPECT_EQ(errors, sink.num_errors());
  EXPECT_GE(errors, 3u);
}

TEST(Electrical, LocalizesCombinationalLoop) {
  lint::DiagnosticSink parse_sink;
  const Design d = parse_design(
      "design looped\n"
      "input a\n"
      "output y\n"
      "gate NAND2X1 u_in a r3 r1\n"
      "gate INV1X1 u_mid r1 r2\n"
      "gate INV1X1 u_back r2 r3\n"
      "gate INV1X1 u_out r1 y\n",
      parse_sink);
  lint::DiagnosticSink sink;
  analyze_electrical(d, sink);
  ASSERT_EQ(count_rule(sink, "combinational-loop"), 1u);
  for (const Diagnostic& diag : sink.diagnostics()) {
    if (diag.rule != "combinational-loop") continue;
    // All three members listed, deterministically ordered.
    EXPECT_NE(diag.message.find("u_back"), std::string::npos);
    EXPECT_NE(diag.message.find("u_in"), std::string::npos);
    EXPECT_NE(diag.message.find("u_mid"), std::string::npos);
  }
  // Loop members must not also be flagged unreachable.
  EXPECT_EQ(count_rule(sink, "unreachable-logic"), 0u);
}

TEST(Electrical, MultiDrivenCoDriversAreNotUnreachable) {
  lint::DiagnosticSink parse_sink;
  const Design d = parse_design(
      "design dup\n"
      "input a\n"
      "output y\n"
      "gate INV1X1 u1 a y\n"
      "gate INV1X1 u2 a y\n",
      parse_sink);
  lint::DiagnosticSink sink;
  analyze_electrical(d, sink);
  EXPECT_EQ(count_rule(sink, "multi-driven-net"), 1u);
  // Both contenders drive the primary output; neither is a dead cone.
  EXPECT_EQ(count_rule(sink, "unreachable-logic"), 0u);
}

TEST(Electrical, FanoutAndLoadBudgets) {
  // One inverter driving 9 readers (budget 8).
  std::ostringstream gnl;
  gnl << "design fan\ninput a\noutput";
  for (int i = 0; i < 9; ++i) gnl << " y" << i;
  gnl << "\ngate INV1X1 u_drv a x\n";
  for (int i = 0; i < 9; ++i)
    gnl << "gate INV1X1 u_l" << i << " x y" << i << "\n";
  lint::DiagnosticSink parse_sink;
  const Design d = parse_design(gnl.str(), parse_sink);

  lint::DiagnosticSink sink;
  analyze_electrical(d, sink);
  EXPECT_EQ(count_rule(sink, "max-fanout"), 1u);
  EXPECT_EQ(count_rule(sink, "max-load-cap"), 0u);  // no timing model

  // With a timing model whose pins are huge, the load budget trips too.
  gatelevel::TimingModel m = flat_timing();
  for (auto& [impl, per_cell] : m.cells) {
    for (auto& [t, ct] : per_cell) ct.input_cap = 5e-15;
  }
  ElectricalRuleOptions opts;
  opts.timing = &m;  // 9 pins x 5 fF = 45 fF > 20 fF budget
  lint::DiagnosticSink sink2;
  analyze_electrical(d, sink2, opts);
  EXPECT_EQ(count_rule(sink2, "max-load-cap"), 1u);
}

TEST(Electrical, CleanDesignIsQuiet) {
  const Design d = design_from_netlist(gatelevel::ripple_carry_adder(4));
  lint::DiagnosticSink sink;
  const std::size_t errors = analyze_electrical(d, sink);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(sink.diagnostics().size(), 0u) << sink.render_text();
}

// --- Slack-based STA -------------------------------------------------------

// The analyzer's timing pass on a linear model: the library STA over
// linear_library(m), collapsed to the single-edge view.
SlackStaResult slack_sta(const gatelevel::GateNetlist& n,
                         const gatelevel::TimingModel& m,
                         const StaOptions& options = {}) {
  LibStaOptions lopts;
  lopts.loads = options.loads;
  lopts.clock_period = options.clock_period;
  lopts.input_slew = options.input_slew;
  lopts.worst_paths = options.worst_paths;
  lopts.c_ref = m.c_ref;
  return run_library_sta(n, linear_library(m), cells::Implementation::k2D,
                         lopts)
      .to_slack_result();
}

TEST(SlackSta, ReconvergentFanoutSlacks) {
  // a -> u_slow(XOR2, d=4) -> s ─┐
  // a ───────────────────────────┴ u_join(NAND2, d=2) -> y
  gatelevel::GateNetlist n("reconv");
  n.add_input("a");
  n.add_input("b");
  n.add_instance(cells::CellType::kXor2, "u_slow", {"a", "b"}, "s");
  n.add_instance(cells::CellType::kNand2, "u_join", {"a", "s"}, "y");
  n.add_output("y");
  n.finalize();

  gatelevel::TimingModel m = flat_timing(1.0);
  for (auto& [impl, per_cell] : m.cells) {
    per_cell[cells::CellType::kXor2].delay_ref = 4.0;
    per_cell[cells::CellType::kNand2].delay_ref = 2.0;
  }
  const SlackStaResult r = slack_sta(n, m);
  EXPECT_DOUBLE_EQ(r.worst_arrival, 6.0);
  // Through the slow arc, `s` is critical: slack 0.  The direct a->u_join
  // arc has 4 units of margin, but net `a` also launches the critical
  // branch, so its slack (the min over fanout arcs) is 0.
  EXPECT_DOUBLE_EQ(r.nets.at("s").slack, 0.0);
  EXPECT_DOUBLE_EQ(r.nets.at("a").slack, 0.0);
  EXPECT_DOUBLE_EQ(r.nets.at("y").slack, 0.0);
  // b only feeds the critical XOR: slack 0 as well.
  EXPECT_DOUBLE_EQ(r.nets.at("b").slack, 0.0);
  EXPECT_EQ(r.nets.at("y").critical_from, "s");
}

TEST(SlackSta, NonCriticalSideBranchHasPositiveSlack) {
  // Critical chain of three, plus a one-gate side branch to its own output.
  gatelevel::GateNetlist n("side");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x1");
  n.add_instance(cells::CellType::kInv1, "u2", {"x1"}, "x2");
  n.add_instance(cells::CellType::kInv1, "u3", {"x2"}, "y");
  n.add_instance(cells::CellType::kInv1, "u_side", {"a"}, "z");
  n.add_output("y");
  n.add_output("z");
  n.finalize();
  const SlackStaResult r = slack_sta(n, flat_timing(1.0));
  EXPECT_DOUBLE_EQ(r.worst_arrival, 3.0);
  EXPECT_DOUBLE_EQ(r.nets.at("z").arrival, 1.0);
  EXPECT_DOUBLE_EQ(r.nets.at("z").slack, 2.0);
  EXPECT_DOUBLE_EQ(r.nets.at("x1").slack, 0.0);
}

TEST(SlackSta, TieBreaksTowardSmallestDrivingNet) {
  // Two exactly equal paths join at u_join; the report must deterministically
  // blame the lexicographically smallest driving net.
  gatelevel::GateNetlist n("tie");
  n.add_input("a");
  n.add_input("b");
  n.add_instance(cells::CellType::kInv1, "u_q", {"a"}, "q");
  n.add_instance(cells::CellType::kInv1, "u_p", {"b"}, "p");
  n.add_instance(cells::CellType::kNand2, "u_join", {"q", "p"}, "y");
  n.add_output("y");
  n.finalize();
  const SlackStaResult r = slack_sta(n, flat_timing(1.0));
  EXPECT_EQ(r.nets.at("y").critical_from, "p");
  ASSERT_FALSE(r.paths.empty());
  ASSERT_EQ(r.paths[0].points.size(), 3u);
  EXPECT_EQ(r.paths[0].points[1].net, "p");
}

TEST(SlackSta, ClockPeriodSetsRequiredTimes) {
  gatelevel::GateNetlist n("chain");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x");
  n.add_instance(cells::CellType::kInv1, "u2", {"x"}, "y");
  n.add_output("y");
  n.finalize();
  StaOptions opts;
  opts.clock_period = 1.5;  // arrival 2.0 -> slack -0.5
  const SlackStaResult r = slack_sta(n, flat_timing(1.0), opts);
  EXPECT_DOUBLE_EQ(r.nets.at("y").required, 1.5);
  EXPECT_DOUBLE_EQ(r.nets.at("y").slack, -0.5);
  EXPECT_DOUBLE_EQ(r.worst_slack, -0.5);
  ASSERT_FALSE(r.paths.empty());
  EXPECT_DOUBLE_EQ(r.paths[0].slack, -0.5);
}

TEST(SlackSta, RelativeModeCriticalSlackIsExactlyZero) {
  // Without a clock the worst arrival is the requirement, so the critical
  // path's slack is exactly 0, not the rounding residue of
  // (T - sum of delays) - arrival (-3.1e-25 s on alu64 before).
  const Design d = design_from_netlist(gatelevel::alu_block(64));
  const AnalyzeReport report = analyze_design(d, default_timing_model());
  ASSERT_TRUE(report.sta.has_value());
  EXPECT_EQ(report.sta->worst_slack, 0.0);
  ASSERT_FALSE(report.sta->paths.empty());
  EXPECT_EQ(report.sta->paths[0].slack, 0.0);
}

TEST(SlackSta, ExactlyTiedEndpointsSortByArrivalThenName) {
  // aoi's z0 and z1 also launch the path to z2, so all three endpoints sit
  // on the critical path: slack exactly 0 each.  The tie then orders them
  // by later arrival (z2) and, for z0/z1's equal arrivals, by name.
  const Design d = design_from_netlist(gatelevel::aoi_block());
  const AnalyzeReport report = analyze_design(d, default_timing_model());
  ASSERT_TRUE(report.sta.has_value());
  const auto& paths = report.sta->paths;
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].endpoint, "z2");
  EXPECT_EQ(paths[1].endpoint, "z0");
  EXPECT_EQ(paths[2].endpoint, "z1");
  EXPECT_EQ(paths[1].arrival, paths[2].arrival);
  for (const TimingPath& p : paths) EXPECT_EQ(p.slack, 0.0) << p.endpoint;
}

TEST(SlackSta, WorstPathsAreSortedAndBounded) {
  const gatelevel::GateNetlist n = gatelevel::ripple_carry_adder(8);
  StaOptions opts;
  opts.worst_paths = 3;
  const SlackStaResult r = slack_sta(n, flat_timing(1.0), opts);
  ASSERT_EQ(r.paths.size(), 3u);
  // Relative analysis: the worst slack is zero and nothing is negative.
  EXPECT_NEAR(r.worst_slack, 0.0, 1e-15);
  for (const auto& [net, t] : r.nets) EXPECT_GE(t.slack, -1e-15) << net;
  EXPECT_LE(r.paths[0].slack, r.paths[1].slack);
  EXPECT_LE(r.paths[1].slack, r.paths[2].slack);
  EXPECT_EQ(r.paths[0].endpoint, r.worst_endpoint);
  // Path points are contiguous: every step moves through one instance.
  for (const TimingPath& p : r.paths) {
    ASSERT_GE(p.points.size(), 2u);
    EXPECT_EQ(p.points.back().net, p.endpoint);
    for (std::size_t i = 1; i < p.points.size(); ++i) {
      EXPECT_GE(p.points[i].arrival, p.points[i - 1].arrival);
    }
  }
}

TEST(SlackSta, SlewPropagationAddsDelay) {
  gatelevel::GateNetlist n("chain");
  n.add_input("a");
  n.add_instance(cells::CellType::kInv1, "u1", {"a"}, "x");
  n.add_instance(cells::CellType::kInv1, "u2", {"x"}, "y");
  n.add_output("y");
  n.finalize();

  gatelevel::TimingModel m = flat_timing(1.0);
  const SlackStaResult crisp = slack_sta(n, m);
  for (auto& [impl, per_cell] : m.cells) {
    for (auto& [t, ct] : per_cell) {
      ct.slew_ref = 0.5;
      ct.slew_sens = 0.2;  // +0.2 delay per unit of input transition
    }
  }
  const SlackStaResult slewed = slack_sta(n, m);
  // u1 sees the (zero) input slew; u2 sees u1's 0.5 output transition.
  EXPECT_DOUBLE_EQ(crisp.worst_arrival, 2.0);
  EXPECT_DOUBLE_EQ(slewed.worst_arrival, 2.0 + 0.2 * 0.5);
  EXPECT_DOUBLE_EQ(slewed.nets.at("x").slew, 0.5);

  // Input slew at the primary inputs feeds the first stage.
  StaOptions opts;
  opts.input_slew = 1.0;
  const SlackStaResult driven = slack_sta(n, m, opts);
  EXPECT_DOUBLE_EQ(driven.worst_arrival, 2.0 + 0.2 * 1.0 + 0.2 * 0.5);
}

// --- Differential: linear-model STA vs transistor-level transient ----------

namespace diff {

// One CMOS inverter stage: traditional-FDSOI p-type on the bottom tier,
// 2D n-type on top, no interconnect parasitics (both sides of the
// comparison see identical electricals).
void add_inverter(spice::Circuit& ckt, const std::string& name,
                  const std::string& in, const std::string& out,
                  spice::NodeId vdd, const cells::ModelSet& models) {
  ckt.add_mosfet("MP_" + name, ckt.node(out), ckt.node(in), vdd, models.pmos);
  ckt.add_mosfet("MN_" + name, ckt.node(out), ckt.node(in), spice::kGround,
                 models.nmos);
}

struct EdgePair {
  double rising = 0.0;   // input rising edge -> output delay
  double falling = 0.0;  // input falling edge -> output delay
  double mean() const { return 0.5 * (rising + falling); }
};

// 50%-to-50% delays for both edges of the stimulus pulse.
EdgePair measure_delays(const spice::TransientResult& tran,
                        const std::string& in, const std::string& out,
                        double t_fall_edge) {
  EdgePair out_delays;
  const auto rise = waveform::propagation_delay(tran.v(in), tran.v(out), 0.5,
                                                0.5, /*after=*/0.0);
  const auto fall = waveform::propagation_delay(tran.v(in), tran.v(out), 0.5,
                                                0.5, t_fall_edge);
  EXPECT_TRUE(rise.has_value());
  EXPECT_TRUE(fall.has_value());
  out_delays.rising = rise.value_or(0.0);
  out_delays.falling = fall.value_or(0.0);
  return out_delays;
}

// Single inverter driving `c_load`; returns the mean propagation delay.
double single_stage_delay(const cells::ModelSet& models, double c_load,
                          double input_edge) {
  spice::Circuit ckt;
  const spice::NodeId vdd = ckt.node("vdd");
  ckt.add_vsource("VDD", vdd, spice::kGround, spice::SourceSpec::DC(1.0));
  spice::PulseSpec pulse;
  pulse.v1 = 0.0;
  pulse.v2 = 1.0;
  pulse.delay = 100e-12;
  pulse.rise = input_edge;
  pulse.fall = input_edge;
  pulse.width = 600e-12;
  ckt.add_vsource("VIN", ckt.node("in"), spice::kGround,
                  spice::SourceSpec::Pulse(pulse));
  add_inverter(ckt, "u1", "in", "out", vdd, models);
  ckt.add_capacitor("CL", ckt.find_node("out"), spice::kGround, c_load);

  spice::TransientOptions opts;
  opts.t_stop = 1.4e-9;
  opts.h_max = 5e-12;
  const spice::TransientResult tran = spice::transient(ckt, opts);
  EXPECT_TRUE(tran.ok) << tran.error;
  return measure_delays(tran, "in", "out", /*t_fall_edge=*/650e-12).mean();
}

}  // namespace diff

TEST(SlackSta, DifferentialAgainstTransientChain) {
  const core::PpaEngine engine(core::reference_model_library());
  const cells::ModelSet models =
      engine.model_set(cells::Implementation::k2D);

  // Calibrate a one-cell timing model from two transistor-level load
  // points, exactly like core::build_timing_model but on the bare stage.
  const double input_edge = 20e-12;
  const double d_1f = diff::single_stage_delay(models, 1e-15, input_edge);
  const double d_2f = diff::single_stage_delay(models, 2e-15, input_edge);
  ASSERT_GT(d_1f, 0.0);
  ASSERT_GT(d_2f, d_1f);

  gatelevel::TimingModel m;
  m.c_ref = 1e-15;
  const double cin =
      bsimsoi::eval(models.nmos, 0.5, 0.5, 0.0).dqg[bsimsoi::kDvG] +
      bsimsoi::eval(models.pmos, -0.5, -0.5, 0.0).dqg[bsimsoi::kDvG];
  gatelevel::CellTiming ct;
  ct.delay_ref = d_1f;
  ct.input_cap = cin;
  m.cells[cells::Implementation::k2D][cells::CellType::kInv1] = ct;
  m.load_slope[cells::Implementation::k2D] = (d_2f - d_1f) / 1e-15;

  // Transistor-level three-inverter chain with 1 fF on every stage output.
  spice::Circuit ckt;
  const spice::NodeId vdd = ckt.node("vdd");
  ckt.add_vsource("VDD", vdd, spice::kGround, spice::SourceSpec::DC(1.0));
  spice::PulseSpec pulse;
  pulse.v1 = 0.0;
  pulse.v2 = 1.0;
  pulse.delay = 100e-12;
  pulse.rise = input_edge;
  pulse.fall = input_edge;
  pulse.width = 600e-12;
  ckt.add_vsource("VIN", ckt.node("in"), spice::kGround,
                  spice::SourceSpec::Pulse(pulse));
  diff::add_inverter(ckt, "u1", "in", "x1", vdd, models);
  diff::add_inverter(ckt, "u2", "x1", "x2", vdd, models);
  diff::add_inverter(ckt, "u3", "x2", "y", vdd, models);
  ckt.add_capacitor("C1", ckt.find_node("x1"), spice::kGround, 1e-15);
  ckt.add_capacitor("C2", ckt.find_node("x2"), spice::kGround, 1e-15);
  ckt.add_capacitor("C3", ckt.find_node("y"), spice::kGround, 1e-15);

  spice::TransientOptions topts;
  topts.t_stop = 1.4e-9;
  topts.h_max = 5e-12;
  const spice::TransientResult tran = spice::transient(ckt, topts);
  ASSERT_TRUE(tran.ok) << tran.error;
  const double tran_delay =
      diff::measure_delays(tran, "in", "y", 650e-12).mean();
  ASSERT_GT(tran_delay, 0.0);

  // STA over the same chain: each internal net carries the 1 fF lumped cap
  // on top of the next stage's gate; the endpoint load is exactly 1 fF.
  gatelevel::GateNetlist n("chain3");
  n.add_input("in");
  n.add_instance(cells::CellType::kInv1, "u1", {"in"}, "x1");
  n.add_instance(cells::CellType::kInv1, "u2", {"x1"}, "x2");
  n.add_instance(cells::CellType::kInv1, "u3", {"x2"}, "y");
  n.add_output("y");
  n.finalize();
  StaOptions opts;
  opts.loads.extra_net_load["x1"] = 1e-15;
  opts.loads.extra_net_load["x2"] = 1e-15;
  const SlackStaResult sta = slack_sta(n, m, opts);

  // The load model is linear and the calibration single-edge; agreement
  // within 25 % demonstrates the slack STA tracks the physics.
  EXPECT_NEAR(sta.worst_arrival, tran_delay, 0.25 * tran_delay)
      << "STA " << sta.worst_arrival << " vs transient " << tran_delay;
}

// --- Differential: library STA vs transistor-level gate chains -------------

namespace chaindiff {

struct ChainCase {
  cells::Implementation impl;
  std::vector<cells::CellType> stages;
  std::vector<double> loads;  // F, one per stage output
  std::vector<std::size_t> taps;
};

// Boolean chain output for a given chain-input value, under the same side
// constants build_gate_chain ties off.
bool chain_output_value(const std::vector<cells::CellType>& stages, bool in) {
  bool v = in;
  for (const cells::CellType type : stages) {
    std::vector<bool> pins = cells::chain_side_values(type);
    pins[0] = v;
    v = cells::cell_logic(type, pins);
  }
  return v;
}

}  // namespace chaindiff

TEST(LibSta, DifferentialAgainstTransientChains) {
  // The NLDM tables and the chains are measured through the same transient
  // engine but at different operating points: the library sees isolated
  // cells on the characterization grid, the chain sees each stage driven
  // by its real predecessor's waveform.  Bilinear interpolation + slew
  // propagation must close that gap to 15 % on every chain, impl and edge.
  const core::ModelLibrary& mlib = core::reference_model_library();
  runtime::ThreadPool pool;
  const charlib::CharOptions copts;  // default 3x3 grid, reference physics
  const charlib::Characterizer characterizer(
      mlib, copts, {}, runtime::ExecPolicy{&pool, nullptr});
  const double vdd = copts.ppa.vdd;
  const double half = 0.5 * vdd;

  using cells::CellType;
  using cells::Implementation;
  const std::vector<chaindiff::ChainCase> cases = {
      {Implementation::k2D,
       {CellType::kInv1, CellType::kNand2, CellType::kNor2},
       {1e-15, 2e-15, 1e-15},
       {}},
      {Implementation::kMiv1Channel,
       {CellType::kInv1, CellType::kAnd2, CellType::kNand2, CellType::kInv1,
        CellType::kNor2},
       {0.5e-15, 1e-15, 2e-15, 1e-15, 2e-15},
       {1}},
      // The slower MIV flavors keep their mid-chain loads lighter: a 2 fF
      // internal net already pushes a 2/4-channel gate's output transition
      // past the 100 ps slew-axis edge, and the point here is agreement
      // *inside* the characterized hull (clamping has its own tests).
      {Implementation::kMiv2Channel,
       {CellType::kInv1, CellType::kNor2, CellType::kInv1, CellType::kNand2,
        CellType::kAnd2, CellType::kInv1},
       {1e-15, 0.75e-15, 0.5e-15, 1e-15, 1.5e-15, 4e-15},
       {2}},
      {Implementation::kMiv4Channel,
       {CellType::kInv1, CellType::kNand2, CellType::kInv1, CellType::kNor2,
        CellType::kInv1, CellType::kAnd2, CellType::kNand2, CellType::kInv1},
       {1e-15, 1.5e-15, 1e-15, 0.5e-15, 1.5e-15, 1e-15, 1.5e-15, 4e-15},
       {3, 5}},
  };

  for (const chaindiff::ChainCase& cs : cases) {
    SCOPED_TRACE(std::string(cells::impl_name(cs.impl)) + " chain of " +
                 std::to_string(cs.stages.size()));
    ASSERT_EQ(cs.stages.front(), CellType::kInv1)
        << "first stage must be single-input so both STA launch edges "
           "traverse the chain, not a side-pin arc";

    // Characterize exactly the cells this chain instantiates.
    std::set<CellType> used(cs.stages.begin(), cs.stages.end());
    if (!cs.taps.empty()) used.insert(CellType::kInv1);
    std::vector<std::pair<CellType, Implementation>> jobs;
    for (const CellType t : used) jobs.emplace_back(t, cs.impl);
    const charlib::CharLibrary lib = characterizer.characterize(jobs);

    // Transistor-level reference: the same cells, stitched.
    const core::PpaEngine engine(mlib, copts.ppa);
    const cells::ModelSet models = engine.model_set(cs.impl);
    cells::GateChainSpec spec;
    spec.stages = cs.stages;
    spec.stage_loads = cs.loads;
    spec.fanout_taps = cs.taps;
    const cells::GeneratedCircuit gen = cells::build_gate_chain(
        spec, cs.impl, models, copts.ppa.parasitics, vdd);

    spice::TransientOptions topt;
    topt.t_stop = spec.t_delay + 2.0 * spec.t_width + 500e-12;
    topt.h_max = copts.ppa.h_max;
    topt.newton = copts.ppa.newton;
    const spice::TransientResult tran = spice::transient(gen.circuit, topt);
    ASSERT_TRUE(tran.ok) << tran.error;

    using waveform::EdgeKind;
    const auto& v_in = tran.v("in");
    const auto& v_out = tran.v(gen.probe_node);
    const auto d_rise = waveform::propagation_delay(
        v_in, v_out, half, half, 0.0, EdgeKind::kRise, EdgeKind::kAny);
    const auto d_fall = waveform::propagation_delay(
        v_in, v_out, half, half, spec.t_delay + spec.t_width - 50e-12,
        EdgeKind::kFall, EdgeKind::kAny);
    ASSERT_TRUE(d_rise.has_value());
    ASSERT_TRUE(d_fall.has_value());

    // Gate-level twin of the chain: pin 0 carries the chain, side pins tie
    // to constant primary inputs (their arcs launch at t=0 and can never
    // out-arrive the accumulating chain path past the first stage).
    bool need_tie0 = false, need_tie1 = false;
    for (const CellType t : cs.stages) {
      const std::vector<bool> side = cells::chain_side_values(t);
      for (std::size_t k = 1; k < side.size(); ++k)
        (side[k] ? need_tie1 : need_tie0) = true;
    }
    gatelevel::GateNetlist n(gen.name);
    n.add_input("in");
    if (need_tie0) n.add_input("tie0");
    if (need_tie1) n.add_input("tie1");
    LibStaOptions lopts;
    lopts.input_slew = spec.t_edge;
    lopts.loads.default_output_load = 0.0;  // every load is explicit below
    std::string prev = "in";
    for (std::size_t i = 0; i < cs.stages.size(); ++i) {
      const std::string si = std::to_string(i);
      const std::vector<bool> side = cells::chain_side_values(cs.stages[i]);
      std::vector<std::string> ins{prev};
      for (std::size_t k = 1; k < side.size(); ++k)
        ins.push_back(side[k] ? "tie1" : "tie0");
      const std::string out = "x" + std::to_string(i + 1);
      n.add_instance(cs.stages[i], "s" + si, ins, out);
      lopts.loads.extra_net_load[out] = cs.loads[i];
      if (std::find(cs.taps.begin(), cs.taps.end(), i) != cs.taps.end()) {
        n.add_instance(CellType::kInv1, "t" + si, {out}, "ty" + si);
        n.add_output("ty" + si);
        lopts.loads.extra_net_load["ty" + si] = copts.ppa.parasitics.c_load;
      }
      prev = out;
    }
    n.add_output(prev);
    n.finalize();

    const LibStaResult sta = run_library_sta(n, lib, cs.impl, lopts);
    EXPECT_TRUE(sta.missing.empty());
    std::ostringstream slews;
    for (const auto& [net, t] : sta.nets)
      slews << "  " << net << " rise " << t.rise.slew << " fall "
            << t.fall.slew << "\n";
    EXPECT_EQ(sta.clamped_lookups, 0u)
        << "chain operating point left the characterization grid; "
           "propagated slews:\n"
        << slews.str();

    // Input-rise drives the output to its in=1 value; map each stimulus
    // edge to the output edge it produces and compare per edge.
    const bool rise_makes_rise =
        chaindiff::chain_output_value(cs.stages, true);
    const LibNetTiming& po = sta.nets.at(prev);
    const double sta_in_rise = po.edge(rise_makes_rise).arrival;
    const double sta_in_fall = po.edge(!rise_makes_rise).arrival;
    EXPECT_NEAR(sta_in_rise, *d_rise, 0.15 * *d_rise)
        << "input-rise: STA " << sta_in_rise << " vs transient " << *d_rise;
    EXPECT_NEAR(sta_in_fall, *d_fall, 0.15 * *d_fall)
        << "input-fall: STA " << sta_in_fall << " vs transient " << *d_fall;
  }
}

// --- Library holes: structured missing-timing, never silent ----------------

namespace holes {

charlib::Table2D filled_table(const std::vector<double>& slews,
                              const std::vector<double>& loads, double value) {
  charlib::Table2D t(slews, loads);
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j) t.set(i, j, value);
  return t;
}

charlib::ArcTables make_arc(const charlib::CharLibrary& lib,
                            const std::string& pin, bool input_rise,
                            bool output_rise) {
  charlib::ArcTables arc;
  arc.pin = pin;
  arc.input_rise = input_rise;
  arc.output_rise = output_rise;
  arc.delay = filled_table(lib.slew_axis, lib.load_axis, 20e-12);
  arc.out_slew = filled_table(lib.slew_axis, lib.load_axis, 30e-12);
  arc.energy = filled_table(lib.slew_axis, lib.load_axis, 1e-15);
  return arc;
}

}  // namespace holes

TEST(Analyzer, LibraryHolesEmitMissingTimingDiagnostics) {
  // A library that knows INV1 — minus its fall arc — and nothing else:
  // both hole shapes (whole cell, single arc) in one design.
  charlib::CharLibrary lib;
  lib.slew_axis = {10e-12, 80e-12};
  lib.load_axis = {0.2e-15, 4e-15};
  charlib::CellChar inv;
  inv.type = cells::CellType::kInv1;
  inv.area = 1e-13;
  inv.input_cap = {{"A", 0.2e-15}};
  inv.arcs.push_back(holes::make_arc(lib, "A", true, false));
  lib.insert(cells::Implementation::k2D, inv);

  lint::DiagnosticSink sink;
  const Design d = parse_design(
      "design holes\ninput a\ninput b\noutput y\n"
      "gate INV1X1 u1 a n1\ngate NAND2X1 u2 n1 b y\n",
      sink);
  ASSERT_EQ(sink.num_errors(), 0u);

  AnalyzeOptions opts;
  opts.library = &lib;
  const AnalyzeReport report = analyze_design(d, default_timing_model(), opts);

  std::size_t cell_holes = 0, arc_holes = 0;
  for (const Diagnostic& diag : report.findings) {
    if (diag.rule != "missing-timing") continue;
    EXPECT_EQ(diag.severity, Severity::kError);
    if (diag.message.find("no characterized timing") != std::string::npos)
      ++cell_holes;
    if (diag.message.find("pin A has no characterized fall arc") !=
        std::string::npos)
      ++arc_holes;
  }
  EXPECT_EQ(cell_holes, 1u) << lint::render_text(report.findings);
  EXPECT_EQ(arc_holes, 1u) << lint::render_text(report.findings);
  EXPECT_GE(report.errors, 2u);
  // The pass still completes — holes degrade to recorded zero-delay
  // passthroughs, never a throw or a silent synthetic-model fallback.
  ASSERT_TRUE(report.libsta.has_value());
  EXPECT_EQ(report.libsta->missing.size(), 2u);
  ASSERT_TRUE(report.sta.has_value());
}

TEST(Analyzer, ClampedLookupsSurfaceAsExtrapolationInfo) {
  // Full INV1 entry over a deliberately tiny grid: the 20 ps default input
  // slew lies far past the 2 ps slew axis, so every lookup clamps and the
  // analyzer must say so.
  charlib::CharLibrary lib;
  lib.slew_axis = {1e-12, 2e-12};
  lib.load_axis = {0.1e-15, 0.2e-15};
  charlib::CellChar inv;
  inv.type = cells::CellType::kInv1;
  inv.area = 1e-13;
  inv.input_cap = {{"A", 0.2e-15}};
  inv.arcs.push_back(holes::make_arc(lib, "A", true, false));
  inv.arcs.push_back(holes::make_arc(lib, "A", false, true));
  lib.insert(cells::Implementation::k2D, inv);

  lint::DiagnosticSink sink;
  const Design d = parse_design(
      "design clamp\ninput a\noutput y\n"
      "gate INV1X1 u1 a n1\ngate INV1X1 u2 n1 y\n",
      sink);
  ASSERT_EQ(sink.num_errors(), 0u);

  AnalyzeOptions opts;
  opts.library = &lib;
  const AnalyzeReport report = analyze_design(d, default_timing_model(), opts);
  EXPECT_EQ(report.errors, 0u) << lint::render_text(report.findings);
  ASSERT_TRUE(report.libsta.has_value());
  EXPECT_GT(report.libsta->clamped_lookups, 0u);
  std::size_t extrapolation = 0;
  for (const Diagnostic& diag : report.findings) {
    if (diag.rule == "table-extrapolation") {
      EXPECT_EQ(diag.severity, Severity::kInfo);
      ++extrapolation;
    }
  }
  EXPECT_EQ(extrapolation, 1u) << lint::render_text(report.findings);
}

// --- Tier / MIV placement rules -------------------------------------------

TEST(TierRules, CleanPlacedBlockGetsSummaryOnly) {
  const gatelevel::GateNetlist n = gatelevel::ripple_carry_adder(4);
  const Design d = design_from_netlist(n);
  const place::Placer placer((layout::DesignRules()));
  const place::Placement placement =
      placer.place(n, cells::Implementation::kMiv1Channel,
                   place::Mode::kCoupled);
  lint::DiagnosticSink sink;
  const std::size_t errors = analyze_tiers(d, placement, sink);
  EXPECT_EQ(errors, 0u) << sink.render_text();
  EXPECT_EQ(count_rule(sink, "tier-summary"), 1u);
}

TEST(TierRules, CrossTierBudgetTrips) {
  const gatelevel::GateNetlist n = gatelevel::ripple_carry_adder(4);
  const Design d = design_from_netlist(n);
  const place::Placer placer((layout::DesignRules()));
  const place::Placement placement = placer.place(
      n, cells::Implementation::kMiv1Channel, place::Mode::kCoupled);
  TierRuleOptions opts;
  opts.cross_tier_net_budget = 1;  // every gate net crosses -> way over
  lint::DiagnosticSink sink;
  analyze_tiers(d, placement, sink, opts);
  EXPECT_EQ(count_rule(sink, "cross-tier-net-budget"), 1u);
}

TEST(TierRules, MissingAndUnknownInstances) {
  const gatelevel::GateNetlist n = gatelevel::ripple_carry_adder(2);
  const Design d = design_from_netlist(n);
  const place::Placer placer((layout::DesignRules()));
  place::Placement placement =
      placer.place(n, cells::Implementation::k2D, place::Mode::kCoupled);
  ASSERT_FALSE(placement.coupled.cells.empty());
  placement.coupled.cells.back().instance = "u_phantom";
  lint::DiagnosticSink sink;
  const std::size_t errors = analyze_tiers(d, placement, sink);
  EXPECT_EQ(count_rule(sink, "placement-missing-instance"), 1u);
  EXPECT_EQ(count_rule(sink, "placement-unknown-instance"), 1u);
  EXPECT_EQ(errors, 2u);
}

TEST(TierRules, OverlapDetected) {
  const gatelevel::GateNetlist n = gatelevel::ripple_carry_adder(2);
  const Design d = design_from_netlist(n);
  const place::Placer placer((layout::DesignRules()));
  place::Placement placement =
      placer.place(n, cells::Implementation::k2D, place::Mode::kCoupled);
  ASSERT_GE(placement.coupled.cells.size(), 2u);
  // Slam the second cell onto the first.
  placement.coupled.cells[1].x = placement.coupled.cells[0].x;
  placement.coupled.cells[1].y = placement.coupled.cells[0].y;
  lint::DiagnosticSink sink;
  analyze_tiers(d, placement, sink);
  EXPECT_GE(count_rule(sink, "cell-overlap"), 1u);
}

// --- Analyzer orchestration ------------------------------------------------

TEST(Analyzer, CleanBlockReportsStaAndNoErrors) {
  const Design d = design_from_netlist(gatelevel::ripple_carry_adder(4));
  AnalyzeOptions opts;
  const AnalyzeReport report =
      analyze_design(d, default_timing_model(), opts);
  EXPECT_EQ(report.errors, 0u) << lint::render_text(report.findings);
  ASSERT_TRUE(report.sta.has_value());
  EXPECT_GT(report.sta->worst_arrival, 0.0);
  EXPECT_FALSE(report.placement.has_value());
}

TEST(Analyzer, BrokenDesignSkipsStaButStillDiagnoses) {
  lint::DiagnosticSink parse_sink;
  const Design d = parse_design(
      "design dup\ninput a\noutput y\n"
      "gate INV1X1 u1 a y\ngate INV1X1 u2 a y\n",
      parse_sink);
  const AnalyzeReport report = analyze_design(d, default_timing_model());
  EXPECT_FALSE(report.sta.has_value());
  EXPECT_GE(report.errors, 1u);
  std::size_t skipped = 0;
  for (const Diagnostic& diag : report.findings) {
    if (diag.rule == "sta-skipped") ++skipped;
  }
  EXPECT_EQ(skipped, 1u);
}

TEST(Analyzer, ClockGatingEmitsTimingViolations) {
  const Design d = design_from_netlist(gatelevel::ripple_carry_adder(8));
  AnalyzeOptions opts;
  opts.sta.clock_period = 1e-12;  // impossible
  const AnalyzeReport report =
      analyze_design(d, default_timing_model(), opts);
  std::size_t violations = 0;
  for (const Diagnostic& diag : report.findings) {
    if (diag.rule == "timing-violation") {
      EXPECT_EQ(diag.severity, Severity::kError);
      ++violations;
    }
  }
  // Every primary output of the adder (s0..s7, c8, cout_alias) misses a
  // 1 ps clock.
  EXPECT_EQ(violations, 10u);
}

TEST(Analyzer, PlacementPassRunsTierRules) {
  const Design d = design_from_netlist(gatelevel::ripple_carry_adder(4));
  AnalyzeOptions opts;
  opts.impl = cells::Implementation::kMiv2Channel;
  opts.place_mode = place::Mode::kPerTier;
  const AnalyzeReport report =
      analyze_design(d, default_timing_model(), opts);
  ASSERT_TRUE(report.placement.has_value());
  std::size_t summaries = 0;
  for (const Diagnostic& diag : report.findings) {
    if (diag.rule == "tier-summary") ++summaries;
  }
  EXPECT_EQ(summaries, 1u);
}

TEST(Analyzer, DefaultTimingModelCoversEveryCell) {
  const gatelevel::TimingModel m = default_timing_model();
  for (cells::Implementation impl : cells::all_implementations()) {
    EXPECT_GT(m.slope(impl), 0.0);
    for (cells::CellType t : cells::all_cells()) {
      const gatelevel::CellTiming& ct = m.timing(impl, t);
      EXPECT_GT(ct.delay_ref, 0.0);
      EXPECT_GT(ct.input_cap, 0.0);
      EXPECT_GT(ct.slew_ref, 0.0);
    }
  }
  // Fig. 5(a) ordering: 1-channel fastest, 4-channel slowest.
  const auto d = [&](cells::Implementation impl) {
    return m.timing(impl, cells::CellType::kInv1).delay_ref;
  };
  EXPECT_LT(d(cells::Implementation::kMiv1Channel),
            d(cells::Implementation::k2D));
  EXPECT_GT(d(cells::Implementation::kMiv4Channel),
            d(cells::Implementation::k2D));
}

TEST(Analyzer, TimingModelHolesEmitMissingTimingPerInstance) {
  // A timing model without NAND2 for 2D: every NAND2 instance is a
  // missing-timing error and passes its inputs through at zero delay, the
  // same way a characterized library's holes do.
  gatelevel::TimingModel m = default_timing_model();
  m.cells[cells::Implementation::k2D].erase(cells::CellType::kNand2);
  lint::DiagnosticSink sink;
  const Design d = parse_design(
      "design holes\ninput a\ninput b\noutput y\n"
      "gate NAND2X1 u1 a b n1\ngate INV1X1 u2 n1 n2\n"
      "gate NAND2X1 u3 n2 b y\n",
      sink);
  ASSERT_EQ(sink.num_errors(), 0u);
  const AnalyzeReport report = analyze_design(d, m);

  std::vector<std::string> holes;
  for (const Diagnostic& diag : report.findings) {
    EXPECT_NE(diag.rule, "sta-skipped");
    if (diag.rule != "missing-timing") continue;
    EXPECT_EQ(diag.severity, Severity::kError);
    EXPECT_NE(diag.message.find("cell NAND2X1 has no characterized timing"),
              std::string::npos)
        << diag.message;
    holes.push_back(diag.element);
  }
  EXPECT_EQ(holes, (std::vector<std::string>{"u1", "u3"}));
  EXPECT_EQ(report.errors, 2u);
  // The pass completes: only the INV contributes delay.
  ASSERT_TRUE(report.sta.has_value());
  const double inv =
      default_timing_model()
          .timing(cells::Implementation::k2D, cells::CellType::kInv1)
          .delay_ref;
  EXPECT_GT(report.sta->worst_arrival, 0.0);
  EXPECT_LT(report.sta->worst_arrival, 2.0 * inv);
}

// --- Mutation decks: diagnose or pass, never crash -------------------------

TEST(FuzzDecks, EveryGnlDeckDiagnosesOrPasses) {
  namespace fs = std::filesystem;
  const fs::path corpus(MIVTX_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::exists(corpus));
  std::size_t decks = 0, broken = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() != ".gnl") continue;
    ++decks;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file.good()) << entry.path();
    std::stringstream text;
    text << file.rdbuf();

    lint::DiagnosticSink sink;
    sink.set_default_file(entry.path().filename().string());
    const Design d = parse_design(text.str(), sink);
    AnalyzeOptions opts;
    opts.place_mode = place::Mode::kCoupled;  // exercise every pass
    const AnalyzeReport report =
        analyze_design(d, default_timing_model(), opts);

    const std::size_t errors = sink.num_errors() + report.errors;
    const bool is_mutant =
        entry.path().filename().string().rfind("gnl_mut_", 0) == 0;
    if (is_mutant) {
      EXPECT_GE(errors, 1u)
          << entry.path() << " should have been diagnosed";
      ++broken;
    } else {
      EXPECT_EQ(errors, 0u)
          << entry.path() << ": " << lint::render_text(report.findings);
    }
  }
  EXPECT_GE(decks, 6u);
  EXPECT_GE(broken, 4u);
}

}  // namespace
}  // namespace mivtx::analyze
