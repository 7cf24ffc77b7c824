// mivtx::verify: JSON round-trips, divergence measurement and first-failure
// localization, the differential solver matrix, the property engine, and
// golden-baseline rendering/drift detection (including the "a perturbed
// baseline must fail" guarantee the CI golden job depends on).
//
// SlowVerify* suites run the full 14x4 cell matrix and the PPA scheduling
// axes; ctest labels them "slow" so `ctest -L tier1` stays quick.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/reference_cards.h"
#include "temp_dir.h"
#include "verify/compare.h"
#include "verify/differential.h"
#include "verify/golden.h"
#include "verify/json.h"
#include "verify/properties.h"
#include "waveform/waveform.h"

namespace mivtx {
namespace {

// ------------------------------------------------------------------ json

TEST(VerifyJson, ParsesAndRoundTripsTheGrammar) {
  const std::string text =
      R"({"a": 1.5, "b": [true, false, null, "x\n\"y\""], "c": {"n": -2e-3}})";
  const verify::Json doc = verify::Json::parse(text);
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 1.5);
  const verify::Json& arr = *doc.find("b");
  ASSERT_EQ(arr.items().size(), 4u);
  EXPECT_TRUE(arr.items()[0].as_bool());
  EXPECT_TRUE(arr.items()[2].is_null());
  EXPECT_EQ(arr.items()[3].as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(doc.find("c")->find("n")->as_number(), -2e-3);
  // Round-trip: parse(dump(x)) == x structurally, and dump is stable.
  const std::string once = doc.dump(2);
  EXPECT_EQ(verify::Json::parse(once).dump(2), once);
}

TEST(VerifyJson, PreservesInsertionOrderAndNumberFidelity) {
  verify::Json obj = verify::Json::object();
  obj.set("zeta", verify::Json::number(0.1 + 0.2));  // not representable
  obj.set("alpha", verify::Json::number(1e-300));
  const std::string text = obj.dump();
  // "zeta" first: objects are ordered by insertion, not key.
  EXPECT_LT(text.find("zeta"), text.find("alpha"));
  const verify::Json back = verify::Json::parse(text);
  EXPECT_EQ(back.find("zeta")->as_number(), 0.1 + 0.2);  // bit-exact
  EXPECT_EQ(back.find("alpha")->as_number(), 1e-300);
}

TEST(VerifyJson, RejectsMalformedInputWithOffset) {
  EXPECT_THROW(verify::Json::parse("{\"a\": }"), Error);
  EXPECT_THROW(verify::Json::parse("[1, 2"), Error);
  EXPECT_THROW(verify::Json::parse("nul"), Error);
  EXPECT_THROW(verify::Json::parse("{} trailing"), Error);
}

// --------------------------------------------------------------- compare

waveform::Waveform ramp_wave(double slope, double until = 1.0, double dt = 0.1) {
  waveform::Waveform w;
  for (double t = 0.0; t <= until + 1e-12; t += dt) w.append(t, slope * t);
  return w;
}

TEST(VerifyCompare, LocalizesFirstDivergence) {
  // b drifts linearly away from a; with tol 0.25 the first union-grid point
  // over tolerance is t = 0.3 (divergence 0.1 * t / 0.1 ... exact: 0.1*t).
  const waveform::Waveform a = ramp_wave(1.0);
  const waveform::Waveform b = ramp_wave(2.0);
  const verify::SignalDivergence d =
      verify::compare_waveforms("V(x)", a, b, 0.25);
  EXPECT_NEAR(d.max_abs, 1.0, 1e-12);   // at t = 1.0
  EXPECT_NEAR(d.t_worst, 1.0, 1e-12);
  EXPECT_NEAR(d.t_first, 0.3, 1e-12);   // |a-b| = 0.3 > 0.25 first here
  EXPECT_GT(d.rms, 0.0);
  EXPECT_LT(d.rms, d.max_abs);
}

TEST(VerifyCompare, UnionGridCatchesBetweenSampleDivergence) {
  // a has a spike at t=0.5 that b's grid never sampled; comparing only on
  // b's grid would miss it entirely.
  waveform::Waveform a;
  a.append(0.0, 0.0);
  a.append(0.5, 1.0);
  a.append(1.0, 0.0);
  waveform::Waveform b;
  b.append(0.0, 0.0);
  b.append(1.0, 0.0);
  const verify::SignalDivergence d = verify::compare_waveforms("x", a, b, 0.1);
  EXPECT_NEAR(d.max_abs, 1.0, 1e-12);
  EXPECT_NEAR(d.t_worst, 0.5, 1e-12);
}

TEST(VerifyCompare, MissingSignalFailsTheSet) {
  std::map<std::string, waveform::Waveform> a, b;
  a["n1"] = ramp_wave(1.0);
  b["n1"] = ramp_wave(1.0);
  a["only_in_a"] = ramp_wave(0.5);
  const verify::WaveformSetComparison c =
      verify::compare_waveform_sets(a, b, 1e-9);
  EXPECT_FALSE(c.pass);
  ASSERT_EQ(c.missing.size(), 1u);
  EXPECT_EQ(c.missing[0], "only_in_a (only in A)");
}

TEST(VerifyCompare, SolutionComparisonNamesWorstUnknown) {
  spice::Circuit ckt;
  const spice::NodeId a = ckt.node("a"), b = ckt.node("b");
  ckt.add_resistor("R1", a, b, 1e3);
  ckt.add_resistor("R2", b, spice::kGround, 1e3);
  ckt.add_vsource("V1", a, spice::kGround, spice::SourceSpec::DC(1.0));
  const std::size_t n = ckt.system_size();
  linalg::Vector x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = y[i] = 0.25;
  const std::size_t victim = ckt.node_unknown(b);
  y[victim] += 1e-3;
  const verify::SolutionComparison c =
      verify::compare_solutions(ckt, x, y, 1e-9);
  EXPECT_FALSE(c.pass);
  EXPECT_NEAR(c.max_abs, 1e-3, 1e-15);
  EXPECT_EQ(c.worst_index, victim);
  EXPECT_EQ(c.worst_unknown, ckt.unknown_name(victim));
}

// ---------------------------------------------------------- differential

TEST(VerifyDifferential, NetlistCaseHonorsTranDirective) {
  const verify::DiffCase c = verify::netlist_case(
      "rc", "t\nV1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n.tran 1p 7n\n.end\n");
  EXPECT_NEAR(c.t_stop, 7e-9, 1e-21);
}

TEST(VerifyDifferential, ExampleNetlistAgreesAcrossBackends) {
  const verify::DiffCase c = verify::netlist_case(
      "divider",
      "t\nV1 in 0 PULSE(0 1 1n 1n 1n 5n)\nR1 in mid 1k\nR2 mid 0 2k\n"
      "C1 mid 0 1p\n.tran 0.1n 10n\n.end\n");
  const verify::DiffReport report = verify::run_differential({c});
  EXPECT_TRUE(report.pass) << (report.reports.empty()
                                   ? std::string("no reports")
                                   : report.reports.front().summary());
  EXPECT_EQ(report.cases, 1u);
  // dense-vs-{sparse, fullfactor, bypass, simd, simd-bypass, bicgstab}.
  EXPECT_EQ(report.comparisons, 6u);
}

TEST(VerifyDifferential, DetectsAnInjectedDivergence) {
  // Same topology, one component value nudged: the matrix must flag it and
  // name where it first diverged.  (Uses two single-config matrices so the
  // "reference" and "candidate" genuinely differ.)
  verify::DiffCase honest = verify::netlist_case(
      "rc", "t\nV1 in 0 PULSE(0 1 1n 1n 1n 5n)\nR1 in out 1k\n"
            "C1 out 0 1p\n.tran 0.1n 10n\n.end\n");
  verify::DiffCase nudged = verify::netlist_case(
      "rc", "t\nV1 in 0 PULSE(0 1 1n 1n 1n 5n)\nR1 in out 1.1k\n"
            "C1 out 0 1p\n.tran 0.1n 10n\n.end\n");
  // Run both through one backend and compare the transients directly.
  const auto run = [](const verify::DiffCase& c) {
    spice::TransientOptions topt;
    topt.t_stop = c.t_stop;
    return spice::transient(c.circuit, topt);
  };
  const verify::WaveformSetComparison cmp =
      verify::compare_transients(run(honest), run(nudged), 1e-6);
  EXPECT_FALSE(cmp.pass);
  EXPECT_FALSE(cmp.first_signal.empty());
  EXPECT_GT(cmp.t_first, 0.0);
}

TEST(SlowVerifyDifferential, FullCellMatrixWithinTolerance) {
  // The acceptance bar: all 14 cells x 4 implementations, dense vs sparse
  // vs fullfactor vs the batched SIMD kernel at 1e-9 (the bypass configs
  // at their own production bound).
  const verify::DiffReport report = verify::run_differential(
      verify::cell_corpus(core::reference_model_library()));
  EXPECT_TRUE(report.pass);
  EXPECT_EQ(report.cases, 56u);
  EXPECT_EQ(report.failures, 0u);
  for (const verify::CaseConfigReport& r : report.reports) {
    EXPECT_TRUE(r.ok) << r.summary();
    if (r.tolerance <= 1e-9) {
      EXPECT_LE(r.dcop.max_abs, 1e-9) << r.summary();
      EXPECT_LE(r.transient.max_abs, 1e-9) << r.summary();
    }
  }
}

TEST(SlowVerifyDifferential, PpaBitIdenticalAcrossSchedulingAxes) {
  verify::PpaDiffOptions opts;
  opts.jobs = 3;
  opts.max_cells = 8;  // full 56 runs in the verify CLI / CI job
  const verify::PpaDiffReport report =
      verify::run_ppa_differential(core::reference_model_library(), opts);
  EXPECT_TRUE(report.pass);
  for (const verify::PpaEquivalence& row : report.rows)
    EXPECT_TRUE(row.ok) << row.cell << ": " << row.detail;
}

// ------------------------------------------------------------ properties

TEST(VerifyProperties, AllPropertiesHoldAtTwoSeeds) {
  for (const std::uint64_t seed : {20230913ull, 424242ull}) {
    verify::PropertyOptions opts;
    opts.seed = seed;
    opts.cases = 6;
    const std::vector<verify::PropertyResult> results =
        verify::run_properties(opts);
    EXPECT_EQ(results.size(), 11u);
    for (const verify::PropertyResult& r : results)
      EXPECT_TRUE(r.pass) << r.name << " (seed " << seed << "): " << r.detail
                          << " worst " << r.worst << " bound " << r.bound;
  }
}

TEST(VerifyProperties, ResultsAreDeterministicPerSeed) {
  verify::PropertyOptions opts;
  opts.cases = 4;
  const auto a = verify::run_properties(opts);
  const auto b = verify::run_properties(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].worst, b[i].worst);  // bit-identical replay
  }
}

// ---------------------------------------------------------------- golden

TEST(VerifyGolden, RenderIsByteStableAndSelfCheckPasses) {
  verify::GoldenContext ctx;
  const verify::GoldenSuiteResult t2 = verify::compute_golden_suite("table2", ctx);
  EXPECT_FALSE(t2.metrics.empty());
  const std::string a = verify::render_baseline(t2, "abc123");
  const std::string b = verify::render_baseline(t2, "abc123");
  EXPECT_EQ(a, b);
  const verify::GoldenCheck check = verify::check_against_baseline(t2, a);
  EXPECT_TRUE(check.pass) << check.summary();
  EXPECT_EQ(check.drifted, 0u);
}

TEST(VerifyGolden, PerturbedBaselineFails) {
  // The CI golden job's guarantee in miniature: take a real baseline,
  // perturb one value beyond its rtol, and the check must fail and name
  // the metric.
  verify::GoldenContext ctx;
  const verify::GoldenSuiteResult t1 = verify::compute_golden_suite("table1", ctx);
  verify::Json doc =
      verify::Json::parse(verify::render_baseline(t1, "deadbeef"));
  verify::Json* metrics = const_cast<verify::Json*>(doc.find("metrics"));
  ASSERT_NE(metrics, nullptr);
  ASSERT_FALSE(metrics->members().empty());
  const std::string victim = metrics->members().front().first;
  verify::Json entry = verify::Json::object();
  entry.set("value",
            verify::Json::number(
                metrics->members().front().second.find("value")->as_number() *
                    1.02 +
                1e-12));
  entry.set("rtol", verify::Json::number(1e-6));
  metrics->set(victim, std::move(entry));

  const verify::GoldenCheck check =
      verify::check_against_baseline(t1, doc.dump(2));
  EXPECT_FALSE(check.pass);
  EXPECT_EQ(check.drifted, 1u);
  bool found = false;
  for (const verify::MetricCheck& mc : check.checks)
    if (mc.name == victim) {
      found = true;
      EXPECT_EQ(mc.status, verify::MetricStatus::kDrifted);
    }
  EXPECT_TRUE(found);
}

TEST(VerifyGolden, SchemaDriftIsDrift) {
  verify::GoldenContext ctx;
  verify::GoldenSuiteResult t2 = verify::compute_golden_suite("table2", ctx);
  const std::string baseline = verify::render_baseline(t2, "x");
  // The run now produces an extra metric the baseline never recorded.
  t2.metrics.push_back({"card.brand_new", 1.0, 1e-6});
  verify::GoldenCheck check = verify::check_against_baseline(t2, baseline);
  EXPECT_FALSE(check.pass);
  // And a metric vanishing from the run is equally a failure.
  t2.metrics.clear();
  t2.metrics.push_back({"card.level", 70.0, 1e-6});
  check = verify::check_against_baseline(t2, baseline);
  EXPECT_FALSE(check.pass);
}

TEST(VerifyGolden, BlockPpaBaselineMatchesAndPerturbedCopyFails) {
  // The block-level PPA gate end to end: the measured suite must match the
  // checked-in baseline, and a copy with one delay nudged past its rtol
  // must fail naming exactly that metric — the must-fail self-test the CI
  // blockppa job relies on.
  verify::GoldenContext ctx;
  const verify::GoldenSuiteResult measured =
      verify::compute_golden_suite("blockppa", ctx);
  ASSERT_FALSE(measured.metrics.empty());

  const std::string path = std::string(MIVTX_GOLDEN_DIR) + "/blockppa.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path << " missing — run mivtx_verify --golden "
                            "--refresh-goldens --suites blockppa";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string baseline = ss.str();
  const verify::GoldenCheck check =
      verify::check_against_baseline(measured, baseline);
  EXPECT_TRUE(check.pass) << check.summary();

  verify::Json doc = verify::Json::parse(baseline);
  verify::Json* metrics = const_cast<verify::Json*>(doc.find("metrics"));
  ASSERT_NE(metrics, nullptr);
  const std::string victim = "rca16.2d.delay_s";
  const verify::Json* old = metrics->find(victim);
  ASSERT_NE(old, nullptr);
  verify::Json entry = verify::Json::object();
  entry.set("value",
            verify::Json::number(old->find("value")->as_number() * 1.10));
  entry.set("rtol", verify::Json::number(old->find("rtol")->as_number()));
  metrics->set(victim, std::move(entry));

  const verify::GoldenCheck perturbed =
      verify::check_against_baseline(measured, doc.dump(2));
  EXPECT_FALSE(perturbed.pass);
  EXPECT_EQ(perturbed.drifted, 1u);
  bool found = false;
  for (const verify::MetricCheck& mc : perturbed.checks)
    if (mc.name == victim) {
      found = true;
      EXPECT_EQ(mc.status, verify::MetricStatus::kDrifted);
    }
  EXPECT_TRUE(found);
}

TEST(VerifyGolden, CheckedInBaselinesMatchCheapSuites) {
  // Guards the actual files in tests/golden/ for the suites cheap enough
  // for tier1; table3/fig4/fig5 run in the CI golden job via the CLI.
  verify::GoldenContext ctx;
  for (const std::string suite : {"table1", "table2"}) {
    const std::string path =
        std::string(MIVTX_GOLDEN_DIR) + "/" + suite + ".json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path << " missing — run mivtx_verify --golden "
                              "--refresh-goldens";
    std::stringstream ss;
    ss << in.rdbuf();
    const verify::GoldenCheck check = verify::check_against_baseline(
        verify::compute_golden_suite(suite, ctx), ss.str());
    EXPECT_TRUE(check.pass) << check.summary();
  }
}

}  // namespace
}  // namespace mivtx
