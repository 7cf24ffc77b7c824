// Tests for mivtx::charlib: Table2D bilinear lookup semantics, the .mlib
// byte-stable text format and its rejection paths, and the NLDM
// characterizer (physical sanity + artifact-cache round trip on the mini
// grid).  The randomized bilinear/round-trip invariants live in the verify
// property engine; these are the directed unit cases.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "charlib/characterize.h"
#include "charlib/library.h"
#include "common/error.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "runtime/artifact_cache.h"
#include "runtime/exec_policy.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "temp_dir.h"

namespace mivtx::charlib {
namespace {

Table2D filled(const std::vector<double>& slews,
               const std::vector<double>& loads, double value) {
  Table2D t(slews, loads);
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j) t.set(i, j, value);
  return t;
}

// --- Table2D ---------------------------------------------------------------

TEST(Table2D, ValidatesAxes) {
  EXPECT_THROW(Table2D({}, {1e-15}), Error);
  EXPECT_THROW(Table2D({1e-12}, {}), Error);
  EXPECT_THROW(Table2D({1e-12, 1e-12}, {1e-15}), Error);  // not strictly up
  EXPECT_THROW(Table2D({2e-12, 1e-12}, {1e-15}), Error);
  EXPECT_NO_THROW(Table2D({1e-12}, {1e-15}));  // 1x1 is a legal table
}

TEST(Table2D, BilinearReproducesBilinearFunctionsExactly) {
  // f(s, l) = a + b*s + c*l + d*s*l is in the bilinear family, so the
  // interpolant must reproduce it at any in-hull point, not just nodes.
  const std::vector<double> slews{4e-12, 20e-12, 100e-12};
  const std::vector<double> loads{0.1e-15, 1e-15, 8e-15};
  const auto f = [](double s, double l) {
    return 5e-12 + 0.8 * s + 2e3 * l + 4e14 * s * l;
  };
  Table2D t(slews, loads);
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j)
      t.set(i, j, f(slews[i], loads[j]));

  for (const double s : {4e-12, 7e-12, 20e-12, 55e-12, 100e-12}) {
    for (const double l : {0.1e-15, 0.4e-15, 1e-15, 5e-15, 8e-15}) {
      const LookupResult r = t.lookup(s, l);
      EXPECT_FALSE(r.clamped());
      EXPECT_NEAR(r.value, f(s, l), 1e-12 * std::abs(f(s, l)));
    }
  }
}

TEST(Table2D, ClampsAndFlagsPerAxis) {
  const std::vector<double> slews{10e-12, 80e-12};
  const std::vector<double> loads{0.2e-15, 4e-15};
  Table2D t(slews, loads);
  t.set(0, 0, 1.0);
  t.set(0, 1, 2.0);
  t.set(1, 0, 3.0);
  t.set(1, 1, 4.0);

  const LookupResult below_slew = t.lookup(1e-12, 1e-15);
  EXPECT_TRUE(below_slew.clamped_slew);
  EXPECT_FALSE(below_slew.clamped_load);
  EXPECT_DOUBLE_EQ(below_slew.value, t.lookup(10e-12, 1e-15).value);

  const LookupResult beyond_load = t.lookup(40e-12, 1e-12);
  EXPECT_FALSE(beyond_load.clamped_slew);
  EXPECT_TRUE(beyond_load.clamped_load);
  EXPECT_DOUBLE_EQ(beyond_load.value, t.lookup(40e-12, 4e-15).value);

  const LookupResult corner = t.lookup(1e-9, 1e-12);
  EXPECT_TRUE(corner.clamped_slew);
  EXPECT_TRUE(corner.clamped_load);
  EXPECT_DOUBLE_EQ(corner.value, t.at(1, 1));

  EXPECT_FALSE(t.lookup(10e-12, 0.2e-15).clamped());  // hull edge is inside
}

// --- CellChar / CharLibrary ------------------------------------------------

CellChar make_inv_entry(const CharLibrary& lib) {
  CellChar inv;
  inv.type = cells::CellType::kInv1;
  inv.area = 1.5e-13;
  inv.input_cap = {{"A", 0.25e-15}};
  for (const bool input_rise : {true, false}) {
    ArcTables arc;
    arc.pin = "A";
    arc.input_rise = input_rise;
    arc.output_rise = !input_rise;
    arc.delay = filled(lib.slew_axis, lib.load_axis, 20e-12);
    arc.out_slew = filled(lib.slew_axis, lib.load_axis, 30e-12);
    arc.energy = filled(lib.slew_axis, lib.load_axis, 1e-15);
    inv.arcs.push_back(arc);
  }
  return inv;
}

TEST(CharLibraryUnit, FindArcAndPinCap) {
  CharLibrary lib;
  lib.slew_axis = {10e-12, 80e-12};
  lib.load_axis = {0.2e-15, 4e-15};
  lib.insert(cells::Implementation::k2D, make_inv_entry(lib));

  const CellChar* inv = lib.find(cells::Implementation::k2D,
                                 cells::CellType::kInv1);
  ASSERT_NE(inv, nullptr);
  EXPECT_NE(inv->find_arc("A", true), nullptr);
  EXPECT_NE(inv->find_arc("A", false), nullptr);
  EXPECT_EQ(inv->find_arc("B", true), nullptr);  // unknown pin = hole
  EXPECT_DOUBLE_EQ(inv->pin_cap("A"), 0.25e-15);
  EXPECT_DOUBLE_EQ(inv->pin_cap("B"), 0.0);

  EXPECT_EQ(lib.find(cells::Implementation::kMiv1Channel,
                     cells::CellType::kInv1),
            nullptr);
  EXPECT_EQ(lib.find(cells::Implementation::k2D, cells::CellType::kNand2),
            nullptr);
  EXPECT_EQ(lib.num_cells(), 1u);
}

TEST(CharLibraryUnit, InsertRejectsGridMismatch) {
  CharLibrary lib;
  lib.slew_axis = {10e-12, 80e-12};
  lib.load_axis = {0.2e-15, 4e-15};

  CharLibrary other;
  other.slew_axis = {5e-12, 40e-12};  // different grid
  other.load_axis = lib.load_axis;
  EXPECT_THROW(lib.insert(cells::Implementation::k2D, make_inv_entry(other)),
               Error);
  EXPECT_TRUE(lib.empty());
  EXPECT_NO_THROW(lib.insert(cells::Implementation::k2D,
                             make_inv_entry(lib)));
}

TEST(CharLibraryUnit, TextRoundTripIsByteStable) {
  CharLibrary lib;
  lib.slew_axis = {10e-12, 80e-12};
  lib.load_axis = {0.2e-15, 4e-15};
  lib.insert(cells::Implementation::k2D, make_inv_entry(lib));
  lib.insert(cells::Implementation::kMiv4Channel, make_inv_entry(lib));

  const std::string text = lib.to_text();
  const CharLibrary back = CharLibrary::from_text(text);
  EXPECT_TRUE(back == lib);
  EXPECT_EQ(back.to_text(), text);
}

TEST(CharLibraryUnit, ParserRejectsMalformedInput) {
  CharLibrary lib;
  lib.slew_axis = {10e-12, 80e-12};
  lib.load_axis = {0.2e-15, 4e-15};
  lib.insert(cells::Implementation::k2D, make_inv_entry(lib));
  const std::string good = lib.to_text();

  const std::vector<std::pair<const char*, std::string>> bad = {
      {"empty", ""},
      {"bad magic", "mivtx-sprinkles 1\nend\n"},
      {"future version", "mivtx-charlib 99\nend\n"},
      {"unknown cell",
       "mivtx-charlib 1\nslews 1 1e-11\nloads 1 2e-16\nimpl 2d\n"
       "cell WARPCOREX1\nendcell\nend\n"},
      {"unknown impl tag",
       "mivtx-charlib 1\nslews 1 1e-11\nloads 1 2e-16\nimpl 9ch\nend\n"},
      {"axis count mismatch",
       "mivtx-charlib 1\nslews 3 1e-11 8e-11\nloads 1 2e-16\nend\n"},
      {"non-ascending axis",
       "mivtx-charlib 1\nslews 2 8e-11 1e-11\nloads 1 2e-16\nend\n"},
      {"non-finite value", good.substr(0, good.find("2e-11")) + "nan" +
                               good.substr(good.find("2e-11") + 5)},
      {"truncated", good.substr(0, good.size() / 2)},
      {"trailing garbage", good + "cell INV1X1\n"},
  };
  for (const auto& [name, text] : bad) {
    SCOPED_TRACE(name);
    EXPECT_THROW(CharLibrary::from_text(text), Error);
  }
  // A duplicate arc of an otherwise well-formed cell must be rejected too.
  const std::string arc_line = "arc A rise fall\n";
  const std::size_t pos = good.find(arc_line);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t arc_end = good.find("arc A fall", pos);
  ASSERT_NE(arc_end, std::string::npos);
  const std::string dup = good.substr(0, arc_end) +
                          good.substr(pos, arc_end - pos) +
                          good.substr(arc_end);
  EXPECT_THROW(CharLibrary::from_text(dup), Error);
}

TEST(CharLibraryUnit, ImplTagsRoundTrip) {
  for (const cells::Implementation impl : cells::all_implementations()) {
    EXPECT_EQ(impl_from_tag(impl_tag(impl)), impl);
  }
  EXPECT_THROW(impl_from_tag("3ch"), Error);
  EXPECT_THROW(impl_from_tag(""), Error);
}

// --- Characterizer ---------------------------------------------------------

TEST(Characterize, GridPresetsAreWellFormed) {
  for (const CharGrid& g : {default_char_grid(), mini_char_grid()}) {
    // Table2D's constructor enforces non-empty strictly-ascending axes.
    EXPECT_NO_THROW(Table2D(g.slews, g.loads));
  }
  EXPECT_GT(default_char_grid().slews.size(),
            mini_char_grid().slews.size());
}

TEST(Characterize, Inv1TablesArePhysical) {
  runtime::ThreadPool pool;
  CharOptions opts;
  opts.grid = mini_char_grid();
  const Characterizer characterizer(core::reference_model_library(), opts, {},
                                    runtime::ExecPolicy{&pool, nullptr});
  const CellChar inv = characterizer.characterize_cell(
      cells::CellType::kInv1, cells::Implementation::k2D);

  EXPECT_EQ(inv.type, cells::CellType::kInv1);
  EXPECT_GT(inv.area, 0.0);
  ASSERT_EQ(inv.input_cap.size(), 1u);
  EXPECT_GT(inv.input_cap[0].second, 0.0);
  ASSERT_EQ(inv.arcs.size(), 2u);  // one pin, both input edges
  for (const ArcTables& arc : inv.arcs) {
    EXPECT_EQ(arc.pin, "A");
    // An inverter: the output edge opposes the input edge.
    EXPECT_EQ(arc.output_rise, !arc.input_rise);
    for (std::size_t i = 0; i < arc.delay.rows(); ++i) {
      for (std::size_t j = 0; j < arc.delay.cols(); ++j) {
        EXPECT_GT(arc.delay.at(i, j), 0.0);
        EXPECT_GT(arc.out_slew.at(i, j), 0.0);
      }
      // Heavier load, slower cell: delay is monotone along the load axis.
      EXPECT_LT(arc.delay.at(i, 0), arc.delay.at(i, arc.delay.cols() - 1));
    }
  }
}

TEST(Characterize, ArtifactCacheRoundTripsEntries) {
  const testutil::ScopedTempDir tmp("charlib_cache");
  runtime::ArtifactCache::Options copts;
  copts.disk_dir = tmp.path().string();
  runtime::ArtifactCache cache(copts);
  runtime::ThreadPool pool;
  CharOptions opts;
  opts.grid = mini_char_grid();
  const Characterizer characterizer(core::reference_model_library(), opts, {},
                                    runtime::ExecPolicy{&pool, &cache});

  const double computed =
      runtime::Metrics::global().counter_total("charlib.computed");
  const double hits =
      runtime::Metrics::global().counter_total("charlib.cache_hit");
  const CellChar cold = characterizer.characterize_cell(
      cells::CellType::kInv1, cells::Implementation::kMiv1Channel);
  const CellChar warm = characterizer.characterize_cell(
      cells::CellType::kInv1, cells::Implementation::kMiv1Channel);
  EXPECT_TRUE(warm == cold);
  EXPECT_DOUBLE_EQ(
      runtime::Metrics::global().counter_total("charlib.computed"),
      computed + 1.0);
  EXPECT_DOUBLE_EQ(
      runtime::Metrics::global().counter_total("charlib.cache_hit"),
      hits + 1.0);

  // A different grid must key differently — no false sharing.
  CharOptions other = opts;
  other.grid.loads.back() *= 2.0;
  const Characterizer characterizer2(core::reference_model_library(), other,
                                     {}, runtime::ExecPolicy{&pool, &cache});
  EXPECT_NE(characterizer
                .cell_key(cells::CellType::kInv1,
                          cells::Implementation::kMiv1Channel)
                .digest,
            characterizer2
                .cell_key(cells::CellType::kInv1,
                          cells::Implementation::kMiv1Channel)
                .digest);
}

// Known limit of the fixed probe window (PpaOptions::t_width = 500 ps): at
// the default grid's 4 ps x 8 fF corner the slow output of XOR2X1 and
// NOR3X1 (2D, reference cards) crosses vdd/2 but never completes its
// 10-90% transition inside its half window -- XOR2X1 after the rising
// input edge, NOR3X1 (rising output) after the falling one.  The probe
// reports a missing slew crossing, not a failed transient, and the
// characterizer names the grid point, pin, edge and reason.  Sizing the
// window per point turns these into kOk.
TEST(Characterize, SlowCornerMissesSlewCrossingNotTransient) {
  const core::ModelLibrary& lib = core::reference_model_library();
  const cells::ModelSet models =
      core::PpaEngine(lib).model_set(cells::Implementation::k2D);
  core::PpaOptions popt;
  popt.t_edge = 4e-12;
  popt.parasitics.c_load = 8e-15;
  for (const auto& [type, failed_rise] :
       {std::pair{cells::CellType::kXor2, true},
        std::pair{cells::CellType::kNor3, false}}) {
    for (std::size_t pin = 0; pin < cells::cell_num_inputs(type); ++pin) {
      const core::PinProbeLane lane =
          core::probe_pin(type, cells::Implementation::k2D, pin,
                          *core::PpaEngine::sensitize(type, pin), {models},
                          popt)
              .lanes.front();
      SCOPED_TRACE(std::string(cells::cell_name(type)) + " pin " +
                   std::to_string(pin));
      EXPECT_EQ(lane.outcome, core::ProbeOutcome::kNoSlewCrossing);
      EXPECT_EQ(lane.failed_input_rise, failed_rise);
      EXPECT_TRUE(lane.rise.delay.has_value());
      EXPECT_TRUE(lane.fall.delay.has_value());
    }
  }

  const Characterizer characterizer(lib);  // default grid, serial
  try {
    characterizer.characterize_cell(cells::CellType::kXor2,
                                    cells::Implementation::k2D);
    ADD_FAILURE() << "XOR2X1/2d characterized on the default grid";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "XOR2X1/2d pin A at slew 4e-12 s, load 8e-15 F: "
                  "no_slew_crossing (rising input edge)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mivtx::charlib
