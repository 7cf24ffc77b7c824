// Extension E1 - chip-level projection of the cell study (the paper's
// future-work direction): benchmark circuits built from the 14-cell
// library, static timing analysis over measured cell delays (the library
// STA over the linear timing model), and row placement in both coupled and
// per-tier modes.
//
// The per-tier placement numbers quantify the paper's "total substrate
// area ... by up to 31%. However, this requires separate placement
// algorithms" argument with an actual placer.
#include "analyze/blockppa.h"
#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/chip.h"

using namespace mivtx;

int main(int argc, char** argv) {
  bench::print_header(
      "Extension E1: chip-level PPA on benchmark circuits (STA + placement)",
      "per-tier placement banks more area than coupled cells; MIV delay "
      "gains compound along critical paths");

  const core::ModelLibrary lib = bench::load_library(argc, argv);
  set_log_level(LogLevel::kError);
  std::printf("[building timing model from transient PPA measurements ...]\n");
  const gatelevel::TimingModel timing = core::build_timing_model(lib);

  // Both placement modes per circuit, each with the library STA over the
  // measured linear model (the delay is the same in both runs).
  const charlib::CharLibrary linear = analyze::linear_library(timing);
  analyze::BlockPpaOptions coupled_opts;
  coupled_opts.sta.c_ref = timing.c_ref;
  coupled_opts.place_mode = place::Mode::kCoupled;
  analyze::BlockPpaOptions split_opts = coupled_opts;
  split_opts.place_mode = place::Mode::kPerTier;
  struct CircuitPpa {
    analyze::BlockPpaReport coupled, split;
  };
  std::vector<CircuitPpa> results;
  for (const auto& ckt : core::benchmark_circuits())
    results.push_back({analyze::run_block_ppa(ckt, linear, coupled_opts),
                       analyze::run_block_ppa(ckt, linear, split_opts)});
  const auto& impls = cells::all_implementations();

  std::printf("\nCritical-path delay (STA over measured cell delays):\n");
  TextTable t({"circuit", "cells", "2D (ps)", "1-ch", "2-ch", "4-ch"});
  for (const CircuitPpa& r : results) {
    const auto& d = r.coupled.rows;
    t.add_row({r.coupled.design, format("%zu", r.coupled.num_gates),
               format("%.1f", d[0].delay * 1e12),
               bench::pct(d[0].delay, d[1].delay),
               bench::pct(d[0].delay, d[2].delay),
               bench::pct(d[0].delay, d[3].delay)});
  }
  t.print();

  std::printf("\nPlaced chip area, coupled rows vs per-tier placement:\n");
  TextTable a({"circuit", "impl", "coupled (um^2)", "per-tier (um^2)",
               "per-tier gain", "tier balance (top/bottom)"});
  for (const CircuitPpa& r : results) {
    for (std::size_t k = 0; k < impls.size(); ++k) {
      const analyze::BlockImplPpa& c = r.coupled.rows[k];
      const analyze::BlockImplPpa& p = r.split.rows[k];
      a.add_row({r.coupled.design, cells::impl_name(impls[k]),
                 format("%.3f", c.area * 1e12), format("%.3f", p.area * 1e12),
                 bench::pct(c.area, p.area),
                 format("%.2f", p.top_area / p.bottom_area)});
    }
    a.add_separator();
  }
  a.print();

  // Aggregate: total area of the suite per (impl, mode), vs 2D coupled.
  std::printf("\nSuite totals (all circuits), area vs 2D coupled placement:\n");
  TextTable s({"impl", "coupled", "per-tier"});
  double base = 0.0;
  for (std::size_t k = 0; k < impls.size(); ++k) {
    double coupled = 0.0, split = 0.0;
    for (const CircuitPpa& r : results) {
      coupled += r.coupled.rows[k].area;
      split += r.split.rows[k].area;
    }
    if (k == 0) base = coupled;
    s.add_row({cells::impl_name(impls[k]), bench::pct(base, coupled),
               bench::pct(base, split)});
  }
  s.print();
  std::printf(
      "\n(finding: per-tier placement pays exactly when neither tier "
      "dominates both\ndimensions - the 4-channel variant's balanced tiers "
      "(ratio ~1.0) unlock a further\n-14 points over its coupled "
      "placement, which is the regime behind the paper's\n'up to 31%% "
      "substrate area' claim; for 1-ch/2-ch the top tier dominates and "
      "coupled\nplacement is already tier-optimal)\n");
  return 0;
}
