// chain-cold, cell-library and block-scale: the batch workloads.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "analyze/analyzer.h"
#include "analyze/blockppa.h"
#include "cells/circuitgen.h"
#include "charlib/characterize.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "core/variability.h"
#include "runtime/artifact_cache.h"
#include "runtime/thread_pool.h"
#include "spice/dcop.h"
#include "spice/transient.h"
#include "workloads.h"

namespace e2e {

using namespace mivtx;
using Job = std::pair<cells::CellType, cells::Implementation>;

Baselines read_baselines(const Options& opt,
                         const std::vector<std::string>& suites) {
  Baselines out;
  for (const std::string& suite : suites) {
    const std::string rel = "tests/golden/" + suite + ".json";
    std::string text;
    MIVTX_EXPECT(read_file(opt.root + "/" + rel, text),
                 "cannot read " + rel + " under " + opt.root);
    out.emplace_back(suite, std::move(text));
  }
  return out;
}

void check_golden_suites(Report& r, verify::GoldenContext& ctx,
                         const Baselines& baselines) {
  const Snapshot before = Snapshot::take();
  for (const auto& [suite, baseline] : baselines) {
    Span span("e2e.golden", "bench", suite.c_str());
    const verify::GoldenCheck check = verify::check_against_baseline(
        verify::compute_golden_suite(suite, ctx), baseline);
    r.check(check.pass, "golden " + check.summary());
    std::printf("golden %s: %s\n", suite.c_str(), check.pass ? "ok" : "DRIFT");
  }
  const Snapshot d = Snapshot::take().since(before);
  const double recomputed = d.counter("flow.char.computed") +
                            d.counter("flow.card.computed") +
                            d.counter("ppa.computed") +
                            d.counter("charlib.computed");
  r.check(recomputed == 0.0,
          format("golden check recomputed %.0f cached artifacts", recomputed));
}

namespace {

// Timed set-up: `samples` samples, each the mean time of `reps` set-ups
// made back to back (enough of them that a sample is not a handful of
// microseconds at the mercy of the clock).  The last product is kept.
template <typename T, typename Make>
T repeat_setup(Report& r, std::size_t samples, std::size_t reps, Make make) {
  std::optional<T> kept;
  for (std::size_t i = 0; i < samples; ++i) {
    const double t0 = now_s();
    for (std::size_t j = 0; j < reps; ++j) {
      kept.reset();
      kept.emplace(make());
    }
    r.setup_s.push_back((now_s() - t0) / static_cast<double>(reps));
  }
  return std::move(*kept);
}

// Characterizes `jobs` one unit at a time, so a failing unit is counted
// (with its cause) and the rest of the library still builds.  With
// `unit_times`, these units' call times become charlib.unit_ms.
charlib::CharLibrary characterize_units(const charlib::Characterizer& ch,
                                        const std::vector<Job>& jobs,
                                        bool unit_times, Report& r,
                                        PassOut& out) {
  charlib::CharLibrary lib;
  lib.slew_axis = ch.grid().slews;
  lib.load_axis = ch.grid().loads;
  std::vector<double> unit_ms;
  double failed = 0.0;
  for (const auto& [type, impl] : jobs) {
    const std::string unit =
        std::string(cells::cell_name(type)) + "/" + charlib::impl_tag(impl);
    const double t0 = now_s();
    try {
      Span span("e2e.charlib", "bench", unit.c_str());
      lib.insert(impl, ch.characterize_cell(type, impl));
      r.op(true, "");
    } catch (const Error& e) {
      r.op(false, "charlib " + unit + ": " + e.what());
      failed += 1.0;
    }
    unit_ms.push_back(1e3 * (now_s() - t0));
  }
  out.work["charlib.failed_units"] += failed;
  out.layer["charlib.failed_units"] += failed;
  if (unit_times) {
    out.layer["charlib.unit_ms.p50"] = quantile(unit_ms, 0.5);
    out.layer["charlib.unit_ms.p99"] = quantile(unit_ms, 0.99);
  }
  return lib;
}

std::vector<Job> block_jobs(const std::vector<gatelevel::GateNetlist>& designs) {
  std::vector<Job> jobs;
  for (const gatelevel::GateNetlist& d : designs)
    for (const Job& job : analyze::library_jobs(d, {}))
      if (std::find(jobs.begin(), jobs.end(), job) == jobs.end())
        jobs.push_back(job);
  return jobs;
}

std::vector<Job> all_units() {
  std::vector<Job> jobs;
  for (cells::CellType type : cells::all_cells())
    for (cells::Implementation impl : cells::all_implementations())
      jobs.emplace_back(type, impl);
  return jobs;
}

// `tag` names the design in the per-layer metric analyze.blockppa_s.<tag>.
analyze::BlockPpaReport block_ppa(const gatelevel::GateNetlist& netlist,
                                  const std::string& tag,
                                  const charlib::CharLibrary& lib, Report& r,
                                  PassOut& out) {
  const double t0 = now_s();
  analyze::BlockPpaReport rep;
  {
    Span span("e2e.blockppa", "bench", tag.c_str());
    rep = analyze::run_block_ppa(netlist, lib, {});
  }
  out.layer["analyze.blockppa_s." + tag] = now_s() - t0;
  std::size_t missing = 0;
  for (const analyze::BlockImplPpa& row : rep.rows) {
    missing += row.missing_arcs;
    out.layer["analyze.clamped_lookups"] +=
        static_cast<double>(row.clamped_lookups);
  }
  r.op(missing == 0,
       format("block ppa %s: %zu library holes", tag.c_str(), missing));
  return rep;
}

void count_ppa(const std::vector<core::CellPpa>& all, Report& r) {
  for (const core::CellPpa& c : all)
    r.op(c.ok, std::string("ppa ") + cells::cell_name(c.type) + "/" +
                   cells::impl_name(c.impl));
}

// --- set-up ------------------------------------------------------------------

// Set-up samples of chain-cold and cell-library, and set-ups per sample.
// Half the samples are taken before the passes and half after them: on a
// shared host this sub-millisecond work swings by a third from one second
// to the next, and samples spread over the run give a steadier median.
constexpr std::size_t kSetupSamples = 15;  // on each side of the passes
constexpr std::size_t kSetupReps = 100;

// Everything chain-cold reads: the goldens it checks and the rca16 design.
struct ChainInputs {
  Baselines baselines;
  gatelevel::GateNetlist rca = gatelevel::ripple_carry_adder(16);
};
ChainInputs make_chain_inputs(const Options& opt) {
  return ChainInputs{read_baselines(opt, {"table3", "fig4"})};
}

// Everything cell-library reads, including a parse of the reference cards.
struct CellInputs {
  Baselines baselines;
  std::unique_ptr<core::ModelLibrary> cards =
      std::make_unique<core::ModelLibrary>(
          core::ModelLibrary::from_text(core::reference_model_text()));
  std::vector<gatelevel::GateNetlist> designs = {
      gatelevel::ripple_carry_adder(16), gatelevel::alu_block(4)};
};
CellInputs make_cell_inputs(const Options& opt) {
  return CellInputs{read_baselines(opt, {"fig5", "blockppa"})};
}

}  // namespace

// --- chain-cold --------------------------------------------------------------

Report run_chain_cold(const Options& opt) {
  Report r;
  const ChainInputs in = repeat_setup<ChainInputs>(
      r, kSetupSamples, kSetupReps, [&] { return make_chain_inputs(opt); });
  runtime::ThreadPool pool(kPoolThreads);
  std::unique_ptr<runtime::ArtifactCache> cache;

  run_passes(opt, r, pass_count(opt, 1), [&] {
    PassOut out;
    cache = std::make_unique<runtime::ArtifactCache>();  // starts cold
    core::FlowOptions fo;
    fo.jobs = kPoolThreads;
    fo.cache = cache.get();
    core::FlowResult flow;
    {
      Span span("e2e.flow", "bench");
      flow = core::run_full_flow(core::ProcessParams{}, {}, {}, fo);
    }
    double evaluations = 0.0;
    for (const core::DeviceExtraction& d : flow.devices) {
      for (const extract::StageReport& s : d.report.stages)
        evaluations += static_cast<double>(s.evaluations);
      const auto& e = d.report.errors;
      r.op(std::isfinite(e.idvg) && std::isfinite(e.idvd) && std::isfinite(e.cv),
           "extraction " + core::device_key(d.variant, d.polarity));
    }
    out.work["extract.evaluations"] = evaluations;
    out.layer["extract.evaluations"] = evaluations;

    const runtime::ExecPolicy exec{&pool, cache.get()};
    {
      const core::PpaEngine engine(flow.library, {}, {}, exec);
      Span span("e2e.ppa", "bench");
      count_ppa(engine.measure_all(), r);
    }
    charlib::CharOptions co;
    co.grid = charlib::mini_char_grid();
    const charlib::Characterizer ch(flow.library, co, {}, exec);
    const charlib::CharLibrary lib =
        characterize_units(ch, block_jobs({in.rca}), true, r, out);
    block_ppa(in.rca, "rca16", lib, r, out);
    return out;
  });

  repeat_setup<ChainInputs>(r, kSetupSamples, kSetupReps,
                            [&] { return make_chain_inputs(opt); });
  verify::GoldenContext ctx({kPoolThreads, cache.get()});
  check_golden_suites(r, ctx, in.baselines);
  return r;
}

// --- cell-library ------------------------------------------------------------

Report run_cell_library(const Options& opt) {
  Report r;
  const CellInputs in = repeat_setup<CellInputs>(
      r, kSetupSamples, kSetupReps, [&] { return make_cell_inputs(opt); });
  runtime::ThreadPool pool(kPoolThreads);
  std::unique_ptr<runtime::ArtifactCache> cache;

  run_passes(opt, r, pass_count(opt, 2), [&] {
    PassOut out;
    cache = std::make_unique<runtime::ArtifactCache>();
    const runtime::ExecPolicy exec{&pool, cache.get()};
    {
      const core::PpaEngine engine(*in.cards, {}, {}, exec);
      Span span("e2e.ppa", "bench");
      count_ppa(engine.measure_all(), r);
    }
    // Default 3x3 grid, every unit on its own so failures count per unit.
    const charlib::Characterizer full(*in.cards, {}, {}, exec);
    characterize_units(full, all_units(), true, r, out);

    charlib::CharOptions co;
    co.grid = charlib::mini_char_grid();
    const charlib::Characterizer mini(*in.cards, co, {}, exec);
    const charlib::CharLibrary lib =
        characterize_units(mini, block_jobs(in.designs), false, r, out);
    block_ppa(in.designs[0], "rca16", lib, r, out);
    block_ppa(in.designs[1], "alu4", lib, r, out);

    core::VariationSpec spec;
    spec.samples = 16;
    spec.seed = opt.seed;
    spec.engine = core::VariabilityEngine::kLanePacked;
    const double t0 = now_s();
    core::VariabilityStats stats;
    {
      Span span("e2e.variability", "bench");
      stats = core::run_variability(*in.cards, cells::CellType::kXor2,
                                    cells::Implementation::kMiv2Channel, spec,
                                    {}, {&pool, nullptr});
    }
    out.layer["variability.run_s"] = now_s() - t0;
    r.op(stats.samples == spec.samples && std::isfinite(stats.mean_delay) &&
             stats.mean_delay > 0.0,
         "variability XOR2X1/2ch");
    out.work["variability.lockstep_groups"] =
        static_cast<double>(stats.lockstep_groups);
    return out;
  });

  repeat_setup<CellInputs>(r, kSetupSamples, kSetupReps,
                           [&] { return make_cell_inputs(opt); });
  verify::GoldenContext ctx({kPoolThreads, cache.get()});
  check_golden_suites(r, ctx, in.baselines);
  return r;
}

// --- block-scale -------------------------------------------------------------

namespace {

constexpr std::size_t kRandomGates = 20000;
constexpr std::size_t kRingStages = 301;
constexpr double kRingStopS = 2e-10;

struct BlockInputs {
  charlib::CharLibrary lib;
  std::vector<gatelevel::GateNetlist> blocks;  // random20k, alu64
  std::vector<analyze::Design> designs;
  std::vector<cells::GeneratedCircuit> grids;  // 104x104, 150x150
  cells::GeneratedCircuit adder;
  cells::GeneratedCircuit ring;
};

BlockInputs make_block_inputs(std::uint64_t seed) {
  BlockInputs in;
  runtime::ThreadPool pool(kPoolThreads);
  runtime::ArtifactCache cache;  // fresh, so every set-up characterizes
  charlib::CharOptions co;
  co.grid = charlib::mini_char_grid();
  const core::ModelLibrary& cards = core::reference_model_library();
  in.lib = charlib::Characterizer(cards, co, {}, {&pool, &cache}).characterize_all();
  gatelevel::GateNetlist random = gatelevel::random_logic_block(kRandomGates, seed);
  in.blocks = {std::move(random), gatelevel::alu_block(64)};
  for (const gatelevel::GateNetlist& b : in.blocks)
    in.designs.push_back(analyze::design_from_netlist(b));
  for (std::size_t side : {104, 150}) {
    cells::PowerGridSpec spec;
    spec.rows = spec.cols = side;
    in.grids.push_back(cells::build_power_grid(spec));
  }
  const core::PpaEngine engine(cards);
  const auto impl = cells::Implementation::kMiv2Channel;
  // Seeded operands: the same seed gives the same adder inputs.
  std::uint64_t a = seed * 0x9E3779B97F4A7C15ULL + 0x0123456789ABCDEFULL;
  std::uint64_t b = (a ^ (a >> 29)) * 0xBF58476D1CE4E5B9ULL;
  in.adder = cells::build_adder_array(64, impl, engine.model_set(impl),
                                      cells::ParasiticSpec{}, 1.0, a, b);
  in.ring = cells::build_ring_oscillator(kRingStages, impl, engine.model_set(impl),
                                         cells::ParasiticSpec{}, 1.0);
  return in;
}

}  // namespace

Report run_block_scale(const Options& opt) {
  Report r;
  const BlockInputs in = repeat_setup<BlockInputs>(
      r, 3, 1, [&] { return make_block_inputs(opt.seed); });
  std::vector<std::uint64_t> digests;

  run_passes(opt, r, pass_count(opt, 4, 2), [&] {
    PassOut out;
    StableHash h;
    const char* tags[] = {"random20k", "alu64"};
    for (std::size_t i = 0; i < in.blocks.size(); ++i) {
      const analyze::BlockPpaReport rep =
          block_ppa(in.blocks[i], tags[i], in.lib, r, out);
      for (const analyze::BlockImplPpa& row : rep.rows)
        h.mix(row.delay).mix(row.power).mix(row.area).mix(row.utilization);

      analyze::AnalyzeOptions ao;
      ao.library = &in.lib;
      ao.place_mode = place::Mode::kPerTier;
      const double t0 = now_s();
      analyze::AnalyzeReport ar;
      {
        Span span("e2e.analyze", "bench", tags[i]);
        ar = analyze::analyze_design(in.designs[i],
                                     analyze::default_timing_model(), ao);
      }
      out.layer["analyze.design_s." + std::string(tags[i])] = now_s() - t0;
      r.op(ar.libsta.has_value(), std::string("analyze ") + tags[i]);
      h.mix(ar.findings.size()).mix(ar.errors).mix(ar.warnings);
      if (ar.libsta) h.mix(ar.libsta->worst_arrival);
    }

    const gatelevel::GateNetlist& random = in.blocks[0];
    double t0 = now_s();
    {
      Span span("e2e.libsta", "bench");
      const analyze::LibStaResult sta = analyze::run_library_sta(
          random, in.lib, cells::Implementation::k2D);
      h.mix(sta.worst_arrival).mix(sta.switching_energy);
      out.layer["analyze.clamped_lookups"] +=
          static_cast<double>(sta.clamped_lookups);
    }
    out.layer["analyze.libsta_s"] = now_s() - t0;
    t0 = now_s();
    {
      Span span("e2e.place", "bench");
      const place::Placement p = place::Placer().place(
          random, cells::Implementation::k2D, place::Mode::kPerTier);
      h.mix(p.chip_area());
    }
    out.layer["place.place_s"] = now_s() - t0;

    const auto dcop = [&](const cells::GeneratedCircuit& gen) {
      Span span("e2e.dcop", "bench", gen.name.c_str());
      const spice::DcResult dc = spice::dc_operating_point(gen.circuit);
      r.op(dc.converged, "dcop " + gen.name);
      for (double x : dc.x) h.mix(x);
    };
    const char* sizes[] = {"104", "150"};
    for (std::size_t i = 0; i < in.grids.size(); ++i) {
      t0 = now_s();
      dcop(in.grids[i]);
      out.layer[std::string("linalg.grid_dcop_s.") + sizes[i]] = now_s() - t0;
    }
    dcop(in.adder);
    {
      spice::TransientOptions topt;
      topt.t_stop = kRingStopS;
      Span span("e2e.transient", "bench", in.ring.name.c_str());
      const spice::TransientResult tr = spice::transient(in.ring.circuit, topt);
      r.op(tr.ok, "transient " + in.ring.name + ": " + tr.error);
      h.mix(tr.accepted_steps).mix(tr.rejected_steps);
      if (tr.ok) h.mix(tr.v(in.ring.probe_node).values().back());
    }
    digests.push_back(h.digest());
    out.work["output.digest_low32"] =
        static_cast<double>(h.digest() & 0xffffffffULL);
    return out;
  });

  std::printf("block-scale output digest: %016llx\n",
              static_cast<unsigned long long>(digests.front()));
  bool same = true;
  for (std::uint64_t d : digests) same &= d == digests.front();
  r.check(same, "block-scale output digest differs between passes");
  return r;
}

}  // namespace e2e
