// mivtx::analyze — whole-design multi-pass static analyzer.
//
// Orchestrates the passes over one gate-level design:
//   1. electrical rules (electrical.h)   — always; works on broken designs
//   2. slack-based STA (libsta.h)        — when the design satisfies the
//      GateNetlist invariants: run_library_sta over the characterized
//      library when one is given, else over linear_library(timing);
//      emits `missing-timing` per instance whose cell/arc has no timing
//      (the arc passes through at zero delay), and `timing-violation`
//      for negative-slack endpoints when a clock period is configured
//   3. tier/MIV placement rules (tier_rules.h) — when a placement mode is
//      requested; places the block with place::Placer first
// All findings flow through the shared diagnostics pipeline (pipeline.h):
// deterministic ordering, severity config, suppressions, text/JSON/SARIF
// renderers and baselines are applied by the caller (the mivtx_analyze
// CLI), not here.
#pragma once

#include <optional>

#include "analyze/design.h"
#include "analyze/electrical.h"
#include "analyze/libsta.h"
#include "analyze/tier_rules.h"
#include "gatelevel/sta.h"
#include "place/placer.h"

namespace mivtx::analyze {

struct AnalyzeOptions {
  cells::Implementation impl = cells::Implementation::k2D;
  StaOptions sta;
  ElectricalRuleOptions electrical;  // `timing`/`impl` are filled in
  TierRuleOptions tier;
  bool run_sta = true;
  bool run_electrical = true;
  // Tier/MIV rules run when a placement mode is set.
  std::optional<place::Mode> place_mode;
  // Characterized NLDM library: when set, the timing pass looks every arc
  // up here instead of in linear_library(timing).  Either way, holes and
  // grid extrapolation surface as `missing-timing` /
  // `table-extrapolation` diagnostics.
  const charlib::CharLibrary* library = nullptr;
};

struct AnalyzeReport {
  std::vector<lint::Diagnostic> findings;  // reporting order; sort to render
  std::optional<SlackStaResult> sta;
  // Per-edge detail of the timing pass (`sta` holds its collapsed
  // worst-edge view).
  std::optional<LibStaResult> libsta;
  std::optional<place::Placement> placement;
  std::size_t errors = 0;
  std::size_t warnings = 0;
};

// Analyze one design against a timing model.  `design.source` anchors every
// finding's file field.
AnalyzeReport analyze_design(const Design& design,
                             const gatelevel::TimingModel& timing,
                             const AnalyzeOptions& options = {});

// Synthetic reference timing model for static gating when no measured model
// is at hand: per-cell delays/slews scaled by logic depth class, the
// paper's Fig. 5(a) per-implementation delay deltas, one pin cap for every
// input.  Deterministic and cheap — NOT a substitute for
// core::build_timing_model's measured numbers (see DESIGN.md §12).
gatelevel::TimingModel default_timing_model();

}  // namespace mivtx::analyze
