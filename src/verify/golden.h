// Golden engine: canonical numeric baselines for the paper reproductions
// (Table I/II/III, Fig. 4/5) with per-metric relative tolerances.
//
// A baseline is a checked-in JSON document (tests/golden/<suite>.json):
//   {
//     "suite": "fig5",
//     "provenance": {"git_sha": "...", "generator": "..."},
//     "metrics": {"delay.2d.NAND2X1_ps": {"value": 12.3, "rtol": 0.005}, ...}
//   }
// check_against_baseline re-measures the suite and fails on any metric
// whose relative error exceeds its baseline-declared rtol, on metrics that
// vanished from the run, and on metrics the run produces that the baseline
// never recorded (drift both ways is drift).  render_baseline writes a new
// document with provenance, for the --refresh-goldens flow.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analyze/blockppa.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "runtime/artifact_cache.h"

namespace mivtx::verify {

struct GoldenOptions {
  std::size_t jobs = 1;                     // flow / PPA fan-out
  runtime::ArtifactCache* cache = nullptr;  // reuse for the TCAD flow
};

// Shared lazily-computed inputs: table3 and fig4 read the same full-flow
// result; fig5 reads one PPA survey; blockppa reads one block-PPA sweep
// over the two benchmark designs.  Build one context per CLI run so the
// expensive stages execute at most once.
class GoldenContext {
 public:
  explicit GoldenContext(GoldenOptions opts = {}) : opts_(opts) {}

  const GoldenOptions& options() const { return opts_; }
  const core::FlowResult& flow();                 // TCAD + extraction, all 8
  const std::vector<core::CellPpa>& ppa();        // 14 cells x 4 impls
  // rca16 + alu4 block PPA (all 4 impls, mini charlib grid, reference
  // cards — see compute_blockppa for the determinism rationale).
  const std::vector<analyze::BlockPpaReport>& blockppa();

 private:
  GoldenOptions opts_;
  std::optional<core::FlowResult> flow_;
  std::optional<std::vector<core::CellPpa>> ppa_;
  std::optional<std::vector<analyze::BlockPpaReport>> blockppa_;
};

// One measured metric with the tolerance a refresh would record for it.
struct GoldenMetric {
  std::string name;
  double value = 0.0;
  double rtol = 1e-6;
};

struct GoldenSuiteResult {
  std::string suite;
  std::vector<GoldenMetric> metrics;  // stable order = file order
};

// All known suites, in canonical order: table1 table2 table3 fig4 fig5
// blockppa.
const std::vector<std::string>& golden_suite_names();
// True for the suites that need the multi-second TCAD/PPA stages.
bool golden_suite_is_expensive(const std::string& suite);

// Throws mivtx::Error for an unknown suite name.
GoldenSuiteResult compute_golden_suite(const std::string& suite,
                                       GoldenContext& ctx);

// Serialize with provenance; byte-stable for identical inputs (numbers go
// through format_double, no timestamps, no job count — results do not
// depend on it).
std::string render_baseline(const GoldenSuiteResult& result,
                            const std::string& git_sha);

enum class MetricStatus { kOk, kDrifted, kMissingFromRun, kNotInBaseline };

struct MetricCheck {
  std::string name;
  MetricStatus status = MetricStatus::kOk;
  double baseline = 0.0;
  double measured = 0.0;
  double rtol = 0.0;
  double rel_err = 0.0;
};

struct GoldenCheck {
  std::string suite;
  bool pass = false;
  std::string error;  // baseline unreadable / malformed
  std::size_t drifted = 0;
  std::vector<MetricCheck> checks;
  std::string summary() const;
};

GoldenCheck check_against_baseline(const GoldenSuiteResult& measured,
                                   const std::string& baseline_json);

}  // namespace mivtx::verify
