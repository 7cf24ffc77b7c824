// mivtx_verify — differential, property-based and golden-baseline
// verification CLI.  See TESTING.md for the full workflow.
//
//   mivtx_verify --diff [netlist.sp ...]   solver-matrix differential over
//                                          the cell corpus (no files) or
//                                          the given netlists
//                --ppa-diff                1-vs-N threads / cold-vs-warm
//                                          cache bit-identity on the PPA
//                                          engine
//                --props                   property engine
//                --golden                  check tests/golden baselines
//                --refresh-goldens         rewrite baselines (with --golden)
//
// Exit status: 0 = everything requested passed, 1 = a verification failed,
// 2 = usage / IO error.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "core/reference_cards.h"
#include "runtime/thread_pool.h"
#include "verify/differential.h"
#include "verify/golden.h"
#include "verify/json.h"
#include "verify/properties.h"

namespace fs = std::filesystem;
using namespace mivtx;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " MODE [options] [netlist.sp ...]\n"
      << "modes (at least one):\n"
      << "  --diff              differential solver-matrix verification over\n"
      << "                      the 14x4 cell corpus, or over the given\n"
      << "                      netlist files\n"
      << "  --diff-large        direct-LU vs iterative (CG/BiCGStab) over the\n"
      << "                      generated large-circuit corpus (power grid,\n"
      << "                      adder array, ring oscillator)\n"
      << "  --ppa-diff          bit-identity of the PPA engine across 1-vs-N\n"
      << "                      threads and cold-vs-warm artifact cache\n"
      << "  --props             property-based engine invariants\n"
      << "  --golden            compare paper metrics against checked-in\n"
      << "                      baselines\n"
      << "options:\n"
      << "  --tol X             differential tolerance (default 1e-9)\n"
      << "  --scale N           multiply the --diff-large circuit sizes\n"
      << "  --jobs N            worker threads for case fan-out (default 1)\n"
      << "  --max-cells N       limit --ppa-diff to the first N cells\n"
      << "  --seed S            property RNG seed (default 20230913)\n"
      << "  --cases N           property instances per check (default 12)\n"
      << "  --golden-dir DIR    baseline directory (default tests/golden)\n"
      << "  --suites a,b        golden suites (default: all six)\n"
      << "  --refresh-goldens   write baselines instead of checking them\n"
      << "  --git-sha SHA       provenance stamp for refreshed baselines\n"
      << "  --json              machine-readable report on stdout\n"
      << "  --verbose           per-comparison detail\n";
  return 2;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error(format("cannot read %s", path.string().c_str()));
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Args {
  bool diff = false, diff_large = false, ppa_diff = false, props = false;
  bool golden = false;
  bool refresh = false, json = false, verbose = false;
  // With --json, stdout carries only the machine report; the human-readable
  // narration moves to stderr so `mivtx_verify --json | jq` just works.
  std::ostream& log() const { return json ? std::cerr : std::cout; }
  double tol = 1e-9;
  std::size_t scale = 1;
  std::size_t jobs = 1;
  std::size_t max_cells = 0;
  std::uint64_t seed = 20230913;
  std::size_t cases = 12;
  std::string golden_dir = "tests/golden";
  std::string git_sha;
  std::vector<std::string> suites;
  std::vector<std::string> files;
};

bool run_diff(const Args& args, verify::Json& out) {
  std::vector<verify::DiffCase> cases;
  if (args.files.empty()) {
    cases = verify::cell_corpus(core::reference_model_library());
  } else {
    for (const std::string& f : args.files)
      cases.push_back(
          verify::netlist_case(fs::path(f).filename().string(), read_file(f)));
  }
  runtime::ThreadPool pool(args.jobs);
  verify::DiffOptions opts;
  opts.tolerance = args.tol;
  opts.pool = pool.size() > 1 ? &pool : nullptr;
  const verify::DiffReport report = verify::run_differential(cases, opts);

  args.log() << format(
      "diff: %zu cases, %zu comparisons, %zu failures, worst divergence "
      "%.3e (%s)\n",
      report.cases, report.comparisons, report.failures,
      report.worst_divergence,
      report.worst_case.empty() ? "-" : report.worst_case.c_str());
  for (const verify::CaseConfigReport& r : report.reports)
    if (args.verbose || !r.ok) args.log() << "  " << r.summary() << "\n";

  verify::Json j = verify::Json::object();
  j.set("pass", verify::Json::boolean(report.pass));
  j.set("cases", verify::Json::number(static_cast<double>(report.cases)));
  j.set("comparisons",
        verify::Json::number(static_cast<double>(report.comparisons)));
  j.set("failures", verify::Json::number(static_cast<double>(report.failures)));
  j.set("worst_divergence", verify::Json::number(report.worst_divergence));
  j.set("worst_case", verify::Json::string(report.worst_case));
  out.set("diff", std::move(j));
  return report.pass;
}

bool run_diff_large(const Args& args, verify::Json& out) {
  const core::ModelLibrary library = core::reference_model_library();
  const std::size_t s = args.scale ? args.scale : 1;
  // The power grid assembles a symmetric Jacobian, so its matrix carries
  // the pinned-CG lane; the device corpora are general MNA and compare
  // direct vs kAuto vs pinned BiCGStab only.
  std::vector<verify::DiffCase> grid_cases;
  grid_cases.push_back(verify::make_power_grid_case(100 * s, 100 * s));
  std::vector<verify::DiffCase> general_cases;
  general_cases.push_back(verify::make_adder_case(
      64 * s, cells::Implementation::kMiv1Channel, library));
  general_cases.push_back(verify::make_ring_case(
      1001 * s, cells::Implementation::kMiv2Channel, library));

  runtime::ThreadPool pool(args.jobs);
  verify::DiffOptions opts;
  opts.tolerance = args.tol;
  opts.pool = pool.size() > 1 ? &pool : nullptr;
  opts.matrix = verify::iterative_solver_matrix(/*pin_cg=*/true);
  const verify::DiffReport grid = verify::run_differential(grid_cases, opts);
  opts.matrix = verify::iterative_solver_matrix(/*pin_cg=*/false);
  const verify::DiffReport gen = verify::run_differential(general_cases, opts);

  verify::DiffReport report = grid;
  report.pass = grid.pass && gen.pass;
  report.cases += gen.cases;
  report.comparisons += gen.comparisons;
  report.failures += gen.failures;
  if (gen.worst_divergence > report.worst_divergence) {
    report.worst_divergence = gen.worst_divergence;
    report.worst_case = gen.worst_case;
  }
  report.reports.insert(report.reports.end(), gen.reports.begin(),
                        gen.reports.end());

  args.log() << format(
      "diff-large: %zu cases, %zu comparisons, %zu failures, worst "
      "divergence %.3e (%s)\n",
      report.cases, report.comparisons, report.failures,
      report.worst_divergence,
      report.worst_case.empty() ? "-" : report.worst_case.c_str());
  for (const verify::CaseConfigReport& r : report.reports)
    if (args.verbose || !r.ok) args.log() << "  " << r.summary() << "\n";

  verify::Json j = verify::Json::object();
  j.set("pass", verify::Json::boolean(report.pass));
  j.set("cases", verify::Json::number(static_cast<double>(report.cases)));
  j.set("comparisons",
        verify::Json::number(static_cast<double>(report.comparisons)));
  j.set("failures", verify::Json::number(static_cast<double>(report.failures)));
  j.set("worst_divergence", verify::Json::number(report.worst_divergence));
  j.set("worst_case", verify::Json::string(report.worst_case));
  out.set("diff_large", std::move(j));
  return report.pass;
}

bool run_ppa_diff(const Args& args, verify::Json& out) {
  verify::PpaDiffOptions opts;
  if (args.jobs > 1) opts.jobs = args.jobs;
  opts.max_cells = args.max_cells;
  const verify::PpaDiffReport report =
      verify::run_ppa_differential(core::reference_model_library(), opts);
  args.log() << format("ppa-diff: %zu cells, %zu failures (1-vs-%zu threads, "
                      "cold-vs-warm cache, bit-identical)\n",
                      report.cells, report.failures, opts.jobs);
  for (const verify::PpaEquivalence& row : report.rows)
    if (args.verbose || !row.ok)
      args.log() << "  " << row.cell << ": "
                << (row.ok ? "ok" : row.detail.c_str()) << "\n";
  verify::Json j = verify::Json::object();
  j.set("pass", verify::Json::boolean(report.pass));
  j.set("cells", verify::Json::number(static_cast<double>(report.cells)));
  j.set("failures", verify::Json::number(static_cast<double>(report.failures)));
  out.set("ppa_diff", std::move(j));
  return report.pass;
}

bool run_props(const Args& args, verify::Json& out) {
  verify::PropertyOptions opts;
  opts.seed = args.seed;
  opts.cases = args.cases;
  const std::vector<verify::PropertyResult> results =
      verify::run_properties(opts);
  verify::Json arr = verify::Json::array();
  bool pass = true;
  for (const verify::PropertyResult& r : results) {
    pass = pass && r.pass;
    args.log() << format("prop %-24s %s  worst %.3e (bound %.1e, %zu cases)\n",
                        r.name.c_str(), r.pass ? "ok  " : "FAIL", r.worst,
                        r.bound, r.cases);
    if (!r.pass && !r.detail.empty()) args.log() << "  " << r.detail << "\n";
    verify::Json j = verify::Json::object();
    j.set("name", verify::Json::string(r.name));
    j.set("pass", verify::Json::boolean(r.pass));
    j.set("worst", verify::Json::number(r.worst));
    j.set("bound", verify::Json::number(r.bound));
    arr.push_back(std::move(j));
  }
  out.set("props", std::move(arr));
  return pass;
}

bool run_golden(const Args& args, verify::Json& out) {
  std::vector<std::string> suites =
      args.suites.empty() ? verify::golden_suite_names() : args.suites;
  verify::GoldenOptions gopts;
  gopts.jobs = args.jobs;
  verify::GoldenContext ctx(gopts);
  const fs::path dir(args.golden_dir);
  bool pass = true;
  verify::Json arr = verify::Json::array();
  for (const std::string& suite : suites) {
    const verify::GoldenSuiteResult measured =
        verify::compute_golden_suite(suite, ctx);
    const fs::path file = dir / (suite + ".json");
    if (args.refresh) {
      fs::create_directories(dir);
      std::ofstream os(file, std::ios::binary);
      if (!os) throw Error(format("cannot write %s", file.string().c_str()));
      os << verify::render_baseline(measured, args.git_sha, args.jobs);
      args.log() << format("golden %s: wrote %zu metrics to %s\n",
                          suite.c_str(), measured.metrics.size(),
                          file.string().c_str());
      continue;
    }
    verify::GoldenCheck check;
    if (!fs::exists(file)) {
      check.suite = suite;
      check.error =
          format("baseline %s missing (run --refresh-goldens)",
                 file.string().c_str());
    } else {
      check = verify::check_against_baseline(measured, read_file(file));
    }
    args.log() << "golden " << check.summary() << "\n";
    pass = pass && check.pass;
    verify::Json j = verify::Json::object();
    j.set("suite", verify::Json::string(suite));
    j.set("pass", verify::Json::boolean(check.pass));
    j.set("drifted", verify::Json::number(static_cast<double>(check.drifted)));
    if (!check.error.empty()) j.set("error", verify::Json::string(check.error));
    arr.push_back(std::move(j));
  }
  out.set("golden", std::move(arr));
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw Error(format("%s needs a value", a.c_str()));
        return argv[++i];
      };
      if (a == "--diff") args.diff = true;
      else if (a == "--diff-large") args.diff_large = true;
      else if (a == "--ppa-diff") args.ppa_diff = true;
      else if (a == "--props") args.props = true;
      else if (a == "--golden") args.golden = true;
      else if (a == "--refresh-goldens") args.refresh = true;
      else if (a == "--json") args.json = true;
      else if (a == "--verbose") args.verbose = true;
      else if (a == "--tol") args.tol = parse_spice_number(value());
      else if (a == "--scale") args.scale = std::stoul(value());
      else if (a == "--jobs") args.jobs = std::stoul(value());
      else if (a == "--max-cells") args.max_cells = std::stoul(value());
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--cases") args.cases = std::stoul(value());
      else if (a == "--golden-dir") args.golden_dir = value();
      else if (a == "--git-sha") args.git_sha = value();
      else if (a == "--suites") args.suites = split(value(), ",");
      else if (a == "--help" || a == "-h") return usage(argv[0]);
      else if (!a.empty() && a[0] == '-')
        throw Error(format("unknown option %s", a.c_str()));
      else args.files.push_back(a);
    }
    if (!args.diff && !args.diff_large && !args.ppa_diff && !args.props &&
        !args.golden)
      return usage(argv[0]);
    if (args.refresh && !args.golden)
      throw Error("--refresh-goldens requires --golden");

    verify::Json out = verify::Json::object();
    bool pass = true;
    if (args.diff) pass = run_diff(args, out) && pass;
    if (args.diff_large) pass = run_diff_large(args, out) && pass;
    if (args.ppa_diff) pass = run_ppa_diff(args, out) && pass;
    if (args.props) pass = run_props(args, out) && pass;
    if (args.golden) pass = run_golden(args, out) && pass;
    out.set("pass", verify::Json::boolean(pass));
    if (args.json) std::cout << out.dump(2) << "\n";
    args.log() << (pass ? "VERIFY PASS\n" : "VERIFY FAIL\n");
    return pass ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "mivtx_verify: " << e.what() << "\n";
    return 2;
  }
}
