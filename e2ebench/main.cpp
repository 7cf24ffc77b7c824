// e2ebench: the repository's end-to-end benchmark program.
//
//   e2ebench --workload <chain-cold|cell-library|block-scale|serve-mixed>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Run from the checkout root (goldens are read from tests/golden/).  The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "values"}; with --trace 0 the values are the end-to-end metrics, with
// --trace 1 the per-layer metrics this workload measured.  run.py names
// them with the units BENCHMARK.json declares.  Exit code 1 on a
// correctness mismatch, 2 on a usage or set-up error.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/log.h"
#include "common/strings.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace e2e;

std::string json_number(double v) { return mivtx::format("%.17g", v); }

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <chain-cold|cell-library|block-scale|"
               "serve-mixed> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int run(const Options& opt) {
  std::printf("e2ebench workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  Report r;
  if (opt.workload == "chain-cold") r = run_chain_cold(opt);
  else if (opt.workload == "cell-library") r = run_cell_library(opt);
  else if (opt.workload == "block-scale") r = run_block_scale(opt);
  else if (opt.workload == "serve-mixed") r = run_serve_mixed(opt);
  else return usage();
  check_work_record(opt, r.work, r);

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::printf("work counts (deterministic for a fixed seed):\n");
  for (const auto& [k, v] : r.work) std::printf("  %-42s %.17g\n", k.c_str(), v);
  if (!r.work_ranges.empty()) {
    std::printf("timing-dependent counts [min, max over passes]:\n");
    for (const auto& [k, v] : r.work_ranges)
      std::printf("  %-42s [%.17g, %.17g]\n", k.c_str(), v.first, v.second);
  }
  const double fail_share =
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                  : 0.0;

  std::map<std::string, double> metrics;
  if (opt.trace) {
    metrics = r.layer;
  } else {
    metrics["setup_s"] = median(r.setup_s);
    metrics["wall_s"] = median(r.pass_s);
    metrics["peak_rss_mb"] = r.rss_mb;
    metrics["rps"] = r.request_wall_s > 0.0 ? r.requests / r.request_wall_s : 0.0;
    metrics["p50_ms"] = quantile(r.request_ms, 0.50);
    metrics["p99_ms"] = quantile(r.request_ms, 0.99);
  }
  const auto print_list = [](const char* what, const std::vector<double>& v) {
    std::printf("%s:", what);
    for (double x : v) std::printf(" %.6f", x);
    std::printf("\n");
  };
  print_list("set-up times (s)", r.setup_s);
  print_list("untraced pass times (s)", r.pass_s);
  std::printf("%zu passes, %zu set-ups, %zu latency samples\n", r.pass_s.size(),
              r.setup_s.size(), r.request_ms.size());
  std::printf("fail_share %.6f (%zu failed / %zu attempted)\n", fail_share,
              r.failed, r.attempted);

  std::string json = "{\"correct\": ";
  json += r.mismatches == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": " + json_number(value);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
      have_seconds = true;
    } else if (arg == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage();

  opt.root = std::filesystem::current_path().string();
  opt.exe_dir = std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
  opt.work_dir = opt.exe_dir + "/e2ework";
  make_dirs(opt.work_dir);
  mivtx::set_log_level(mivtx::LogLevel::kError);
  return run(opt);
} catch (const std::exception& e) {
  std::fprintf(stderr, "e2ebench: %s\n", e.what());
  return 2;
}
