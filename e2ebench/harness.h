// Shared plumbing for the end-to-end benchmark workloads: clocks and
// process resource readings, registry snapshots, quantiles, per-layer
// self time from trace spans, the cross-run record of deterministic work
// counts, and the run report every workload fills.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace e2e {

// Threads that execute each workload's pool-parallel calls.  Fixed so runs
// compare across machines with at least this many cores.
inline constexpr std::size_t kWorkers = 4;
// Pool size giving kWorkers executing threads: the thread that waits on a
// runtime::TaskGroup runs queued tasks itself, so a pool of kWorkers
// threads would put kWorkers + 1 busy threads on kWorkers cores.
inline constexpr std::size_t kPoolThreads = kWorkers - 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;      // checkout root (the working directory)
  std::string exe_dir;   // directory holding e2ebench and mivtx_serve
  std::string work_dir;  // scratch space for caches, traces and records
};

double now_s();   // monotonic wall clock
double cpu_s();   // user + system CPU time of this process
// Peak resident set (VmHWM) in MiB of this process / another process.
double peak_rss_mb(pid_t pid = 0);
// User + system CPU seconds of another (still running) process.
double process_cpu_s(pid_t pid);

// Starts `args` (args[0] is the executable) as a child process with stdin
// from /dev/null and stdout + stderr appended to `output_path`.  The child
// is killed if this process dies first.  Throws mivtx::Error on failure.
pid_t spawn_process(const std::vector<std::string>& args,
                    const std::string& output_path);

// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// runtime::Metrics::global() counter totals and timer wall sums.
struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> timer_wall_s;

  static Snapshot take();
  double counter(const std::string& name) const;
  double timer(const std::string& name) const;
  // Element-wise `this - before`.
  Snapshot since(const Snapshot& before) const;
};

// Spans recorded by the benchmark itself around each public layer call.
// The name (a static string) carries the layer the call belongs to; see
// layer_of() in harness.cpp.
using Span = mivtx::trace::Span;

// Per-layer self time (span duration minus the part its child spans
// cover) plus the raw durations of selected span sites.
struct TraceSummary {
  std::map<std::string, double> self_s;  // by layer
  // Summed durations of a layer's outermost spans (those whose parent
  // belongs to another layer): the layer's busy time across threads.
  std::map<std::string, double> inclusive_s;
  std::map<std::string, std::vector<double>> durations_s;  // by span name
  std::size_t events = 0;
};
TraceSummary summarize_trace(const std::vector<mivtx::trace::TraceEvent>& ev);
// The layers that appear in self_s, in report order.
const std::vector<std::string>& trace_layers();

// Everything a workload hands back to main().
struct Report {
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::vector<double> pass_s;   // one entry per untraced timed pass
  // User-level request latencies (ms).  serve-mixed: client round trips;
  // the batch workloads: one entry per pass (a pass is one request).
  std::vector<double> request_ms;
  double requests = 0.0;        // served requests (or passes)
  double request_wall_s = 0.0;  // wall time those requests took
  double rss_mb = 0.0;
  std::size_t attempted = 0;    // operations (devices, units, ...)
  std::size_t failed = 0;       // failed operations + check mismatches
  std::size_t mismatches = 0;   // correctness-check failures only
  std::vector<std::string> notes;  // failure causes, printed
  // Deterministic work counts of one pass (must repeat exactly for a
  // fixed seed) and timing-dependent ones reported as [min, max].
  std::map<std::string, double> work;
  std::map<std::string, std::pair<double, double>> work_ranges;
  std::map<std::string, double> layer;  // per-layer metrics (traced run)
  double untraced_wall_s = 0.0;  // the traced pass's untraced reference

  // One attempted operation; a failure is counted with its cause.
  void op(bool ok, const std::string& cause_if_failed);
  // One correctness check; a mismatch counts as a failed operation too.
  void check(bool ok, const std::string& cause_if_failed);
};

// What one timed pass of a batch workload reports besides its wall time.
struct PassOut {
  std::map<std::string, double> work;   // counts beyond the registry's
  std::map<std::string, double> layer;  // per-layer metrics it measured
};

// Untraced passes a run makes: `per_10s` passes per 10 s of --seconds,
// at least `min_passes`.  The count depends only on the arguments, never
// on how fast the machine is, so every run of a workload measures the
// same amount of work; `per_10s` is sized so the passes take about
// --seconds on a 4-core x86-64 host.
std::size_t pass_count(const Options& opt, double per_10s,
                       std::size_t min_passes = 1);

// Runs `pass` untraced `passes` times.  With opt.trace it runs one
// untraced reference pass and then one traced pass instead, whose numbers
// become the per-layer metrics.  Work counts must agree across every pass.
void run_passes(const Options& opt, Report& r, std::size_t passes,
                const std::function<PassOut()>& pass);

// Traced-pass bracket: start recording, then stop and turn the spans and
// the pass's registry delta into report.layer, the per-layer self-time
// table on stdout and the Chrome trace file.
void start_trace();
void finish_trace(const Options& opt, Report& r, double wall_s, double cpu_s,
                  const Snapshot& delta);

// Records `counts` as the deterministic work of (workload, seed) for this
// build of the benchmark, or compares against the record an earlier run
// left; a difference is a mismatch.  Within-run pass comparisons are done
// by the workloads themselves.
void check_work_record(const Options& opt,
                       const std::map<std::string, double>& counts,
                       Report& report);

// The spice / bsimsoi / linalg / transient-count / cache-ratio per-layer
// metrics derived from a registry delta.
void add_registry_layers(const Snapshot& d, std::map<std::string, double>& layer);
// The deterministic work counts in a registry delta.
std::map<std::string, double> registry_work_counts(const Snapshot& d);

// StableHash digest of a file's bytes (0 when unreadable).
std::uint64_t file_digest(const std::string& path);
bool read_file(const std::string& path, std::string& out);
bool write_file(const std::string& path, const std::string& text);
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);

}  // namespace e2e
