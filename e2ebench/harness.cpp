#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "bsimsoi/simd.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"
#include "runtime/metrics.h"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

double process_cpu_s(pid_t pid) {
  std::string stat;
  if (!read_file("/proc/" + std::to_string(pid) + "/stat", stat)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::stod(field);
    if (i == 13) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

pid_t spawn_process(const std::vector<std::string>& args,
                    const std::string& output_path) {
  std::vector<std::string> owned = args;
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  MIVTX_EXPECT(pid >= 0, "fork failed");
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int out = open(output_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int in = open("/dev/null", O_RDONLY);
    if (out >= 0) {
      dup2(out, 1);
      dup2(out, 2);
    }
    if (in >= 0) dup2(in, 0);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Snapshot Snapshot::take() {
  const mivtx::runtime::Metrics& m = mivtx::runtime::Metrics::global();
  Snapshot s;
  for (const auto& [name, c] : m.counters()) s.counters[name] = c.total;
  for (const auto& [name, t] : m.timers()) s.timer_wall_s[name] = t.wall_s;
  return s;
}

namespace {
double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}
std::map<std::string, double> minus(const std::map<std::string, double>& a,
                                    const std::map<std::string, double>& b) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : a) {
    const double d = v - lookup(b, k);
    if (d != 0.0) out[k] = d;
  }
  return out;
}
}  // namespace

double Snapshot::counter(const std::string& name) const {
  return lookup(counters, name);
}
double Snapshot::timer(const std::string& name) const {
  return lookup(timer_wall_s, name);
}
Snapshot Snapshot::since(const Snapshot& before) const {
  return Snapshot{minus(counters, before.counters),
                  minus(timer_wall_s, before.timer_wall_s)};
}

// --- trace ---------------------------------------------------------------

namespace {

// Span site -> layer.  Program spans keep their own prefixes; the
// benchmark's spans (e2e.*) are named after the call they wrap.  First
// matching prefix wins.
std::string layer_of(std::string_view name) {
  static const std::pair<std::string_view, const char*> kTable[] = {
      {"flow.characterize", "tcad"},
      {"flow.extract", "extract"},
      {"flow.", "core.flow"},
      {"ppa.", "core.ppa"},
      {"charlib.", "charlib"},
      {"variability.", "core.variability"},
      {"spice.", "spice"},
      {"blockppa.", "analyze"},
      {"serve.", "serve"},
      {"e2e.flow", "core.flow"},
      {"e2e.ppa", "core.ppa"},
      {"e2e.charlib", "charlib"},
      {"e2e.variability", "core.variability"},
      {"e2e.blockppa", "analyze"},
      {"e2e.analyze", "analyze"},
      {"e2e.libsta", "analyze"},
      {"e2e.place", "place"},
      {"e2e.dcop", "spice"},
      {"e2e.transient", "spice"},
      {"e2e.request", "serve"},
      {"e2e.golden", "verify"},
  };
  for (const auto& [prefix, layer] : kTable)
    if (name.substr(0, prefix.size()) == prefix) return layer;
  return "bench";
}

}  // namespace

const std::vector<std::string>& trace_layers() {
  static const std::vector<std::string> layers = {
      "tcad",  "extract", "core.flow", "core.ppa", "charlib", "core.variability",
      "spice", "analyze", "place",     "serve",    "verify",  "bench"};
  return layers;
}

TraceSummary summarize_trace(const std::vector<mivtx::trace::TraceEvent>& ev) {
  TraceSummary out;
  out.events = ev.size();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::string> layer(ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) {
    by_id[ev[i].id] = i;
    children[ev[i].parent].push_back(i);
    layer[i] = layer_of(ev[i].name);
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const auto& e = ev[i];
    const std::int64_t lo = e.start_ns, hi = e.start_ns + e.dur_ns;
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = children.find(e.id); it != children.end()) {
      for (std::size_t c : it->second) {
        const std::int64_t a = std::max(lo, ev[c].start_ns);
        const std::int64_t b = std::min(hi, ev[c].start_ns + ev[c].dur_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, end = lo;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    out.self_s[layer[i]] += 1e-9 * static_cast<double>(e.dur_ns - covered);
    const auto parent = by_id.find(e.parent);
    if (parent == by_id.end() || layer[parent->second] != layer[i])
      out.inclusive_s[layer[i]] += 1e-9 * static_cast<double>(e.dur_ns);
    out.durations_s[e.name].push_back(1e-9 * static_cast<double>(e.dur_ns));
  }
  return out;
}

// --- report ----------------------------------------------------------------

void Report::op(bool ok, const std::string& cause_if_failed) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("failed: " + cause_if_failed);
  }
}

void Report::check(bool ok, const std::string& cause_if_failed) {
  ++attempted;
  if (!ok) {
    ++failed;
    ++mismatches;
    notes.push_back("MISMATCH: " + cause_if_failed);
  }
}

void check_work_record(const Options& opt,
                       const std::map<std::string, double>& counts,
                       Report& report) {
  // Keyed by the benchmark binary's content, so a rebuilt program starts a
  // fresh record instead of comparing against another build's counts.
  const std::string dir =
      opt.work_dir + "/records/" +
      mivtx::format("%016llx", static_cast<unsigned long long>(
                                   file_digest(opt.exe_dir + "/e2ebench")));
  const std::string path =
      dir + "/" + opt.workload + "-" + std::to_string(opt.seed) + ".txt";
  std::ostringstream os;
  for (const auto& [k, v] : counts) os << k << ' ' << mivtx::format_double(v) << '\n';
  std::string previous;
  if (!read_file(path, previous)) {
    make_dirs(dir);
    write_file(path, os.str());
    return;
  }
  std::string first_diff;
  if (previous != os.str()) {
    const std::vector<std::string> a = mivtx::split(previous, "\n");
    const std::vector<std::string> b = mivtx::split(os.str(), "\n");
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      const std::string la = i < a.size() ? a[i] : "(none)";
      const std::string lb = i < b.size() ? b[i] : "(none)";
      if (la != lb) {
        first_diff = "recorded '" + la + "' vs now '" + lb + "'";
        break;
      }
    }
  }
  report.check(first_diff.empty(),
               "work counts differ from an earlier run with seed " +
                   std::to_string(opt.seed) + ": " + first_diff);
}

void add_registry_layers(const Snapshot& d,
                         std::map<std::string, double>& layer) {
  const auto c = [&](const char* n) { return d.counter(n); };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  layer["spice.newton_iterations"] = c("spice.newton.iterations");
  layer["spice.assemblies"] = c("spice.assemblies");
  layer["spice.full_factorizations"] = c("spice.sparse.full_factorizations");
  layer["spice.refactorizations"] = c("spice.sparse.refactorizations");
  layer["spice.dense_fallbacks"] = c("spice.sparse.dense_fallbacks");
  layer["spice.lu_reuse_ratio"] =
      ratio(c("spice.sparse.lu_reuses"),
            c("spice.sparse.lu_reuses") + c("spice.sparse.full_factorizations") +
                c("spice.sparse.refactorizations") +
                c("spice.sparse.dense_fallbacks"));
  layer["spice.corner_transients"] = c("spice.corner.transients");
  layer["spice.assemble_s"] = d.timer("spice.assemble");
  layer["spice.factor_s"] = d.timer("spice.factor");
  layer["spice.solve_s"] = d.timer("spice.solve");
  layer["bsimsoi.device_evals"] = c("spice.device.evals");
  layer["bsimsoi.device_bypasses"] = c("spice.device.bypasses");
  layer["bsimsoi.bypass_ratio"] =
      ratio(c("spice.device.bypasses"),
            c("spice.device.evals") + c("spice.device.bypasses"));
  layer["bsimsoi.lane_occupancy"] =
      ratio(c("spice.device.batch.lanes"),
            mivtx::bsimsoi::kLaneWidth * c("spice.device.batch.blocks"));
  layer["linalg.iterative_solves"] = c("spice.iterative.solves");
  layer["linalg.krylov_iterations"] = c("spice.iterative.iterations");
  layer["linalg.precond_builds"] = c("spice.iterative.precond_factorizations");
  layer["linalg.iterative_fallbacks"] = c("spice.iterative.fallbacks");
  layer["ppa.transients"] = c("ppa.transients");
  layer["charlib.transients"] = c("charlib.transients");
  // Hit ratios from the *.cache_hit / *.computed counters of each domain.
  for (const auto& [domain, prefix] :
       {std::pair<const char*, const char*>{"char", "flow.char."},
        {"card", "flow.card."},
        {"ppa", "ppa."},
        {"charlib", "charlib."}}) {
    const double hit = d.counter(std::string(prefix) + "cache_hit");
    const double computed = d.counter(std::string(prefix) + "computed");
    layer[std::string("runtime.cache.hit_ratio.") + domain] =
        ratio(hit, hit + computed);
  }
}

std::map<std::string, double> registry_work_counts(const Snapshot& d) {
  // Every counter the program bumped, except the daemon's, whose split
  // between computed and coalesced depends on request timing.
  std::map<std::string, double> out;
  for (const auto& [name, v] : d.counters)
    if (name.rfind("serve.", 0) != 0) out[name] = v;
  return out;
}

// --- passes ----------------------------------------------------------------

namespace {

std::string first_difference(const std::map<std::string, double>& a,
                             const std::map<std::string, double>& b) {
  for (const auto& [k, v] : a)
    if (lookup(b, k) != v)
      return k + " " + mivtx::format_double(v) + " vs " +
             mivtx::format_double(lookup(b, k));
  for (const auto& [k, v] : b)
    if (a.count(k) == 0) return k + " 0 vs " + mivtx::format_double(v);
  return "";
}

}  // namespace

std::size_t pass_count(const Options& opt, double per_10s,
                       std::size_t min_passes) {
  const auto n = static_cast<std::size_t>(std::llround(per_10s * opt.seconds / 10.0));
  return std::max(min_passes, n);
}

void run_passes(const Options& opt, Report& r, std::size_t passes,
                const std::function<PassOut()>& pass) {
  std::vector<std::map<std::string, double>> works;
  const auto timed = [&](bool traced) {
    const Snapshot before = Snapshot::take();
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    if (traced) start_trace();
    PassOut out = pass();
    const double wall = now_s() - t0;
    const double cpu = cpu_s() - cpu0;
    const Snapshot delta = Snapshot::take().since(before);
    std::map<std::string, double> work = registry_work_counts(delta);
    work.insert(out.work.begin(), out.work.end());
    works.push_back(std::move(work));
    if (traced) {
      r.layer.insert(out.layer.begin(), out.layer.end());
      finish_trace(opt, r, wall, cpu, delta);
    } else {
      r.pass_s.push_back(wall);
    }
    return wall;
  };

  if (opt.trace) {
    r.untraced_wall_s = timed(false);
    timed(true);
  } else {
    while (r.pass_s.size() < passes) timed(false);
  }
  r.work = works.front();
  std::string diff;
  for (std::size_t i = 1; i < works.size() && diff.empty(); ++i)
    diff = first_difference(works.front(), works[i]);
  if (works.size() > 1)
    r.check(diff.empty(), "work counts differ between passes: " + diff);
  for (double s : r.pass_s) r.request_ms.push_back(1e3 * s);
  r.requests = static_cast<double>(r.pass_s.size());
  for (double s : r.pass_s) r.request_wall_s += s;
  r.rss_mb = peak_rss_mb();
}

void start_trace() { mivtx::trace::Tracer::global().start(); }

void finish_trace(const Options& opt, Report& r, double wall_s, double cpu_s,
                  const Snapshot& delta) {
  mivtx::trace::Tracer& tracer = mivtx::trace::Tracer::global();
  tracer.stop();
  const TraceSummary t = summarize_trace(tracer.snapshot());
  const std::string dir = opt.work_dir + "/traces";
  make_dirs(dir);
  const std::string path =
      dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
  tracer.write_chrome_json(path);

  std::map<std::string, double>& L = r.layer;
  add_registry_layers(delta, L);
  for (const std::string& layer : trace_layers())
    L["self_s." + layer] = lookup(t.self_s, layer);
  // The spice layer's busy time not accounted for by the solver-core
  // phase timers: device evaluation, step control and bookkeeping.
  L["spice.other_s"] = lookup(t.inclusive_s, "spice") - L["spice.assemble_s"] -
                       L["spice.factor_s"] - L["spice.solve_s"];
  const auto durations = [&](const char* site) {
    const auto it = t.durations_s.find(site);
    return it == t.durations_s.end() ? std::vector<double>{} : it->second;
  };
  const auto total = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const std::vector<double> tcad = durations("flow.characterize");
  L["tcad.device_s.p50"] = quantile(tcad, 0.5);
  L["tcad.device_s.max"] = quantile(tcad, 1.0);
  L["tcad.total_s"] = total(tcad);
  const std::vector<double> extract = durations("flow.extract");
  L["extract.device_s.p50"] = quantile(extract, 0.5);
  L["extract.device_s.max"] = quantile(extract, 1.0);
  L["extract.total_s"] = total(extract);
  const std::vector<double> cases = durations("ppa.cell");
  L["ppa.case_ms.p50"] = 1e3 * quantile(cases, 0.5);
  L["ppa.case_ms.p99"] = 1e3 * quantile(cases, 0.99);
  L["proc.cpu_s"] = cpu_s;
  L["proc.parallel_efficiency"] =
      wall_s > 0.0 ? cpu_s / (wall_s * static_cast<double>(kWorkers)) : 0.0;
  L["trace.overhead_pct"] =
      r.untraced_wall_s > 0.0
          ? 100.0 * (wall_s - r.untraced_wall_s) / r.untraced_wall_s
          : 0.0;

  double self_total = 0.0;
  for (const auto& [layer, s] : t.self_s) self_total += s;
  std::printf("per-layer self time (traced pass %.3f s, %zu spans, %zu dropped; %s)\n",
              wall_s, t.events, tracer.dropped_events(), path.c_str());
  std::printf("  %-18s %12s %8s\n", "layer", "self_s", "share");
  for (const std::string& layer : trace_layers()) {
    const double s = lookup(t.self_s, layer);
    if (s > 0.0)
      std::printf("  %-18s %12.6f %7.1f%%\n", layer.c_str(), s,
                  self_total > 0.0 ? 100.0 * s / self_total : 0.0);
  }
}

// --- files -----------------------------------------------------------------

std::uint64_t file_digest(const std::string& path) {
  std::string bytes;
  if (!read_file(path, bytes)) return 0;
  return mivtx::StableHash().mix_bytes(bytes.data(), bytes.size()).digest();
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  out = os.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace e2e
