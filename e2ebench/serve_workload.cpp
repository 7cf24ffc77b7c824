// serve-mixed: one mivtx_serve daemon, one load-generator process (this
// one) with kConnections connections in a closed loop.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "charlib/characterize.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/artifacts.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "runtime/artifact_cache.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "workloads.h"

namespace e2e {

using namespace mivtx;

namespace {

// The request mix is synthetic: no mivtx_serve traffic has been recorded,
// so every parameter below is an assumption, not a measurement.  Keep them
// fixed until real request logs exist to derive them from; each run prints
// the share of requests that were cold, warm and coalesced.
//
// One connection per daemon worker, and 4 is the host's core count.
constexpr std::size_t kConnections = 4;
// Two passes give 1200 client round trips per run, 12 beyond the p99.
constexpr std::size_t kRequestsPerPass = 600;
// 3% of a pass: "a few percent" of liveness probes.
constexpr std::size_t kHealthRequests = 18;
constexpr std::size_t kSetupRepeats = 9;  // daemon-only set-ups per run
// The classic Zipf exponent of request popularity; no measured value.
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kSampledPerKind = 4;
constexpr double kStartTimeoutS = 60.0;

// splitmix64: the request mix depends only on the seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// Key space: 56 reference-card ppa keys, then 56 mini-grid charlib keys.
struct Key {
  serve::RequestKind kind = serve::RequestKind::kHealth;
  cells::CellType cell = cells::CellType::kInv1;
  cells::Implementation impl = cells::Implementation::k2D;
  std::string name() const {
    if (kind == serve::RequestKind::kHealth) return "health";
    return std::string(serve::kind_name(kind)) + ":" + cells::cell_name(cell) +
           "/" + charlib::impl_tag(impl);
  }
};

std::vector<Key> key_space() {
  std::vector<Key> keys;
  for (serve::RequestKind kind :
       {serve::RequestKind::kPpa, serve::RequestKind::kCharlib})
    for (cells::CellType cell : cells::all_cells())
      for (cells::Implementation impl : cells::all_implementations())
        keys.push_back(Key{kind, cell, impl});
  return keys;
}

serve::Request make_request(const Key& key, std::size_t index) {
  serve::Request req;
  req.id = "r" + std::to_string(index);
  req.kind = key.kind;
  req.cell = key.cell;
  req.impl = key.impl;
  req.reference_library = key.kind == serve::RequestKind::kPpa;
  req.char_grid = "mini";
  return req;
}

// Seeded mix of kRequestsPerPass requests: every one of the 112 keys once
// (the first touches that compute; touching each key makes the cold work
// the same for every seed), kHealthRequests health probes, and the rest
// repeats split evenly between ppa and charlib (no reason to weight one
// kind over the other), each kind Zipf (kZipfExponent) over a seeded
// ranking of its 56 keys.  The whole list is shuffled with the seed, so
// repeats that land before or during their key's first computation
// coalesce.  Kind proportions and the set of computed keys are the same
// for every seed; only popularity and order vary.
std::vector<Key> request_mix(std::uint64_t seed) {
  const std::vector<Key> keys = key_space();
  const std::size_t per_kind = keys.size() / 2;
  Rng rng{seed ^ 0x5e12e5e12e5eULL};
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size() - 1; i > 0; --i)
      std::swap(v[i], v[rng.next() % (i + 1)]);
  };
  std::vector<double> cdf(per_kind);
  double acc = 0.0;
  for (std::size_t i = 0; i < per_kind; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = acc;
  }

  std::vector<Key> mix = keys;
  mix.resize(mix.size() + kHealthRequests);  // default Key is health
  const std::size_t repeats = kRequestsPerPass - mix.size();
  for (std::size_t kind = 0; kind < 2; ++kind) {
    std::vector<std::size_t> rank(per_kind);
    for (std::size_t i = 0; i < per_kind; ++i) rank[i] = kind * per_kind + i;
    shuffle(rank);
    const std::size_t n = kind == 0 ? repeats / 2 : repeats - repeats / 2;
    for (std::size_t j = 0; j < n; ++j) {
      const double u = rng.uniform() * acc;
      const std::size_t r =
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      mix.push_back(keys[rank[std::min(r, per_kind - 1)]]);
    }
  }
  shuffle(mix);
  return mix;
}

// The daemon as a child process.  It dies with this process (parent-death
// signal) and is killed and reaped on every exit path.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& dir) {
    const std::string port_file = dir + "/port";
    const std::string log = dir + "/serve.log";
    pid_ = spawn_process({opt.exe_dir + "/mivtx_serve", "--port", "0", "--port-file",
                          port_file, "--workers", std::to_string(kConnections),
                          "--cache-dir", dir + "/cache", "--quiet"},
                         log);
    try {
      const double deadline = now_s() + kStartTimeoutS;
      std::string text;
      while (!(read_file(port_file, text) && text.find('\n') != std::string::npos)) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) != 0) {
          pid_ = -1;  // already reaped
          throw Error("mivtx_serve exited during start-up (see " + log + ")");
        }
        MIVTX_EXPECT(now_s() < deadline, "mivtx_serve did not start");
        usleep(2000);
      }
      port_ = std::stoi(text);
    } catch (...) {
      kill_and_reap();
      throw;
    }
  }
  ~Daemon() { kill_and_reap(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  void kill_and_reap() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  // Waits for the exit a shutdown request started; true on exit code 0.
  bool wait_exit(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) return false;  // destructor kills it
      usleep(2000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

struct Sample {
  std::size_t key = 0;  // index into the mix
  double rtt_s = 0.0;
  double queue_s = 0.0;
  double service_s = 0.0;
  bool ok = false;
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  double server_cpu_s = 0.0;
  bool clean_exit = false;
  std::vector<Sample> samples;
  Snapshot server;  // the daemon's registry after the load
  std::map<std::string, std::string> kept_payload;  // sampled keys
};

Snapshot parse_registry(const std::string& json) {
  Snapshot s;
  const Json doc = Json::parse(json);
  if (const Json* counters = doc.find("counters"))
    for (const auto& [name, v] : counters->members())
      s.counters[name] = v.find("total")->as_number();
  if (const Json* timers = doc.find("timers"))
    for (const auto& [name, v] : timers->members())
      s.timer_wall_s[name] = v.find("wall_s")->as_number();
  return s;
}

// A started daemon with its connections open.
struct Live {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

// Set-up: a fresh daemon whose cache holds the nominal flow's curves and
// cards but no ppa or charlib entries, with every connection open and
// answering a health probe, and the nominal flow loaded from its disk
// cache into memory by a flow request.
Live start_daemon(const Options& opt, const std::string& flow_dir) {
  const std::string dir = opt.work_dir + "/serve-pass";
  remove_tree(dir);
  make_dirs(dir + "/cache");
  for (const auto& entry : std::filesystem::directory_iterator(flow_dir))
    if (entry.path().extension() == ".art")
      std::filesystem::copy_file(entry.path(),
                                 dir + "/cache/" + entry.path().filename().string());
  Live live;
  live.daemon = std::make_unique<Daemon>(opt, dir);
  for (std::size_t c = 0; c < kConnections; ++c) {
    live.clients.push_back(
        std::make_unique<serve::Client>("127.0.0.1", live.daemon->port()));
    serve::Request health;
    health.id = "setup" + std::to_string(c);
    MIVTX_EXPECT(live.clients.back()->call(health).ok(), "daemon not healthy");
  }
  serve::Request flow;
  flow.id = "setup-flow";
  flow.kind = serve::RequestKind::kFlow;
  MIVTX_EXPECT(live.clients[0]->call(flow).ok(), "daemon did not load the nominal flow");
  return live;
}

// Graceful shutdown over the wire; true when the daemon exited with 0.
bool stop_daemon(Live& live) {
  serve::Request stop;
  stop.id = "stop";
  stop.kind = serve::RequestKind::kShutdown;
  live.clients[0]->call(stop);
  live.clients.clear();
  return live.daemon->wait_exit(30.0);
}

PassResult run_pass(const Options& opt, const std::vector<Key>& mix,
                    const std::set<std::string>& keep, const std::string& flow_dir,
                    Report& r, bool traced) {
  PassResult pr;
  const double t0 = now_s();
  Live live = start_daemon(opt, flow_dir);
  pr.setup_s = now_s() - t0;
  std::vector<std::unique_ptr<serve::Client>>& clients = live.clients;

  pr.samples.resize(mix.size());
  // Per connection: payload digest by key, keys whose payload changed
  // between responses, and the sampled keys' payloads.
  std::vector<std::map<std::string, std::uint64_t>> digests(kConnections);
  std::vector<std::vector<std::string>> differing(kConnections);
  std::vector<std::map<std::string, std::string>> kept(kConnections);
  std::atomic<std::size_t> next{0};
  const double t1 = now_s();
  if (traced) start_trace();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next++; i < mix.size(); i = next++) {
        const std::string name = mix[i].name();
        Sample& s = pr.samples[i];
        s.key = i;
        const double ts = now_s();
        serve::Response resp;
        try {
          Span span("e2e.request", "bench", name.c_str());
          resp = clients[c]->call(make_request(mix[i], i));
        } catch (const std::exception& e) {
          resp.status = serve::ResponseStatus::kError;
          resp.error = e.what();
        }
        s.rtt_s = now_s() - ts;
        s.queue_s = resp.queue_s;
        s.service_s = resp.elapsed_s;
        s.ok = resp.ok();
        if (mix[i].kind == serve::RequestKind::kHealth) continue;
        StableHash h;
        h.mix(resp.payload);
        const auto [it, fresh] = digests[c].emplace(name, h.digest());
        if (!fresh && it->second != h.digest()) differing[c].push_back(name);
        if (s.ok && keep.count(name) > 0) kept[c].emplace(name, resp.payload);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pr.wall_s = now_s() - t1;

  // Same key, same payload, whichever connection carried it.
  std::map<std::string, std::uint64_t> payload_digest;
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (const auto& [name, d] : digests[c]) {
      const auto [it, fresh] = payload_digest.emplace(name, d);
      if (!fresh && it->second != d) differing[c].push_back(name);
    }
    for (const std::string& name : differing[c])
      r.check(false, "serve payload of " + name + " differs between responses");
    pr.kept_payload.insert(kept[c].begin(), kept[c].end());
  }

  serve::Request metrics;
  metrics.id = "metrics";
  metrics.kind = serve::RequestKind::kMetrics;
  pr.server = parse_registry(clients[0]->call(metrics).meta_json);
  pr.rss_mb = peak_rss_mb(live.daemon->pid());
  pr.server_cpu_s = process_cpu_s(live.daemon->pid());
  pr.clean_exit = stop_daemon(live);
  return pr;
}

// The nominal flow's curves and cards, in a disk cache that every pass's
// fresh daemon cache is copied from.  Every run calls run_full_flow on it:
// when it is warm that is pure deserialization; when it misses (first run
// in a build directory, or a new artifact schema) the flow is computed here,
// outside the timed passes.  The directory carries the schema version so
// artifacts of an older schema are never copied along.
struct FlowCache {
  std::string dir;
  core::ModelLibrary cards;
};

FlowCache warm_flow_cache(const Options& opt) {
  FlowCache out;
  out.dir = opt.work_dir + "/serve-flow-cache-v" +
            std::to_string(core::kArtifactSchemaVersion);
  make_dirs(out.dir);
  const double t0 = now_s();
  runtime::ArtifactCache::Options co;
  co.disk_dir = out.dir;
  runtime::ArtifactCache cache(co);
  core::FlowOptions fo;
  fo.jobs = kPoolThreads;
  fo.cache = &cache;
  out.cards = core::run_full_flow(core::ProcessParams{}, {}, {}, fo).library;
  std::printf("serve-mixed: nominal flow for the daemon cache: %.3f s (%llu computed, %llu from disk)\n",
              now_s() - t0, static_cast<unsigned long long>(cache.stats().stores),
              static_cast<unsigned long long>(cache.stats().disk_hits));
  return out;
}

}  // namespace

Report run_serve_mixed(const Options& opt) {
  Report r;
  const FlowCache flow = warm_flow_cache(opt);
  const std::vector<Key> mix = request_mix(opt.seed);

  // Seeded sample of requested keys whose payloads are checked byte for
  // byte against local computation.
  std::set<std::string> keep;
  {
    std::vector<std::size_t> order(mix.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng{opt.seed ^ 0xc0ffeeULL};
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[rng.next() % (i + 1)]);
    std::size_t ppa = 0, lib = 0;
    for (std::size_t i : order) {
      const Key& k = mix[i];
      if (k.kind == serve::RequestKind::kPpa && ppa < kSampledPerKind &&
          keep.insert(k.name()).second)
        ++ppa;
      if (k.kind == serve::RequestKind::kCharlib && lib < kSampledPerKind &&
          keep.insert(k.name()).second)
        ++lib;
    }
  }

  std::vector<PassResult> passes;
  const auto one_pass = [&](bool traced) {
    PassResult pr = run_pass(opt, mix, keep, flow.dir, r, traced);
    r.check(pr.clean_exit, "mivtx_serve did not exit cleanly after shutdown");
    for (const Sample& s : pr.samples)
      r.op(s.ok, "request " + std::to_string(s.key) + " (" + mix[s.key].name() + ")");
    passes.push_back(std::move(pr));
    return passes.back().wall_s;
  };

  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    Live live = start_daemon(opt, flow.dir);
    r.setup_s.push_back(now_s() - t0);
    r.check(stop_daemon(live), "mivtx_serve did not exit cleanly after shutdown");
  }
  if (opt.trace) {
    r.untraced_wall_s = one_pass(false);
  } else {
    const std::size_t n = pass_count(opt, 1, 2);
    while (passes.size() < n) one_pass(false);
  }
  const std::size_t untraced = passes.size();

  std::vector<double> rss;
  for (std::size_t p = 0; p < untraced; ++p) {
    const PassResult& pr = passes[p];
    r.setup_s.push_back(pr.setup_s);
    r.pass_s.push_back(pr.wall_s);
    r.request_wall_s += pr.wall_s;
    r.requests += static_cast<double>(pr.samples.size());
    rss.push_back(pr.rss_mb);
    for (const Sample& s : pr.samples) r.request_ms.push_back(1e3 * s.rtt_s);
  }
  r.rss_mb = median(rss);

  if (opt.trace) {
    const double cpu0 = cpu_s();
    one_pass(true);
    const PassResult& pr = passes.back();
    // Client-side spans only; the daemon's side comes from each
    // response's queue and service times and from its registry.
    finish_trace(opt, r, pr.wall_s, cpu_s() - cpu0 + pr.server_cpu_s, pr.server);
    // The daemon records no spans here, so the spice layer's busy time is
    // unknown on this workload.
    r.layer["spice.other_s"] = 0.0;
    std::map<std::string, std::vector<double>> queue, service;
    std::vector<double> wire;
    for (const Sample& s : pr.samples) {
      const Key& k = mix[s.key];
      if (k.kind == serve::RequestKind::kHealth) continue;
      queue[serve::kind_name(k.kind)].push_back(1e3 * s.queue_s);
      service[serve::kind_name(k.kind)].push_back(1e3 * s.service_s);
      wire.push_back(1e3 * (s.rtt_s - s.queue_s - s.service_s));
    }
    for (const char* kind : {"ppa", "charlib"}) {
      r.layer[std::string("serve.queue_ms.p50.") + kind] = quantile(queue[kind], 0.5);
      r.layer[std::string("serve.queue_ms.p99.") + kind] = quantile(queue[kind], 0.99);
      r.layer[std::string("serve.service_ms.p50.") + kind] = quantile(service[kind], 0.5);
      r.layer[std::string("serve.service_ms.p99.") + kind] = quantile(service[kind], 0.99);
    }
    r.layer["serve.wire_ms.p50"] = quantile(wire, 0.5);
    r.layer["serve.wire_ms.p99"] = quantile(wire, 0.99);
    r.layer["serve.coalesced"] = pr.server.counter("serve.coalesced");
    r.layer["serve.admitted"] = pr.server.counter("serve.admitted");
    r.layer["serve.rejected"] = pr.server.counter("serve.rejected.queue_full") +
                                pr.server.counter("serve.rejected.draining");
  }

  // Deterministic work: the request mix and everything the daemon
  // computed (each distinct key computes exactly once).  Coalescing and
  // cache hits depend on request timing and are reported as ranges.
  std::vector<std::map<std::string, double>> works;
  for (const PassResult& pr : passes) {
    std::map<std::string, double> work;
    std::set<std::string> distinct;
    for (const Key& k : mix) {
      work[std::string("requests.") + serve::kind_name(k.kind)] += 1.0;
      if (k.kind != serve::RequestKind::kHealth) distinct.insert(k.name());
    }
    work["requests.distinct_keys"] = static_cast<double>(distinct.size());
    for (const auto& [name, v] : pr.server.counters) {
      const bool timing = name.rfind("serve.", 0) == 0 ||
                          name.find(".cache_hit") != std::string::npos;
      if (!timing) {
        work[name] = v;
        continue;
      }
      auto [it, fresh] = r.work_ranges.emplace(name, std::make_pair(v, v));
      if (!fresh) {
        it->second.first = std::min(it->second.first, v);
        it->second.second = std::max(it->second.second, v);
      }
    }
    works.push_back(std::move(work));
  }
  r.work = works.front();
  for (std::size_t i = 1; i < works.size(); ++i)
    r.check(works[i] == works.front(),
            "serve-mixed work counts differ between passes");

  // Which kind of work the ppa + charlib requests met: cold (the request
  // computed its key), coalesced (it joined an in-flight computation) or
  // warm (the daemon's cache answered).  The split depends on the mix and
  // on request timing.
  double compute_requests = 0.0;
  for (const Key& k : mix)
    if (k.kind != serve::RequestKind::kHealth) compute_requests += 1.0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Snapshot& s = passes[p].server;
    const double cold = s.counter("ppa.computed") + s.counter("charlib.computed");
    const double coalesced = s.counter("serve.coalesced");
    const double warm = compute_requests - cold - coalesced;
    std::printf("serve-mixed pass %zu: %.0f ppa+charlib requests: cold %.4f, warm %.4f, coalesced %.4f\n",
                p + 1, compute_requests, cold / compute_requests,
                warm / compute_requests, coalesced / compute_requests);
    if (opt.trace && p + 1 == passes.size()) {
      r.layer["serve.cold_share"] = cold / compute_requests;
      r.layer["serve.warm_share"] = warm / compute_requests;
      r.layer["serve.coalesced_share"] = coalesced / compute_requests;
    }
  }

  // Byte identity of the sampled payloads against local computation.
  {
    runtime::ThreadPool pool(kPoolThreads);
    core::PpaOptions popts;
    popts.vdd = core::ProcessParams{}.vdd;
    const core::PpaEngine engine(core::reference_model_library(), popts);
    charlib::CharOptions co;
    co.grid = charlib::mini_char_grid();
    co.ppa.vdd = popts.vdd;
    const charlib::Characterizer ch(flow.cards, co, {}, {&pool, nullptr});
    for (const Key& k : key_space()) {
      const std::string name = k.name();
      if (keep.count(name) == 0) continue;
      std::string local;
      if (k.kind == serve::RequestKind::kPpa) {
        local = core::serialize_cell_ppa(engine.measure(k.cell, k.impl));
      } else {
        charlib::CharLibrary one;
        one.slew_axis = ch.grid().slews;
        one.load_axis = ch.grid().loads;
        one.insert(k.impl, ch.characterize_cell(k.cell, k.impl));
        local = one.to_text();
      }
      for (const PassResult& pr : passes) {
        const auto it = pr.kept_payload.find(name);
        r.check(it != pr.kept_payload.end() && it->second == local,
                "served payload of " + name + " is not byte-identical to local output");
      }
    }
    std::printf("serve-mixed: %zu sampled payloads checked byte for byte\n",
                keep.size());
  }
  return r;
}

}  // namespace e2e
