// mivtx::runtime: work-stealing pool determinism and exception contract,
// stable hashing, the content-addressed artifact cache (memory, disk,
// corruption recovery), lossless artifact serialization, and the
// parallel-vs-serial bit-identity of the PPA and variability flows.
#include <gtest/gtest.h>

#include <limits>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/artifacts.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "core/variability.h"
#include "runtime/artifact_cache.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "temp_dir.h"

namespace mivtx {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- hashing

TEST(StableHash, DeterministicAndOrderSensitive) {
  StableHash a, b;
  a.mix(std::uint64_t{1}).mix(2.5).mix("abc");
  b.mix(std::uint64_t{1}).mix(2.5).mix("abc");
  EXPECT_EQ(a.digest(), b.digest());

  StableHash c;
  c.mix("abc").mix(2.5).mix(std::uint64_t{1});
  EXPECT_NE(a.digest(), c.digest());
}

TEST(StableHash, NegativeZeroCanonicalized) {
  StableHash pos, neg;
  pos.mix(0.0);
  neg.mix(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
  StableHash tiny;
  tiny.mix(1e-300);
  EXPECT_NE(pos.digest(), tiny.digest());
}

TEST(StableHash, StringsAreLengthPrefixed) {
  StableHash a, b;
  a.mix("ab").mix("c");
  b.mix("a").mix("bc");
  EXPECT_NE(a.digest(), b.digest());
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, SizeOneRunsInlineWithoutThreads) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.run_one());
}

TEST(ThreadPool, ManyTasksUnderContention) {
  runtime::ThreadPool pool(4);
  std::atomic<int> count{0};
  runtime::TaskGroup group(&pool);
  for (int i = 0; i < 500; ++i) {
    group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, RepeatedStartStop) {
  for (int round = 0; round < 8; ++round) {
    runtime::ThreadPool pool(3);
    std::atomic<int> count{0};
    runtime::parallel_for(&pool, 64,
                          [&count](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64);
  }  // destructor joins all workers every round
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  runtime::ThreadPool pool(4);
  const std::vector<std::size_t> out = runtime::parallel_map<std::size_t>(
      &pool, 200, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  runtime::ThreadPool pool(4);
  // Several indices throw; the caller must observe the same exception the
  // serial loop would have thrown first (index 37).
  auto work = [](std::size_t i) {
    if (i == 151 || i == 37 || i == 90) {
      throw std::runtime_error(std::to_string(i));
    }
  };
  try {
    runtime::parallel_for(&pool, 200, work);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "37");
  }
}

TEST(ThreadPool, NestedGroupsDoNotDeadlock) {
  runtime::ThreadPool pool(2);
  std::atomic<int> count{0};
  // Outer fan-out saturates the pool; inner fan-outs must make progress via
  // help-while-wait instead of blocking every worker.
  runtime::parallel_for(&pool, 8, [&](std::size_t) {
    runtime::parallel_for(&pool, 8,
                          [&count](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersAndTimers) {
  runtime::Metrics m;
  m.add("widgets", 2.0);
  m.add("widgets");
  EXPECT_DOUBLE_EQ(m.counter_total("widgets"), 3.0);
  EXPECT_DOUBLE_EQ(m.counter_total("absent"), 0.0);
  { runtime::ScopedTimer t("phase", m); }
  const auto timers = m.timers();
  ASSERT_EQ(timers.count("phase"), 1u);
  EXPECT_EQ(timers.at("phase").count, 1u);
  EXPECT_GE(timers.at("phase").wall_s, 0.0);
  EXPECT_NE(m.render_json().find("\"widgets\""), std::string::npos);
  EXPECT_NE(m.render_text().find("phase"), std::string::npos);
  m.reset();
  EXPECT_DOUBLE_EQ(m.counter_total("widgets"), 0.0);
  EXPECT_TRUE(m.timers().empty());
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  EXPECT_EQ(runtime::histogram_bucket(0.0), 0u);
  EXPECT_EQ(runtime::histogram_bucket(1e-9), 0u);   // 1 ns
  EXPECT_EQ(runtime::histogram_bucket(2e-9), 1u);   // [2, 4) ns
  EXPECT_EQ(runtime::histogram_bucket(3e-9), 1u);
  EXPECT_EQ(runtime::histogram_bucket(1e-6), 9u);   // 1000 ns -> [512, 1024)
  EXPECT_EQ(runtime::histogram_bucket(1e9),
            runtime::kHistogramBuckets - 1);        // clamped

  runtime::Metrics m;
  for (int i = 0; i < 90; ++i) m.record_latency("lat", 1e-6);
  for (int i = 0; i < 10; ++i) m.record_latency("lat", 1e-3);
  const runtime::HistogramValue h = m.histogram("lat");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.max_s, 1e-3);
  EXPECT_NEAR(h.mean_s(), (90 * 1e-6 + 10 * 1e-3) / 100.0, 1e-15);
  // Quantiles report the top edge of the holding bucket: the 50th sample
  // sits in [512, 1024) ns, the 95th in [2^19, 2^20) ns.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1024e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 1048576e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1048576e-9);
  EXPECT_DOUBLE_EQ(runtime::HistogramValue{}.quantile(0.5), 0.0);

  EXPECT_NE(m.render_text().find("p95"), std::string::npos);
  const std::string json = m.render_json();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_s\""), std::string::npos);
  m.reset();
  EXPECT_EQ(m.histogram("lat").count, 0u);
}

TEST(Metrics, OverRangeLatencySamplesClampIntoTopBucket) {
  // Regression: bucketing used to cast log2(ns) to size_t before
  // clamping, so an infinite (or 1e9-overflowing) latency converted +inf
  // to an integer — undefined behavior the UBSan CI leg now guards.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(runtime::histogram_bucket(inf), runtime::kHistogramBuckets - 1);
  EXPECT_EQ(runtime::histogram_bucket(1e300),  // ns product overflows to inf
            runtime::kHistogramBuckets - 1);
  EXPECT_EQ(runtime::histogram_bucket(std::numeric_limits<double>::max()),
            runtime::kHistogramBuckets - 1);
  EXPECT_EQ(runtime::histogram_bucket(-inf), 0u);

  runtime::Metrics m;
  m.record_latency("lat", inf);
  m.record_latency("lat", 1e-6);
  const runtime::HistogramValue h = m.histogram("lat");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.buckets[runtime::kHistogramBuckets - 1], 1u);
  // Rendering and quantiles stay finite-field well-formed.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1024e-9);
  EXPECT_NE(m.render_json().find("\"lat\""), std::string::npos);
}

// ----------------------------------------------------------------- cache

TEST(ArtifactCache, MemoryHitMissAndLruEviction) {
  runtime::ArtifactCache::Options opts;
  opts.max_entries = 2;
  runtime::ArtifactCache cache(opts);
  const runtime::CacheKey k1{"ppa", 1}, k2{"ppa", 2}, k3{"ppa", 3};
  EXPECT_FALSE(cache.get(k1).has_value());
  cache.put(k1, "one");
  cache.put(k2, "two");
  EXPECT_EQ(cache.get(k1).value(), "one");  // promotes k1 to MRU
  cache.put(k3, "three");                   // evicts k2, the LRU entry
  EXPECT_EQ(cache.memory_entries(), 2u);
  EXPECT_FALSE(cache.get(k2).has_value());
  EXPECT_EQ(cache.get(k1).value(), "one");
  EXPECT_EQ(cache.get(k3).value(), "three");
  const runtime::CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_GT(s.hit_rate(), 0.5);
}

TEST(ArtifactCache, DiskRoundTripAcrossInstances) {
  // Unique per test process: a fixed /tmp name races against parallel
  // ctest workers and sibling build trees (see temp_dir.h).
  const testutil::ScopedTempDir scoped("mivtx_cache_rt");
  const fs::path dir = scoped.path();
  const runtime::CacheKey key{"char", 0xdeadbeef12345678ULL};
  {
    runtime::ArtifactCache::Options opts;
    opts.disk_dir = dir.string();
    runtime::ArtifactCache writer(opts);
    writer.put(key, "payload with\nnewlines and \x01 bytes");
  }
  runtime::ArtifactCache::Options opts;
  opts.disk_dir = dir.string();
  runtime::ArtifactCache reader(opts);
  const auto hit = reader.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload with\nnewlines and \x01 bytes");
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // Pulled into memory: a second get is a pure memory hit.
  EXPECT_TRUE(reader.get(key).has_value());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  fs::remove_all(dir);
}

TEST(ArtifactCache, CorruptDiskFileIsAMissNotAnError) {
  const testutil::ScopedTempDir scoped("mivtx_cache_corrupt");
  const fs::path dir = scoped.path();
  const runtime::CacheKey key{"ppa", 42};
  runtime::ArtifactCache::Options opts;
  opts.disk_dir = dir.string();
  {
    runtime::ArtifactCache writer(opts);
    writer.put(key, "good payload");
    // Truncate the artifact mid-payload, as a crash or full disk would.
    std::ofstream out(dir / key.filename(), std::ios::trunc);
    out << "mivtx-artifact 1 ppa 002a 999\ngarb";
  }
  runtime::ArtifactCache reader(opts);
  EXPECT_FALSE(reader.get(key).has_value());
  const runtime::CacheStats s = reader.stats();
  EXPECT_EQ(s.corrupt, 1u);
  EXPECT_EQ(s.misses, 1u);
  // Recovery: a fresh put replaces the corrupt file.
  reader.put(key, "recomputed");
  runtime::ArtifactCache reader2(opts);
  EXPECT_EQ(reader2.get(key).value(), "recomputed");
  fs::remove_all(dir);
}

TEST(ArtifactCache, ConcurrentStoresOfOneKeyNeverTearTheFile) {
  // Threads of one process storing the same key (two requests finishing
  // one artifact) must each write their own temp file: a shared one is
  // truncated under a writer and renamed away half-written.
  const testutil::ScopedTempDir scoped("mivtx_cache_race");
  runtime::ArtifactCache::Options opts;
  opts.disk_dir = scoped.str();
  runtime::ArtifactCache writer(opts);
  const runtime::CacheKey key{"char", 7};
  const std::string payload(std::size_t{2} << 20, 'p');
  writer.put(key, payload);

  std::atomic<bool> done{false};
  std::uint64_t corrupt = 0, torn = 0;
  std::thread reader([&] {
    while (!done.load()) {
      // A fresh instance per read: its memory layer never masks the disk.
      runtime::ArtifactCache other(opts);
      const auto hit = other.get(key);
      if (hit && *hit != payload) ++torn;
      corrupt += other.stats().corrupt;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) writer.put(key, payload);
    });
  for (std::thread& w : writers) w.join();
  done = true;
  reader.join();

  EXPECT_EQ(writer.stats().disk_write_failures, 0u);
  EXPECT_EQ(corrupt, 0u);
  EXPECT_EQ(torn, 0u);
  for (const auto& entry : fs::directory_iterator(scoped.path()))
    EXPECT_EQ(entry.path().extension(), ".art") << entry.path();
}

TEST(ArtifactCache, DiskGcEvictsOldestUnpinnedFirst) {
  const testutil::ScopedTempDir scoped("mivtx_cache_gc");
  const fs::path dir = scoped.path();
  const std::string payload(100, 'x');
  const runtime::CacheKey a{"ppa", 1}, b{"ppa", 2}, c{"ppa", 3};

  runtime::ArtifactCache::Options opts;
  opts.disk_dir = dir.string();
  {
    runtime::ArtifactCache probe(opts);  // unbounded: measure one file
    probe.put(a, payload);
  }
  const std::uintmax_t file_size = fs::file_size(dir / a.filename());
  opts.max_disk_bytes = file_size * 5 / 2;  // holds two artifacts, not three

  runtime::ArtifactCache cache(opts);  // seeds usage from the existing file
  EXPECT_EQ(cache.disk_usage_bytes(), file_size);
  using namespace std::chrono_literals;
  fs::last_write_time(dir / a.filename(),
                      fs::file_time_type::clock::now() - 2h);
  cache.put(b, payload);
  EXPECT_EQ(cache.stats().disk_evictions, 0u);  // two files fit
  fs::last_write_time(dir / b.filename(),
                      fs::file_time_type::clock::now() - 1h);

  cache.put(c, payload);  // over budget: the mtime-oldest artifact goes
  EXPECT_FALSE(fs::exists(dir / a.filename()));
  EXPECT_TRUE(fs::exists(dir / b.filename()));
  EXPECT_TRUE(fs::exists(dir / c.filename()));
  EXPECT_EQ(cache.stats().disk_evictions, 1u);
  EXPECT_LE(cache.disk_usage_bytes(), opts.max_disk_bytes);

  // Evicted from disk and never in this instance's memory layer: a miss.
  EXPECT_FALSE(cache.get(a).has_value());
  EXPECT_TRUE(cache.get(b).has_value());
}

TEST(ArtifactCache, DiskGcNeverEvictsPinnedEntries) {
  const testutil::ScopedTempDir scoped("mivtx_cache_pin");
  const fs::path dir = scoped.path();
  const std::string payload(100, 'x');
  const runtime::CacheKey a{"char", 1}, b{"char", 2}, c{"char", 3},
      d{"char", 4};

  runtime::ArtifactCache::Options opts;
  opts.disk_dir = dir.string();
  {
    runtime::ArtifactCache probe(opts);
    probe.put(a, payload);
  }
  const std::uintmax_t file_size = fs::file_size(dir / a.filename());
  opts.max_disk_bytes = file_size * 5 / 2;

  runtime::ArtifactCache cache(opts);
  using namespace std::chrono_literals;
  fs::last_write_time(dir / a.filename(),
                      fs::file_time_type::clock::now() - 2h);
  cache.put(b, payload);
  fs::last_write_time(dir / b.filename(),
                      fs::file_time_type::clock::now() - 1h);

  {
    // `a` is the eviction candidate by age, but it is in flight: the GC
    // must take the next-oldest unpinned artifact instead.
    const runtime::CachePin pin(&cache, a);
    cache.put(c, payload);
    EXPECT_TRUE(fs::exists(dir / a.filename()));
    EXPECT_FALSE(fs::exists(dir / b.filename()));
    EXPECT_EQ(cache.stats().disk_evictions, 1u);
  }

  // Pin released: the next over-budget store may finally evict `a`.
  cache.put(d, payload);
  EXPECT_FALSE(fs::exists(dir / a.filename()));
  EXPECT_TRUE(fs::exists(dir / c.filename()));
  EXPECT_TRUE(fs::exists(dir / d.filename()));
  EXPECT_EQ(cache.stats().disk_evictions, 2u);

  // Inert pins (null cache, moved-from) are safe no-ops.
  runtime::CachePin inert(nullptr, a);
  runtime::CachePin moved(std::move(inert));
}

// ----------------------------------------------------------- cache keys

TEST(ArtifactKeys, EveryPhysicsInputChangesTheDigest) {
  core::ProcessParams process;
  extract::SweepGrid grid;
  const runtime::CacheKey base = core::characterization_key(
      process, core::Variant::kTraditional, core::Polarity::kNmos, grid);
  EXPECT_EQ(base.domain, "char");

  core::ProcessParams thicker = process;
  thicker.l_gate *= 1.001;
  EXPECT_NE(base.digest,
            core::characterization_key(thicker, core::Variant::kTraditional,
                                       core::Polarity::kNmos, grid)
                .digest);
  extract::SweepGrid finer = grid;
  finer.n_vg += 1;
  EXPECT_NE(base.digest,
            core::characterization_key(process, core::Variant::kTraditional,
                                       core::Polarity::kNmos, finer)
                .digest);
  EXPECT_NE(base.digest,
            core::characterization_key(process, core::Variant::kMiv2Channel,
                                       core::Polarity::kNmos, grid)
                .digest);
  // Same inputs reproduce the same key across calls.
  EXPECT_EQ(base.digest,
            core::characterization_key(process, core::Variant::kTraditional,
                                       core::Polarity::kNmos, grid)
                .digest);
}

TEST(ArtifactKeys, PpaKeyTracksCardsAndOptions) {
  const core::ModelLibrary& lib = core::reference_model_library();
  core::PpaEngine engine(lib);
  const cells::ModelSet models =
      engine.model_set(cells::Implementation::kMiv2Channel);
  core::PpaOptions opts;
  layout::DesignRules rules;
  const runtime::CacheKey base =
      core::ppa_key(models, cells::CellType::kInv1,
                    cells::Implementation::kMiv2Channel, opts, rules);
  EXPECT_EQ(base.domain, "ppa");

  core::PpaOptions hotter = opts;
  hotter.vdd = 1.05;
  EXPECT_NE(base.digest,
            core::ppa_key(models, cells::CellType::kInv1,
                          cells::Implementation::kMiv2Channel, hotter, rules)
                .digest);
  cells::ModelSet perturbed = models;
  perturbed.nmos.vth0 += 1e-6;
  EXPECT_NE(base.digest,
            core::ppa_key(perturbed, cells::CellType::kInv1,
                          cells::Implementation::kMiv2Channel, opts, rules)
                .digest);
  EXPECT_NE(base.digest,
            core::ppa_key(models, cells::CellType::kNand2,
                          cells::Implementation::kMiv2Channel, opts, rules)
                .digest);
}

// -------------------------------------------------------- serialization

TEST(Artifacts, CharacteristicsRoundTripExactly) {
  extract::CharacteristicSet data;
  data.device_name = "nmos_test";
  data.vds_low = 0.05;
  data.vds_high = 1.0;
  // Values with no finite decimal expansion stress the %.17g round-trip.
  data.idvg_low = {{0.1, 1.0 / 3.0}, {0.2, 2e-7}, {0.3, 3e-6}};
  data.idvg_high = {{0.1, 1e-9}, {0.2, 1.0 / 7.0}, {0.3, 5e-5}};
  data.idvd.push_back({0.6, {{0.0, 0.0}, {0.5, 1e-5}, {1.0, 2e-5}}});
  data.idvd.push_back({1.0, {{0.0, 0.0}, {0.5, 4e-5}, {1.0, 8.1e-5}}});
  data.cv = {{0.0, 1.23456789012345e-15}, {1.0, 2e-15}};

  const extract::CharacteristicSet back =
      core::parse_characteristics(core::serialize_characteristics(data));
  EXPECT_EQ(back.device_name, data.device_name);
  EXPECT_EQ(back.vds_low, data.vds_low);
  EXPECT_EQ(back.vds_high, data.vds_high);
  ASSERT_EQ(back.idvg_low.size(), data.idvg_low.size());
  EXPECT_EQ(back.idvg_low[0].y, 1.0 / 3.0);  // exact, not NEAR
  ASSERT_EQ(back.idvd.size(), 2u);
  EXPECT_EQ(back.idvd[1].curve[2].y, 8.1e-5);
  EXPECT_EQ(back.cv[0].y, 1.23456789012345e-15);
}

TEST(Artifacts, ExtractionReportRoundTripExactly) {
  extract::ExtractionReport report;
  report.card = core::reference_model_library().card(
      core::Variant::kMiv4Channel, core::Polarity::kPmos);
  report.errors = {0.032, 1.0 / 3.0, 0.096};
  report.stages.push_back(
      {"low-drain", {"cdsc", "u0", "dvt0"}, 0.5, 0.04, 1234});
  report.stages.push_back({"ieff-retarget", {}, 0.08, 0.07, 77});

  const extract::ExtractionReport back =
      core::parse_extraction(core::serialize_extraction(report));
  EXPECT_EQ(back.card.to_model_line(), report.card.to_model_line());
  EXPECT_EQ(back.errors.idvd, 1.0 / 3.0);
  ASSERT_EQ(back.stages.size(), 2u);
  EXPECT_EQ(back.stages[0].name, "low-drain");
  ASSERT_EQ(back.stages[0].parameters.size(), 3u);
  EXPECT_EQ(back.stages[0].parameters[2], "dvt0");
  EXPECT_EQ(back.stages[0].evaluations, 1234u);
  EXPECT_EQ(back.stages[1].parameters.size(), 0u);
}

TEST(Artifacts, CellPpaRoundTripExactly) {
  core::CellPpa ppa;
  ppa.type = cells::CellType::kNand2;
  ppa.impl = cells::Implementation::kMiv4Channel;
  ppa.ok = true;
  ppa.delay = 23.456e-12 / 3.0;
  ppa.power = 1.7e-6;
  ppa.area = 0.33e-12;
  ppa.pdp = ppa.delay * ppa.power;
  ppa.mivs.total = 4;
  ppa.mivs.gate_external = 2;
  ppa.mivs.internal = 2;
  ppa.arcs.push_back({"A", true, 20e-12});
  ppa.arcs.push_back({"B", false, 1.0 / 3.0 * 1e-12});

  const core::CellPpa back = core::parse_cell_ppa(core::serialize_cell_ppa(ppa));
  EXPECT_EQ(back.type, ppa.type);
  EXPECT_EQ(back.impl, ppa.impl);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.delay, ppa.delay);
  EXPECT_EQ(back.pdp, ppa.pdp);
  EXPECT_EQ(back.mivs.gate_external, 2);
  ASSERT_EQ(back.arcs.size(), 2u);
  EXPECT_EQ(back.arcs[1].pin, "B");
  EXPECT_FALSE(back.arcs[1].input_rising);
  EXPECT_EQ(back.arcs[1].delay, 1.0 / 3.0 * 1e-12);
}

TEST(Artifacts, ParseRejectsMalformedPayloads) {
  EXPECT_THROW(core::parse_cell_ppa(""), Error);
  EXPECT_THROW(core::parse_cell_ppa("not an artifact"), Error);
  EXPECT_THROW(core::parse_characteristics("charset 999 future"), Error);
  const std::string good =
      core::serialize_cell_ppa(core::CellPpa{});
  EXPECT_THROW(core::parse_cell_ppa(good.substr(0, good.size() / 2)), Error);
}

// --------------------------------------------------- card text fidelity

TEST(CardText, ReferenceCardsRoundTripBitExactly) {
  const core::ModelLibrary& lib = core::reference_model_library();
  for (core::Polarity pol : {core::Polarity::kNmos, core::Polarity::kPmos}) {
    for (core::Variant v : core::all_variants()) {
      const bsimsoi::SoiModelCard& card = lib.card(v, pol);
      const bsimsoi::SoiModelCard back =
          bsimsoi::SoiModelCard::from_model_line(card.to_model_line());
      // Exact equality, not NEAR: %.17g + from_chars must be lossless.
      EXPECT_EQ(back.to_model_line(), card.to_model_line())
          << core::device_key(v, pol);
      EXPECT_EQ(back.vth0, card.vth0);
      EXPECT_EQ(back.u0, card.u0);
    }
  }
}

TEST(CardText, NonTerminatingDoublesSurvive) {
  bsimsoi::SoiModelCard card = core::reference_model_library().card(
      core::Variant::kTraditional, core::Polarity::kNmos);
  card.vth0 = 1.0 / 3.0;
  card.u0 = 0.1;  // not representable exactly in binary
  card.ua = 2.0 / 7.0 * 1e-9;
  const bsimsoi::SoiModelCard back =
      bsimsoi::SoiModelCard::from_model_line(card.to_model_line());
  EXPECT_EQ(back.vth0, 1.0 / 3.0);
  EXPECT_EQ(back.u0, 0.1);
  EXPECT_EQ(back.ua, 2.0 / 7.0 * 1e-9);
}

TEST(CardText, ModelLibraryTextRoundTripIsExact) {
  const core::ModelLibrary& lib = core::reference_model_library();
  const core::ModelLibrary back = core::ModelLibrary::from_text(lib.to_text());
  EXPECT_EQ(back.size(), lib.size());
  EXPECT_EQ(back.to_text(), lib.to_text());
}

// ------------------------------------------------------------ rng split

TEST(RngSplit, DoesNotAdvanceParent) {
  Rng a(123), b(123);
  (void)a.split(7);
  (void)a.split(8);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngSplit, StreamsAreReproducibleAndDistinct) {
  const Rng parent(42);
  Rng s0 = parent.split(0);
  Rng s0_again = parent.split(0);
  Rng s1 = parent.split(1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t v = s0.next_u64();
    EXPECT_EQ(v, s0_again.next_u64());
    any_diff |= v != s1.next_u64();
  }
  EXPECT_TRUE(any_diff);
}

// -------------------------------------------- parallel flows: identity

TEST(ParallelPpa, BitIdenticalForOneAndNThreads) {
  const core::ModelLibrary& lib = core::reference_model_library();
  core::PpaEngine serial(lib);

  runtime::ThreadPool pool(3);
  runtime::ExecPolicy exec;
  exec.pool = &pool;
  core::PpaEngine parallel(lib, {}, {}, exec);

  for (cells::CellType type :
       {cells::CellType::kInv1, cells::CellType::kNand2}) {
    const core::CellPpa a =
        serial.measure(type, cells::Implementation::kMiv2Channel);
    const core::CellPpa b =
        parallel.measure(type, cells::Implementation::kMiv2Channel);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.delay, b.delay);  // bit-identical, not NEAR
    EXPECT_EQ(a.power, b.power);
    EXPECT_EQ(a.pdp, b.pdp);
    EXPECT_EQ(a.area, b.area);
    ASSERT_EQ(a.arcs.size(), b.arcs.size());
    for (std::size_t i = 0; i < a.arcs.size(); ++i) {
      EXPECT_EQ(a.arcs[i].pin, b.arcs[i].pin);
      EXPECT_EQ(a.arcs[i].delay, b.arcs[i].delay);
    }
  }
}

TEST(ParallelPpa, CacheHitReturnsIdenticalResult) {
  const core::ModelLibrary& lib = core::reference_model_library();
  runtime::ArtifactCache cache;
  runtime::ExecPolicy exec;
  exec.cache = &cache;
  core::PpaEngine engine(lib, {}, {}, exec);

  const core::CellPpa first =
      engine.measure(cells::CellType::kInv1, cells::Implementation::k2D);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(cache.stats().hits, 0u);
  const core::CellPpa second =
      engine.measure(cells::CellType::kInv1, cells::Implementation::k2D);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(second.delay, first.delay);
  EXPECT_EQ(second.power, first.power);
  EXPECT_EQ(second.area, first.area);
  ASSERT_EQ(second.arcs.size(), first.arcs.size());
}

TEST(ParallelPpa, CorruptCachedPayloadTriggersRecompute) {
  const core::ModelLibrary& lib = core::reference_model_library();
  runtime::ArtifactCache cache;
  runtime::ExecPolicy exec;
  exec.cache = &cache;
  core::PpaEngine engine(lib, {}, {}, exec);

  const runtime::CacheKey key = core::ppa_key(
      engine.model_set(cells::Implementation::k2D), cells::CellType::kInv1,
      cells::Implementation::k2D, {}, engine.rules());
  cache.put(key, "this is not a CellPpa");
  const core::CellPpa ppa =
      engine.measure(cells::CellType::kInv1, cells::Implementation::k2D);
  ASSERT_TRUE(ppa.ok);  // recomputed despite the poisoned entry
  // The recomputed artifact replaced the garbage.
  const core::CellPpa again = core::parse_cell_ppa(cache.get(key).value());
  EXPECT_EQ(again.delay, ppa.delay);
}

TEST(ParallelVariability, BitIdenticalForOneAndNThreads) {
  const core::ModelLibrary& lib = core::reference_model_library();
  core::VariationSpec spec;
  spec.samples = 5;
  const core::VariabilityStats serial = core::run_variability(
      lib, cells::CellType::kInv1, cells::Implementation::k2D, spec);

  runtime::ThreadPool pool(3);
  runtime::ExecPolicy exec;
  exec.pool = &pool;
  const core::VariabilityStats parallel = core::run_variability(
      lib, cells::CellType::kInv1, cells::Implementation::k2D, spec, {}, exec);

  EXPECT_EQ(serial.samples, parallel.samples);
  EXPECT_EQ(serial.mean_delay, parallel.mean_delay);
  EXPECT_EQ(serial.sigma_delay, parallel.sigma_delay);
  EXPECT_EQ(serial.worst_delay, parallel.worst_delay);
  EXPECT_EQ(serial.mean_power, parallel.mean_power);
}

}  // namespace
}  // namespace mivtx
