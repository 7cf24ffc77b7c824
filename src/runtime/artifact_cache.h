// Content-addressed artifact cache: in-memory LRU + optional on-disk store.
//
// Keys are (domain, 64-bit stable digest); producers hash *every* input the
// artifact depends on — process parameters, sweep grids, model cards,
// options — plus a schema version (core/artifacts.h), so any physics or
// format change invalidates cleanly: a new digest simply never finds the
// old payload.  Payloads are opaque strings (the flow serializes its
// artifacts as lossless text, see core/artifacts.h).
//
// Disk files carry a validated header line; any mismatch (truncation,
// partial write, foreign file) counts as a miss and is reported in stats,
// never an error — a corrupt cache can only cost recomputation.
//
// The disk layer can be bounded (Options::max_disk_bytes, mivtx_serve
// --cache-max-bytes): when a store pushes the directory over budget, the
// oldest artifacts by mtime are garbage-collected until it fits again.
// Keys pinned through pin()/CachePin — entries some in-flight computation
// or response still needs — are never evicted.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace mivtx::runtime {

// On-disk container format version (header line), independent of the
// artifact *schema* versions the key digests carry.
inline constexpr int kCacheFormatVersion = 1;

struct CacheKey {
  std::string domain;        // short tag: "char", "card", "ppa", ...
  std::uint64_t digest = 0;  // StableHash of every input + schema version

  std::string id() const;        // "char-0123456789abcdef"
  std::string filename() const;  // id() + ".art"
  bool operator==(const CacheKey& o) const {
    return digest == o.digest && domain == o.domain;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;       // served (memory or disk)
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t disk_hits = 0;  // subset of hits that came from disk
  std::uint64_t corrupt = 0;    // disk payloads rejected by validation
  std::uint64_t evictions = 0;  // LRU evictions (memory layer only)
  std::uint64_t disk_evictions = 0;  // files removed by the disk GC
  std::uint64_t disk_write_failures = 0;  // stores whose file never landed

  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class ArtifactCache {
 public:
  struct Options {
    std::size_t max_entries = 512;  // in-memory LRU capacity
    std::string disk_dir;           // empty = memory-only
    // Disk-layer budget in bytes; 0 = unbounded.  Enforced after every
    // store by evicting the mtime-oldest unpinned artifacts.
    std::uint64_t max_disk_bytes = 0;
  };

  ArtifactCache() : ArtifactCache(Options()) {}
  explicit ArtifactCache(Options opts);

  // $MIVTX_CACHE_DIR, or "" when unset — the conventional way benches pick
  // a default disk directory.
  static std::string env_disk_dir();

  // Thread-safe.  get() promotes memory hits to most-recently-used and
  // pulls disk hits into the memory layer.
  std::optional<std::string> get(const CacheKey& key);
  void put(const CacheKey& key, const std::string& payload);

  // Pin a key against disk GC while a computation or response that needs
  // it is in flight.  Re-entrant (counted); prefer the CachePin RAII.
  void pin(const CacheKey& key);
  void unpin(const CacheKey& key);

  CacheStats stats() const;
  std::size_t memory_entries() const;
  // Tracked size of the disk layer (headers + payloads), in bytes.
  std::uint64_t disk_usage_bytes() const;
  const std::string& disk_dir() const { return opts_.disk_dir; }

 private:
  struct Entry {
    std::string id;
    std::string payload;
  };

  void insert_locked(const std::string& id, const std::string& payload);
  std::optional<std::string> disk_get(const CacheKey& key);
  void disk_put(const CacheKey& key, const std::string& payload);
  void disk_gc_locked();

  Options opts_;
  mutable std::mutex m_;
  std::list<Entry> lru_;  // front = most recent
  std::map<std::string, std::list<Entry>::iterator> index_;
  std::map<std::string, int> pins_;  // filename -> pin count
  std::uint64_t disk_bytes_ = 0;     // tracked *.art usage under disk_dir
  CacheStats stats_;
};

// RAII pin: protects `key` from disk GC for the scope's lifetime.  A
// default-constructed (or moved-from) pin is inert; so is one on a null
// cache, which lets call sites pin unconditionally.
class CachePin {
 public:
  CachePin() = default;
  CachePin(ArtifactCache* cache, CacheKey key);
  ~CachePin();
  CachePin(CachePin&& o) noexcept;
  CachePin& operator=(CachePin&& o) noexcept;
  CachePin(const CachePin&) = delete;
  CachePin& operator=(const CachePin&) = delete;

 private:
  ArtifactCache* cache_ = nullptr;
  CacheKey key_;
};

}  // namespace mivtx::runtime
