#include "runtime/artifact_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"

namespace mivtx::runtime {

namespace fs = std::filesystem;

std::string CacheKey::id() const {
  return domain + "-" + format("%016llx", static_cast<unsigned long long>(digest));
}

std::string CacheKey::filename() const { return id() + ".art"; }

ArtifactCache::ArtifactCache(Options opts) : opts_(std::move(opts)) {
  MIVTX_EXPECT(opts_.max_entries > 0, "cache needs at least one entry");
  if (!opts_.disk_dir.empty()) {
    std::error_code ec;
    fs::create_directories(opts_.disk_dir, ec);
    if (ec) {
      MIVTX_WARN << "artifact cache: cannot create '" << opts_.disk_dir
                 << "' (" << ec.message() << "); falling back to memory-only";
      opts_.disk_dir.clear();
    }
  }
  if (!opts_.disk_dir.empty()) {
    // Seed the usage tracker from artifacts a previous process left behind,
    // so the budget covers the whole directory, not just this run's stores.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(opts_.disk_dir, ec)) {
      if (entry.path().extension() != ".art") continue;
      std::error_code size_ec;
      const auto size = entry.file_size(size_ec);
      if (!size_ec) disk_bytes_ += size;
    }
  }
}

std::string ArtifactCache::env_disk_dir() {
  const char* dir = std::getenv("MIVTX_CACHE_DIR");
  return dir == nullptr ? std::string() : std::string(dir);
}

void ArtifactCache::insert_locked(const std::string& id,
                                  const std::string& payload) {
  const auto it = index_.find(id);
  if (it != index_.end()) {
    it->second->payload = payload;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{id, payload});
  index_[id] = lru_.begin();
  while (lru_.size() > opts_.max_entries) {
    index_.erase(lru_.back().id);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::optional<std::string> ArtifactCache::get(const CacheKey& key) {
  {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = index_.find(key.id());
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->payload;
    }
  }
  if (!opts_.disk_dir.empty()) {
    if (auto payload = disk_get(key)) {
      std::lock_guard<std::mutex> lk(m_);
      insert_locked(key.id(), *payload);
      ++stats_.hits;
      ++stats_.disk_hits;
      return payload;
    }
  }
  std::lock_guard<std::mutex> lk(m_);
  ++stats_.misses;
  return std::nullopt;
}

void ArtifactCache::put(const CacheKey& key, const std::string& payload) {
  {
    std::lock_guard<std::mutex> lk(m_);
    insert_locked(key.id(), payload);
    ++stats_.stores;
  }
  if (!opts_.disk_dir.empty()) disk_put(key, payload);
}

std::optional<std::string> ArtifactCache::disk_get(const CacheKey& key) {
  const fs::path path = fs::path(opts_.disk_dir) / key.filename();
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // plain miss, not corruption
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string file = buf.str();

  // Header: "mivtx-artifact <format> <domain> <digest-hex> <bytes>\n"
  const std::size_t nl = file.find('\n');
  bool ok = nl != std::string::npos;
  if (ok) {
    const auto fields = split(file.substr(0, nl), " ");
    ok = fields.size() == 5 && fields[0] == "mivtx-artifact" &&
         fields[1] == std::to_string(kCacheFormatVersion) &&
         fields[2] == key.domain &&
         fields[3] == format("%016llx",
                             static_cast<unsigned long long>(key.digest)) &&
         fields[4] == std::to_string(file.size() - nl - 1);
  }
  if (!ok) {
    MIVTX_WARN << "artifact cache: rejecting corrupt file " << path.string();
    std::lock_guard<std::mutex> lk(m_);
    ++stats_.corrupt;
    return std::nullopt;
  }
  return file.substr(nl + 1);
}

void ArtifactCache::disk_put(const CacheKey& key, const std::string& payload) {
  const fs::path path = fs::path(opts_.disk_dir) / key.filename();
  // Write-to-temp + rename so a concurrent reader (or a crash) never sees a
  // half-written artifact.  The temp name is unique per writer — pid plus
  // a process-wide sequence number: with a shared name, two processes
  // sharing one cache dir (benches with the same --cache-dir, parallel
  // ctest workers), or two threads of one process storing the same key,
  // would truncate each other's half-written temp file and rename
  // interleaved garbage into place.  Distinct temp names make the final
  // rename the only contended step, and rename is atomic — last writer
  // wins with complete content.
  static std::atomic<std::uint64_t> temp_seq{0};
  const fs::path tmp =
      path.string() + format(".%ld.%llu.tmp", static_cast<long>(::getpid()),
                             static_cast<unsigned long long>(temp_seq++));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      MIVTX_WARN << "artifact cache: cannot write " << tmp.string();
      std::lock_guard<std::mutex> lk(m_);
      ++stats_.disk_write_failures;
      return;
    }
    out << "mivtx-artifact " << kCacheFormatVersion << ' ' << key.domain << ' '
        << format("%016llx", static_cast<unsigned long long>(key.digest))
        << ' ' << payload.size() << '\n'
        << payload;
  }
  std::error_code ec;
  std::uint64_t replaced = 0;
  const auto old_size = fs::file_size(path, ec);
  if (!ec) replaced = old_size;
  fs::rename(tmp, path, ec);
  if (ec) {
    MIVTX_WARN << "artifact cache: rename to " << path.string() << " failed ("
               << ec.message() << ")";
    fs::remove(tmp, ec);
    std::lock_guard<std::mutex> lk(m_);
    ++stats_.disk_write_failures;
    return;
  }
  std::lock_guard<std::mutex> lk(m_);
  const auto size = fs::file_size(path, ec);
  if (!ec) {
    disk_bytes_ -= std::min(replaced, disk_bytes_);
    disk_bytes_ += size;
  }
  if (opts_.max_disk_bytes > 0 && disk_bytes_ > opts_.max_disk_bytes)
    disk_gc_locked();
}

void ArtifactCache::disk_gc_locked() {
  struct Victim {
    fs::file_time_type mtime;
    std::string name;  // tie-break for equal mtimes: deterministic order
    std::uint64_t size = 0;
  };
  std::vector<Victim> victims;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opts_.disk_dir, ec)) {
    if (entry.path().extension() != ".art") continue;
    const std::string name = entry.path().filename().string();
    if (pins_.count(name) > 0) continue;  // in-flight: never evicted
    std::error_code item_ec;
    const auto mtime = entry.last_write_time(item_ec);
    if (item_ec) continue;
    const auto size = entry.file_size(item_ec);
    if (item_ec) continue;
    victims.push_back(Victim{mtime, name, size});
  }
  std::sort(victims.begin(), victims.end(), [](const Victim& a,
                                               const Victim& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  for (const Victim& v : victims) {
    if (disk_bytes_ <= opts_.max_disk_bytes) break;
    std::error_code rm_ec;
    if (!fs::remove(fs::path(opts_.disk_dir) / v.name, rm_ec) || rm_ec)
      continue;
    disk_bytes_ -= std::min(v.size, disk_bytes_);
    ++stats_.disk_evictions;
  }
}

void ArtifactCache::pin(const CacheKey& key) {
  std::lock_guard<std::mutex> lk(m_);
  pins_[key.filename()] += 1;
}

void ArtifactCache::unpin(const CacheKey& key) {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = pins_.find(key.filename());
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

CachePin::CachePin(ArtifactCache* cache, CacheKey key)
    : cache_(cache), key_(std::move(key)) {
  if (cache_ != nullptr) cache_->pin(key_);
}

CachePin::~CachePin() {
  if (cache_ != nullptr) cache_->unpin(key_);
}

CachePin::CachePin(CachePin&& o) noexcept
    : cache_(o.cache_), key_(std::move(o.key_)) {
  o.cache_ = nullptr;
}

CachePin& CachePin::operator=(CachePin&& o) noexcept {
  if (this != &o) {
    if (cache_ != nullptr) cache_->unpin(key_);
    cache_ = o.cache_;
    key_ = std::move(o.key_);
    o.cache_ = nullptr;
  }
  return *this;
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

std::size_t ArtifactCache::memory_entries() const {
  std::lock_guard<std::mutex> lk(m_);
  return lru_.size();
}

std::uint64_t ArtifactCache::disk_usage_bytes() const {
  std::lock_guard<std::mutex> lk(m_);
  return disk_bytes_;
}

}  // namespace mivtx::runtime
