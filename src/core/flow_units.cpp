#include "core/flow_units.h"

#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "core/artifacts.h"
#include "runtime/artifact_cache.h"
#include "runtime/metrics.h"
#include "tcad/characterize.h"
#include "trace/trace.h"

namespace mivtx::core {

namespace {

// Cache half of the scaffold: the parsed artifact, counted as
// <domain>.cache_hit, or nullopt on a miss.  A payload that fails to parse
// is demoted to a miss (the caller recomputes and overwrites it).
template <typename T, typename Parse>
std::optional<T> cached_value(const char* what, const runtime::CacheKey& key,
                              runtime::ArtifactCache* cache, Parse parse) {
  if (cache == nullptr) return std::nullopt;
  const auto hit = cache->get(key);
  if (!hit) return std::nullopt;
  try {
    T value = parse(*hit);
    runtime::Metrics::global().add(std::string("flow.") + key.domain +
                                   ".cache_hit");
    return value;
  } catch (const Error& e) {
    MIVTX_WARN << "discarding unreadable cached " << what << " ("
               << key.id() << "): " << e.what();
    return std::nullopt;
  }
}

// Fetch-or-compute scaffold shared by the units: cached_value, else
// compute, count <domain>.computed and store; the key is pinned against
// disk GC for the whole call.
template <typename T, typename Parse, typename Compute, typename Serialize>
T cached_unit(const char* what, const runtime::CacheKey& key,
              runtime::ArtifactCache* cache, Parse parse, Compute compute,
              Serialize serialize) {
  const runtime::CachePin pin(cache, key);
  if (std::optional<T> value = cached_value<T>(what, key, cache, parse))
    return std::move(*value);
  T value = compute();
  runtime::Metrics::global().add(std::string("flow.") + key.domain +
                                 ".computed");
  if (cache != nullptr) cache->put(key, serialize(value));
  return value;
}

CornerLibrary parse_corner_library(const std::string& text) {
  return CornerLibrary{parse_library(text), text};
}

}  // namespace

extract::CharacteristicSet run_curves_unit(const ProcessParams& process,
                                           Variant v, Polarity pol,
                                           const extract::SweepGrid& grid,
                                           runtime::ArtifactCache* cache) {
  return cached_unit<extract::CharacteristicSet>(
      "characteristics", characterization_key(process, v, pol, grid), cache,
      parse_characteristics,
      [&] {
        MIVTX_INFO << "characterizing " << device_key(v, pol);
        trace::Span span("flow.characterize", "flow",
                         device_key(v, pol).c_str());
        runtime::ScopedTimer timer("flow.characterize");
        return characterize_device(process, v, pol, grid);
      },
      serialize_characteristics);
}

DeviceExtraction run_extraction_unit(const ProcessParams& process, Variant v,
                                     Polarity pol,
                                     const extract::SweepGrid& grid,
                                     const extract::ExtractionOptions& opts,
                                     runtime::ArtifactCache* cache) {
  trace::Span span("flow.device", "flow", device_key(v, pol).c_str());
  DeviceExtraction dev;
  dev.variant = v;
  dev.polarity = pol;
  dev.data = run_curves_unit(process, v, pol, grid, cache);
  dev.report = cached_unit<extract::ExtractionReport>(
      "extraction", extraction_key(process, v, pol, grid, opts), cache,
      parse_extraction,
      [&] {
        MIVTX_INFO << "extracting " << device_key(v, pol);
        trace::Span extract_span("flow.extract", "flow",
                                 device_key(v, pol).c_str());
        runtime::ScopedTimer timer("flow.extract");
        return extract::extract_card(dev.data, initial_card(process, v, pol),
                                     opts);
      },
      serialize_extraction);
  return dev;
}

CornerLibrary run_library_unit(const ProcessParams& process,
                               const extract::SweepGrid& grid,
                               const extract::ExtractionOptions& opts,
                               const FlowOptions& exec) {
  return cached_unit<CornerLibrary>(
      "model library", library_key(process, grid, opts), exec.cache,
      parse_corner_library,
      [&] {
        ModelLibrary cards = run_full_flow(process, grid, opts, exec).library;
        std::string text = cards.to_text();
        return CornerLibrary{std::move(cards), std::move(text)};
      },
      [](const CornerLibrary& lib) { return lib.text; });
}

std::optional<CornerLibrary> cached_library(
    const ProcessParams& process, const extract::SweepGrid& grid,
    const extract::ExtractionOptions& opts, runtime::ArtifactCache* cache) {
  return cached_value<CornerLibrary>("model library",
                                     library_key(process, grid, opts), cache,
                                     parse_corner_library);
}

}  // namespace mivtx::core
