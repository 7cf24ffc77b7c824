// Cache keys and lossless serialization for the flow's cacheable artifacts.
//
// Four artifact domains, each keyed by a StableHash over *every* input the
// artifact depends on plus kArtifactSchemaVersion:
//   "char" — extract::CharacteristicSet   from (ProcessParams, variant,
//            polarity, SweepGrid): skips the TCAD characterization.
//   "card" — extract::ExtractionReport    additionally keyed by the
//            ExtractionOptions: skips the staged extraction.
//   "lib"  — ModelLibrary (all 8 cards,   from (ProcessParams, SweepGrid,
//            ModelLibrary::to_text)       ExtractionOptions): skips reading
//                                         the 8 char + 8 card artifacts.
//   "ppa"  — CellPpa                      from (ModelSet cards, cell, impl,
//            PpaOptions physics fields, DesignRules): skips the transients.
//
// Payloads are line-based text with format_double() (exact, locale-
// independent) for every floating-point field; parse_*() throws
// mivtx::Error on malformed input — callers treat that as a cache miss.
//
// Bump kArtifactSchemaVersion whenever TCAD physics, the compact model, the
// extraction pipeline, cell netlisting, the layout model or any serialized
// struct changes shape: old cache entries then simply stop matching.
#pragma once

#include <string>

#include "core/flow.h"
#include "core/ppa.h"
#include "runtime/artifact_cache.h"

namespace mivtx::core {

inline constexpr int kArtifactSchemaVersion = 1;

runtime::CacheKey characterization_key(const ProcessParams& process, Variant v,
                                       Polarity pol,
                                       const extract::SweepGrid& grid);
runtime::CacheKey extraction_key(const ProcessParams& process, Variant v,
                                 Polarity pol, const extract::SweepGrid& grid,
                                 const extract::ExtractionOptions& opts);
runtime::CacheKey library_key(const ProcessParams& process,
                              const extract::SweepGrid& grid,
                              const extract::ExtractionOptions& opts);
runtime::CacheKey ppa_key(const cells::ModelSet& models, cells::CellType type,
                          cells::Implementation impl, const PpaOptions& opts,
                          const layout::DesignRules& rules);

std::string serialize_characteristics(const extract::CharacteristicSet& data);
extract::CharacteristicSet parse_characteristics(const std::string& text);

std::string serialize_extraction(const extract::ExtractionReport& report);
extract::ExtractionReport parse_extraction(const std::string& text);

// ModelLibrary::from_text that also requires every (variant, polarity)
// card, so a payload missing a card is rejected instead of served.
ModelLibrary parse_library(const std::string& text);

std::string serialize_cell_ppa(const CellPpa& ppa);
CellPpa parse_cell_ppa(const std::string& text);

}  // namespace mivtx::core
