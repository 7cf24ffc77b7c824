// Resumable flow units: the TCAD -> extract pipeline split into
// individually cacheable stages.
//
// run_full_flow used to be one opaque computation; mivtx::serve (and any
// client that wants partial results) needs the stages addressable on their
// own, each keyed by its own StableHash digest (core/artifacts.h):
//
//   curves unit      "char" key   TCAD characterization of one device
//   extraction unit  "card" key   staged model extraction (consumes curves)
//   library unit     "lib"  key   the corner's 8 extracted cards as one
//                                 ModelLibrary (consumes all 8 extractions)
//   cell-PPA unit    "ppa"  key   transient measurement of one cell
//                                 (lives in core/ppa.h; listed here because
//                                 serve exposes it as a request unit too)
//
// Every unit is fetch-or-compute against an optional ArtifactCache: a warm
// cache resumes the flow mid-pipeline (cached curves + cold extraction
// runs only the fit; everything warm is pure deserialization).  Units pin
// their key for the duration of the call so the disk garbage collector
// (ArtifactCache::Options::max_disk_bytes) never evicts an artifact an
// in-flight computation is about to re-read or just produced.
#pragma once

#include <optional>
#include <string>

#include "core/flow.h"

namespace mivtx::core {

// Stage 1: characteristic curves for one (variant, polarity) device.
extract::CharacteristicSet run_curves_unit(const ProcessParams& process,
                                           Variant v, Polarity pol,
                                           const extract::SweepGrid& grid,
                                           runtime::ArtifactCache* cache);

// Stage 2: staged extraction for one device.  Resumes from the stage-1
// artifact when cached; otherwise computes it (and stores it) first.
DeviceExtraction run_extraction_unit(const ProcessParams& process, Variant v,
                                     Polarity pol,
                                     const extract::SweepGrid& grid,
                                     const extract::ExtractionOptions& opts,
                                     runtime::ArtifactCache* cache);

// A corner's 8 cards together with their "lib" artifact text, which is
// also the serve "flow" payload: callers that need the text never pay for
// a second ModelLibrary::to_text.
struct CornerLibrary {
  ModelLibrary cards;
  std::string text;  // cards.to_text()
};

// Stage 3: the corner's model library (all 8 cards).  A hit is one cache
// get and one card parse; a miss runs (or resumes) run_full_flow under
// `exec` and stores the library text.  Consumers that need only the cards
// (PPA, charlib) read this instead of re-parsing 8 curve and 8 card
// artifacts per call.
CornerLibrary run_library_unit(const ProcessParams& process,
                               const extract::SweepGrid& grid,
                               const extract::ExtractionOptions& opts,
                               const FlowOptions& exec);

// The hit half of run_library_unit: the cached library (counted as
// flow.lib.cache_hit), or nullopt when the "lib" artifact is missing or
// unreadable.  Lets a caller put its own single flight around the miss.
std::optional<CornerLibrary> cached_library(
    const ProcessParams& process, const extract::SweepGrid& grid,
    const extract::ExtractionOptions& opts, runtime::ArtifactCache* cache);

}  // namespace mivtx::core
