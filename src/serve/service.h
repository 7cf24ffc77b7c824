// Request execution: one warm process state shared by every client.
//
// Service owns the daemon's long-lived state — the ArtifactCache (memory
// LRU + optional bounded disk layer) and two Coalescers — and maps each
// compute request onto the resumable flow units (core/flow_units.h):
//   curves  -> run_curves_unit        ("char" artifact)
//   extract -> run_extraction_unit    ("card" artifact)
//   flow    -> run_library_unit       ("lib" artifact; 8 device pipelines
//                                      on a miss)
//   ppa     -> PpaEngine::measure     ("ppa" artifact; derived-library
//                                      requests read "lib" first)
//   charlib -> Characterizer          ("charlib" artifact; reads "lib"
//                                      first)
// so a request is exactly as expensive as its cold suffix: stages another
// request (or a previous daemon run, via the disk layer) already produced
// deserialize instead of recomputing.  A warm corner costs one "lib" get
// and one card parse per request.
//
// Identical concurrent requests coalesce into one computation; identity is
// the StableHash of the canonical request line with the client correlation
// id blanked, so two clients asking for the same corner coalesce no matter
// what they call it.  Distinct requests at one cold corner (say, charlib
// for four cells) coalesce one level down, in the library flight keyed by
// the "lib" key: the corner's 8 device pipelines run once.  Payloads are the artifact-text serializations from
// core/artifacts.h — byte-identical to what a local run of the same unit
// would produce.
#pragma once

#include <cstddef>
#include <string>

#include "core/flow_units.h"
#include "runtime/artifact_cache.h"
#include "serve/coalesce.h"
#include "serve/protocol.h"

namespace mivtx::serve {

struct ServiceOptions {
  // Fan-out width for the flow's 8 device pipelines (0 = hardware
  // concurrency, 1 = serial).  Scheduling only — results are identical.
  std::size_t jobs = 0;
  // Shared artifact cache configuration (mivtx_serve --cache-dir /
  // --cache-max-bytes land here).
  runtime::ArtifactCache::Options cache;
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});

  // Execute one compute request (curves / extract / flow / ppa / charlib),
  // coalescing with identical in-flight requests.  Fills status, payload,
  // meta, source ("computed" | "coalesced"), elapsed_s and the trace span
  // id; never throws — failures come back as status "error".
  Response execute(const Request& req);

  runtime::ArtifactCache& cache() const { return cache_; }
  const Coalescer& coalescer() const { return coalescer_; }

  // Coalescing identity of a request: hex StableHash digest of its
  // canonical JSON line with the correlation id blanked.
  static std::string request_digest(const Request& req);

 private:
  Coalescer::Result compute(const Request& req);
  // The request corner's 8 cards: a "lib" hit, or one library flight.
  core::CornerLibrary corner_library(const Request& req);

  ServiceOptions opts_;
  // Internally synchronized; callers holding only a const Service (the
  // server's health probe) may still hit it.
  mutable runtime::ArtifactCache cache_;
  Coalescer coalescer_;       // keyed by request digest
  Coalescer library_flight_;  // keyed by "lib" key id
};

}  // namespace mivtx::serve
