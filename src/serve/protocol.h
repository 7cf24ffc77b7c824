// mivtx_serve wire protocol: one JSON object per line, both directions.
//
// A request names a characterization unit — device curves, device
// extraction, a full flow, one cell's PPA, or one cell's NLDM library
// entry ("charlib") — plus the corner it runs under (process / sweep-grid / extraction overrides; defaults match
// run_full_flow's defaults, so an empty request body means "the paper's
// nominal corner").  Unknown fields are a protocol error: silently
// ignoring a typo like "gird_n" would silently serve the wrong corner.
//
// Responses echo the request id, carry a typed status — "queue_full",
// "draining" and "request_too_large" are statuses, not generic errors, so
// clients can implement backoff — and stream back the artifact payload
// (the same lossless text core/artifacts.h caches, so a served result is
// byte-comparable to a local run_full_flow), per-request wall time, queue
// wait and the trace span id for cross-referencing a server-side
// flamegraph.
//
// Admin kinds: "health" (liveness + queue depth), "metrics" (registry dump
// including latency histograms), "shutdown" (graceful drain).  For
// curl-style probing the server also answers HTTP "GET /healthz" and
// "GET /metrics" on the same port (see server.cpp); the JSON kinds are the
// first-class interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "cells/netgen.h"
#include "core/flow.h"
#include "core/ppa.h"

namespace mivtx::serve {

enum class RequestKind {
  kCurves,    // stage 1: TCAD characteristic curves of one device
  kExtract,   // stage 2: extracted model card of one device
  kFlow,      // all 8 devices -> model library
  kPpa,       // one (cell, impl) PPA measurement
  kCharlib,   // one (cell, impl) NLDM characterization entry (.mlib text)
  kHealth,
  kMetrics,
  kShutdown,
};

const char* kind_name(RequestKind kind);
// Throws mivtx::Error for an unknown kind token.
RequestKind kind_from_name(const std::string& name);

bool is_compute_kind(RequestKind kind);

struct Request {
  std::string id;  // client correlation id, echoed in the response
  RequestKind kind = RequestKind::kHealth;

  // Device selection (curves / extract).
  tcad::Variant variant = tcad::Variant::kTraditional;
  tcad::Polarity polarity = tcad::Polarity::kNmos;

  // Cell selection (ppa / charlib).
  cells::CellType cell = cells::CellType::kInv1;
  cells::Implementation impl = cells::Implementation::k2D;
  // Characterization grid preset (charlib): "default" (3x3) or "mini"
  // (2x2, the CI smoke grid).  See charlib/characterize.h.
  std::string char_grid = "default";
  // "flow" derives the model library through the (cached) full flow under
  // this request's corner; "reference" uses the checked-in nominal cards
  // and skips TCAD entirely.
  bool reference_library = false;

  // Corner: overrides applied on top of the defaults.
  core::ProcessParams process;
  extract::SweepGrid grid;
  extract::ExtractionOptions extraction;

  // One line of JSON (no trailing newline).
  std::string to_json_line() const;
  // Throws mivtx::Error on malformed JSON, unknown kinds/fields/tokens.
  static Request from_json_line(const std::string& line);
};

// Longest request line the daemon reads; a longer one is answered with
// "request_too_large" and its connection closed.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{4} << 20;

enum class ResponseStatus {
  kOk,
  kError,
  kQueueFull,
  kDraining,
  kRequestTooLarge
};

const char* status_name(ResponseStatus status);
ResponseStatus status_from_name(const std::string& name);

struct Response {
  std::string id;
  ResponseStatus status = ResponseStatus::kOk;
  std::string kind;     // echo of the request kind
  std::string error;    // human-readable cause when status != kOk
  std::string source;   // compute kinds: "computed" | "coalesced"
  std::string payload;  // artifact text (core/artifacts.h serialization)
  double elapsed_s = 0.0;  // service time on the worker
  double queue_s = 0.0;    // admission-queue wait before service
  std::uint64_t span_id = 0;  // trace span id (0 when tracing is off)
  std::string meta_json;      // kind-specific JSON object ("{}" when empty)

  bool ok() const { return status == ResponseStatus::kOk; }

  std::string to_json_line() const;
  static Response from_json_line(const std::string& line);
};

// Helpers shared by client flags and request parsing; all throw
// mivtx::Error on unknown tokens and accept a few aliases ("2-ch", "2ch").
tcad::Variant variant_from_token(const std::string& token);
tcad::Polarity polarity_from_token(const std::string& token);
cells::CellType cell_from_token(const std::string& token);
cells::Implementation impl_from_token(const std::string& token);

}  // namespace mivtx::serve
