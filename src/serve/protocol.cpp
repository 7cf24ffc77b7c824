#include "serve/protocol.h"

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace mivtx::serve {

namespace {

// Canonical corner defaults the wire format diffs against: a request line
// only carries the fields that deviate, so the common "nominal corner"
// request stays one short line.
const core::ProcessParams kDefaultProcess{};
const extract::SweepGrid kDefaultGrid{};
const extract::ExtractionOptions kDefaultExtraction{};

}  // namespace

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCurves: return "curves";
    case RequestKind::kExtract: return "extract";
    case RequestKind::kFlow: return "flow";
    case RequestKind::kPpa: return "ppa";
    case RequestKind::kCharlib: return "charlib";
    case RequestKind::kHealth: return "health";
    case RequestKind::kMetrics: return "metrics";
    case RequestKind::kShutdown: return "shutdown";
  }
  return "?";
}

RequestKind kind_from_name(const std::string& name) {
  for (RequestKind k :
       {RequestKind::kCurves, RequestKind::kExtract, RequestKind::kFlow,
        RequestKind::kPpa, RequestKind::kCharlib, RequestKind::kHealth,
        RequestKind::kMetrics, RequestKind::kShutdown}) {
    if (equals_ci(name, kind_name(k))) return k;
  }
  throw Error("serve: unknown request kind '" + name + "'");
}

bool is_compute_kind(RequestKind kind) {
  return kind == RequestKind::kCurves || kind == RequestKind::kExtract ||
         kind == RequestKind::kFlow || kind == RequestKind::kPpa ||
         kind == RequestKind::kCharlib;
}

const char* status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kError: return "error";
    case ResponseStatus::kQueueFull: return "queue_full";
    case ResponseStatus::kDraining: return "draining";
    case ResponseStatus::kRequestTooLarge: return "request_too_large";
  }
  return "?";
}

ResponseStatus status_from_name(const std::string& name) {
  for (ResponseStatus s :
       {ResponseStatus::kOk, ResponseStatus::kError,
        ResponseStatus::kQueueFull, ResponseStatus::kDraining,
        ResponseStatus::kRequestTooLarge}) {
    if (equals_ci(name, status_name(s))) return s;
  }
  throw Error("serve: unknown response status '" + name + "'");
}

tcad::Variant variant_from_token(const std::string& token) {
  if (equals_ci(token, "trad") || equals_ci(token, "traditional"))
    return tcad::Variant::kTraditional;
  if (equals_ci(token, "1ch") || equals_ci(token, "1-ch") ||
      equals_ci(token, "1-channel"))
    return tcad::Variant::kMiv1Channel;
  if (equals_ci(token, "2ch") || equals_ci(token, "2-ch") ||
      equals_ci(token, "2-channel"))
    return tcad::Variant::kMiv2Channel;
  if (equals_ci(token, "4ch") || equals_ci(token, "4-ch") ||
      equals_ci(token, "4-channel"))
    return tcad::Variant::kMiv4Channel;
  throw Error("serve: unknown variant '" + token + "'");
}

tcad::Polarity polarity_from_token(const std::string& token) {
  if (equals_ci(token, "nmos") || equals_ci(token, "n"))
    return tcad::Polarity::kNmos;
  if (equals_ci(token, "pmos") || equals_ci(token, "p"))
    return tcad::Polarity::kPmos;
  throw Error("serve: unknown polarity '" + token + "'");
}

cells::CellType cell_from_token(const std::string& token) {
  for (cells::CellType t : cells::all_cells())
    if (equals_ci(token, cells::cell_name(t))) return t;
  throw Error("serve: unknown cell '" + token + "'");
}

cells::Implementation impl_from_token(const std::string& token) {
  if (equals_ci(token, "2d")) return cells::Implementation::k2D;
  if (equals_ci(token, "1ch") || equals_ci(token, "1-ch"))
    return cells::Implementation::kMiv1Channel;
  if (equals_ci(token, "2ch") || equals_ci(token, "2-ch"))
    return cells::Implementation::kMiv2Channel;
  if (equals_ci(token, "4ch") || equals_ci(token, "4-ch"))
    return cells::Implementation::kMiv4Channel;
  throw Error("serve: unknown implementation '" + token + "'");
}

namespace {

const char* variant_token(tcad::Variant v) {
  switch (v) {
    case tcad::Variant::kTraditional: return "trad";
    case tcad::Variant::kMiv1Channel: return "1ch";
    case tcad::Variant::kMiv2Channel: return "2ch";
    case tcad::Variant::kMiv4Channel: return "4ch";
  }
  return "?";
}

const char* impl_token(cells::Implementation impl) {
  switch (impl) {
    case cells::Implementation::k2D: return "2d";
    case cells::Implementation::kMiv1Channel: return "1ch";
    case cells::Implementation::kMiv2Channel: return "2ch";
    case cells::Implementation::kMiv4Channel: return "4ch";
  }
  return "?";
}

}  // namespace

std::string Request::to_json_line() const {
  Json obj = Json::object();
  obj.set("id", Json::string(id));
  obj.set("kind", Json::string(kind_name(kind)));
  if (kind == RequestKind::kCurves || kind == RequestKind::kExtract) {
    obj.set("variant", Json::string(variant_token(variant)));
    obj.set("polarity", Json::string(polarity == tcad::Polarity::kNmos
                                         ? "nmos"
                                         : "pmos"));
  }
  if (kind == RequestKind::kPpa || kind == RequestKind::kCharlib) {
    obj.set("cell", Json::string(cells::cell_name(cell)));
    obj.set("impl", Json::string(impl_token(impl)));
    if (kind == RequestKind::kPpa && reference_library)
      obj.set("library", Json::string("reference"));
    if (kind == RequestKind::kCharlib && char_grid != "default")
      obj.set("char_grid", Json::string(char_grid));
  }
  if (is_compute_kind(kind)) {
    if (process.vdd != kDefaultProcess.vdd)
      obj.set("vdd", Json::number(process.vdd));
    if (process.tnom_c != kDefaultProcess.tnom_c)
      obj.set("tnom_c", Json::number(process.tnom_c));
    if (process.l_gate != kDefaultProcess.l_gate)
      obj.set("l_gate", Json::number(process.l_gate));
    if (process.t_miv != kDefaultProcess.t_miv)
      obj.set("t_miv", Json::number(process.t_miv));
    if (grid.n_vg != kDefaultGrid.n_vg)
      obj.set("grid_n", Json::number(static_cast<double>(grid.n_vg)));
    if (extraction.nm.max_evaluations != kDefaultExtraction.nm.max_evaluations)
      obj.set("nm_max_evals",
              Json::number(
                  static_cast<double>(extraction.nm.max_evaluations)));
    if (extraction.run_lm_polish != kDefaultExtraction.run_lm_polish)
      obj.set("lm_polish", Json::boolean(extraction.run_lm_polish));
    if (extraction.run_ieff_retarget != kDefaultExtraction.run_ieff_retarget)
      obj.set("ieff_retarget", Json::boolean(extraction.run_ieff_retarget));
  }
  return obj.dump();
}

Request Request::from_json_line(const std::string& line) {
  const Json doc = Json::parse(line);
  MIVTX_EXPECT(doc.is_object(), "serve: request must be a JSON object");
  Request req;
  bool have_kind = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "id") {
      req.id = value.type() == Json::Type::kNumber
                   ? format("%g", value.as_number())
                   : value.as_string();
    } else if (key == "kind") {
      req.kind = kind_from_name(value.as_string());
      have_kind = true;
    } else if (key == "variant") {
      req.variant = variant_from_token(value.as_string());
    } else if (key == "polarity") {
      req.polarity = polarity_from_token(value.as_string());
    } else if (key == "cell") {
      req.cell = cell_from_token(value.as_string());
    } else if (key == "impl") {
      req.impl = impl_from_token(value.as_string());
    } else if (key == "library") {
      const std::string& lib = value.as_string();
      if (equals_ci(lib, "reference")) {
        req.reference_library = true;
      } else {
        MIVTX_EXPECT(equals_ci(lib, "flow"),
                     "serve: library must be 'flow' or 'reference', got '" +
                         lib + "'");
        req.reference_library = false;
      }
    } else if (key == "char_grid") {
      const std::string& g = value.as_string();
      MIVTX_EXPECT(g == "mini" || g == "default",
                   "serve: char_grid must be 'mini' or 'default', got '" + g +
                       "'");
      req.char_grid = g;
    } else if (key == "vdd") {
      const double v = value.as_number();
      MIVTX_EXPECT(v > 0.0 && v <= 5.0, "serve: vdd out of range");
      req.process.vdd = v;
      req.grid.vdd = v;
    } else if (key == "tnom_c") {
      req.process.tnom_c = value.as_number();
    } else if (key == "l_gate") {
      const double v = value.as_number();
      MIVTX_EXPECT(v > 0.0 && v < 1e-6, "serve: l_gate out of range");
      req.process.l_gate = v;
    } else if (key == "t_miv") {
      const double v = value.as_number();
      MIVTX_EXPECT(v > 0.0 && v < 1e-6, "serve: t_miv out of range");
      req.process.t_miv = v;
    } else if (key == "grid_n") {
      const double v = value.as_number();
      MIVTX_EXPECT(v >= 5 && v <= 201 && v == static_cast<int>(v),
                   "serve: grid_n must be an integer in [5, 201]");
      req.grid.n_vg = static_cast<std::size_t>(v);
      req.grid.n_vd = static_cast<std::size_t>(v);
      req.grid.n_cv = static_cast<std::size_t>(v);
    } else if (key == "nm_max_evals") {
      const double v = value.as_number();
      MIVTX_EXPECT(v >= 1 && v == static_cast<int>(v),
                   "serve: nm_max_evals must be a positive integer");
      req.extraction.nm.max_evaluations = static_cast<std::size_t>(v);
    } else if (key == "lm_polish") {
      req.extraction.run_lm_polish = value.as_bool();
    } else if (key == "ieff_retarget") {
      req.extraction.run_ieff_retarget = value.as_bool();
    } else {
      throw Error("serve: unknown request field '" + key + "'");
    }
  }
  MIVTX_EXPECT(have_kind, "serve: request is missing 'kind'");
  return req;
}

std::string Response::to_json_line() const {
  Json obj = Json::object();
  obj.set("id", Json::string(id));
  obj.set("status", Json::string(status_name(status)));
  if (!kind.empty()) obj.set("kind", Json::string(kind));
  if (!error.empty()) obj.set("error", Json::string(error));
  if (!source.empty()) obj.set("source", Json::string(source));
  if (elapsed_s != 0.0) obj.set("elapsed_s", Json::number(elapsed_s));
  if (queue_s != 0.0) obj.set("queue_s", Json::number(queue_s));
  if (span_id != 0)
    obj.set("span", Json::number(static_cast<double>(span_id)));
  if (!meta_json.empty()) obj.set("meta", Json::parse(meta_json));
  if (!payload.empty()) obj.set("payload", Json::string(payload));
  return obj.dump();
}

Response Response::from_json_line(const std::string& line) {
  const Json doc = Json::parse(line);
  MIVTX_EXPECT(doc.is_object(), "serve: response must be a JSON object");
  Response resp;
  if (const Json* v = doc.find("id")) resp.id = v->as_string();
  if (const Json* v = doc.find("status"))
    resp.status = status_from_name(v->as_string());
  if (const Json* v = doc.find("kind")) resp.kind = v->as_string();
  if (const Json* v = doc.find("error")) resp.error = v->as_string();
  if (const Json* v = doc.find("source")) resp.source = v->as_string();
  if (const Json* v = doc.find("elapsed_s")) resp.elapsed_s = v->as_number();
  if (const Json* v = doc.find("queue_s")) resp.queue_s = v->as_number();
  if (const Json* v = doc.find("span"))
    resp.span_id = static_cast<std::uint64_t>(v->as_number());
  if (const Json* v = doc.find("meta")) resp.meta_json = v->dump();
  if (const Json* v = doc.find("payload")) resp.payload = v->as_string();
  return resp;
}

}  // namespace mivtx::serve
