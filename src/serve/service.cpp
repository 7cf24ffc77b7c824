#include "serve/service.h"

#include <optional>
#include <utility>

#include "charlib/characterize.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/artifacts.h"
#include "core/flow_units.h"
#include "core/ppa.h"
#include "core/reference_cards.h"
#include "runtime/metrics.h"
#include "trace/trace.h"

namespace mivtx::serve {

namespace {

const char* span_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCurves: return "serve.curves";
    case RequestKind::kExtract: return "serve.extract";
    case RequestKind::kFlow: return "serve.flow";
    case RequestKind::kPpa: return "serve.ppa";
    case RequestKind::kCharlib: return "serve.charlib";
    default: return "serve.request";
  }
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(opts), cache_(opts.cache) {}

std::string Service::request_digest(const Request& req) {
  Request canonical = req;
  canonical.id.clear();
  StableHash h;
  h.mix(canonical.to_json_line());
  return format("%016llx",
                static_cast<unsigned long long>(h.digest()));
}

Response Service::execute(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.kind = kind_name(req.kind);
  if (!is_compute_kind(req.kind)) {
    resp.status = ResponseStatus::kError;
    resp.error = format("serve: '%s' is not a compute kind",
                        kind_name(req.kind));
    return resp;
  }

  trace::Span span(span_name(req.kind), "serve");
  resp.span_id = span.id();

  const double t0 = runtime::wall_seconds();
  const auto [result, led] =
      coalescer_.run(request_digest(req), [&] { return compute(req); });
  resp.elapsed_s = runtime::wall_seconds() - t0;

  runtime::Metrics& metrics = runtime::Metrics::global();
  metrics.add(led ? "serve.computed" : "serve.coalesced");
  metrics.record_latency("serve.latency", resp.elapsed_s);
  metrics.record_latency(std::string("serve.latency.") + resp.kind,
                         resp.elapsed_s);

  if (result->ok) {
    resp.status = ResponseStatus::kOk;
    resp.source = led ? "computed" : "coalesced";
    resp.payload = result->payload;
    resp.meta_json = result->meta_json;
  } else {
    resp.status = ResponseStatus::kError;
    resp.error = result->error;
    metrics.add("serve.errors");
  }
  return resp;
}

core::CornerLibrary Service::corner_library(const Request& req) {
  if (std::optional<core::CornerLibrary> hit = core::cached_library(
          req.process, req.grid, req.extraction, &cache_))
    return std::move(*hit);
  // Cold corner: one flight per library key, so distinct requests that
  // need the same cards run the 8 device pipelines once.  The leader's
  // run_library_unit checks the cache again, which covers a request that
  // missed just before another flight stored the library and closed.
  core::FlowOptions fo;
  fo.jobs = opts_.jobs;
  fo.cache = &cache_;
  std::optional<core::CornerLibrary> computed;
  const std::string flight =
      core::library_key(req.process, req.grid, req.extraction).id();
  const auto result = library_flight_.run(flight, [&] {
    computed =
        core::run_library_unit(req.process, req.grid, req.extraction, fo);
    Coalescer::Result r;
    r.ok = true;
    return r;
  }).first;
  if (!result->ok) throw Error(result->error);
  if (computed) return std::move(*computed);
  // Follower: the leader stored the library before it closed the flight,
  // so this is a cache hit (the unit recomputes only if it was evicted).
  return core::run_library_unit(req.process, req.grid, req.extraction, fo);
}

Coalescer::Result Service::compute(const Request& req) {
  Coalescer::Result r;
  Json meta = Json::object();

  switch (req.kind) {
    case RequestKind::kCurves: {
      const extract::CharacteristicSet data = core::run_curves_unit(
          req.process, req.variant, req.polarity, req.grid, &cache_);
      r.payload = core::serialize_characteristics(data);
      meta.set("device", Json::string(data.device_name));
      break;
    }
    case RequestKind::kExtract: {
      const core::DeviceExtraction dev = core::run_extraction_unit(
          req.process, req.variant, req.polarity, req.grid, req.extraction,
          &cache_);
      r.payload = core::serialize_extraction(dev.report);
      meta.set("device",
               Json::string(core::device_key(dev.variant, dev.polarity)));
      break;
    }
    case RequestKind::kFlow: {
      core::CornerLibrary library = corner_library(req);
      meta.set("cards",
               Json::number(static_cast<double>(library.cards.size())));
      r.payload = std::move(library.text);
      break;
    }
    case RequestKind::kPpa: {
      // The derived-library path reads this request's corner library
      // first (see corner_library).
      core::ModelLibrary derived;
      if (!req.reference_library) derived = corner_library(req).cards;
      const core::ModelLibrary& library = req.reference_library
                                              ? core::reference_model_library()
                                              : derived;
      core::PpaOptions popts;
      popts.vdd = req.process.vdd;
      core::PpaEngine engine(library, popts, {},
                             runtime::ExecPolicy{nullptr, &cache_});
      const core::CellPpa ppa = engine.measure(req.cell, req.impl);
      r.payload = core::serialize_cell_ppa(ppa);
      meta.set("cell", Json::string(cells::cell_name(ppa.type)));
      meta.set("impl", Json::string(cells::impl_name(ppa.impl)));
      meta.set("ok", Json::boolean(ppa.ok));
      meta.set("delay_s", Json::number(ppa.delay));
      meta.set("power_w", Json::number(ppa.power));
      meta.set("area_m2", Json::number(ppa.area));
      meta.set("pdp_j", Json::number(ppa.pdp));
      break;
    }
    case RequestKind::kCharlib: {
      // Library entry characterization reads this request's corner
      // library, then sweeps the cell's NLDM grid; both stages read and
      // fill the daemon's artifact cache, so a warm repeat is pure
      // deserialization.
      const core::ModelLibrary library = corner_library(req).cards;
      charlib::CharOptions copts;
      copts.grid = req.char_grid == "mini" ? charlib::mini_char_grid()
                                           : charlib::default_char_grid();
      copts.ppa.vdd = req.process.vdd;
      const charlib::Characterizer characterizer(
          library, copts, {}, runtime::ExecPolicy{nullptr, &cache_});
      const charlib::CellChar entry =
          characterizer.characterize_cell(req.cell, req.impl);
      charlib::CharLibrary one;
      one.slew_axis = characterizer.grid().slews;
      one.load_axis = characterizer.grid().loads;
      one.insert(req.impl, entry);
      r.payload = one.to_text();
      meta.set("cell", Json::string(cells::cell_name(entry.type)));
      meta.set("impl", Json::string(charlib::impl_tag(req.impl)));
      meta.set("arcs", Json::number(static_cast<double>(entry.arcs.size())));
      meta.set("area_m2", Json::number(entry.area));
      break;
    }
    default:
      throw Error("serve: not a compute kind");
  }

  r.ok = true;
  r.meta_json = meta.dump();
  return r;
}

}  // namespace mivtx::serve
