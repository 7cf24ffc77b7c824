#include "core/artifacts.h"

#include <sstream>

#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"

namespace mivtx::core {

namespace {

void mix_process(StableHash& h, const ProcessParams& p) {
  h.mix("process");
  h.mix(p.t_si).mix(p.h_src).mix(p.t_ox).mix(p.n_src).mix(p.t_spacer);
  h.mix(p.t_box).mix(p.t_miv).mix(p.l_src).mix(p.w_src).mix(p.l_gate);
  h.mix(p.vdd).mix(p.tnom_c);
}

void mix_grid(StableHash& h, const extract::SweepGrid& g) {
  h.mix("grid");
  h.mix(g.vdd).mix(g.n_vg).mix(g.n_vd).mix(g.n_cv);
  h.mix(g.idvd_vgs.size());
  for (double v : g.idvd_vgs) h.mix(v);
}

void mix_extraction_options(StableHash& h,
                            const extract::ExtractionOptions& o) {
  h.mix("extraction-options");
  h.mix(o.nm.max_evaluations).mix(o.nm.initial_step).mix(o.nm.x_tol);
  h.mix(o.nm.f_tol).mix(o.nm.restarts);
  h.mix(o.lm.max_iterations).mix(o.lm.initial_lambda).mix(o.lm.g_tol);
  h.mix(o.lm.step_rel);
  h.mix(o.run_lm_polish).mix(o.run_ieff_retarget);
}

void mix_rules(StableHash& h, const layout::DesignRules& r) {
  h.mix("design-rules");
  h.mix(r.gate_length).mix(r.spacer).mix(r.sd_length).mix(r.device_width);
  h.mix(r.m1_width).mix(r.m1_space).mix(r.via_size).mix(r.miv_size);
  h.mix(r.miv_liner).mix(r.rail_track).mix(r.cell_margin);
  h.mix(r.miv_keepout_overlap);
}

void mix_ppa_options(StableHash& h, const PpaOptions& o) {
  h.mix("ppa-options");
  h.mix(o.vdd).mix(o.t_edge).mix(o.t_delay).mix(o.t_width).mix(o.h_max);
  h.mix(o.parasitics.r_miv).mix(o.parasitics.r_wire);
  h.mix(o.parasitics.r_rail).mix(o.parasitics.c_load);
  h.mix(o.parasitics.r_extra_sd_4ch).mix(o.parasitics.c_miv_external);
  h.mix(o.lint);
  // Solver-core knobs that can move the measured numbers: the backend
  // choice (dense vs sparse pivoting differ in rounding) and the device
  // bypass tolerance (stale linearizations within vtol).
  h.mix(static_cast<int>(o.newton.backend));
  h.mix(static_cast<int>(o.newton.sparse_min_unknowns));
  h.mix(o.newton.bypass_vtol);
}

void write_curve(std::ostringstream& os, const char* tag, const Curve& c) {
  os << tag << ' ' << c.size();
  for (const CurvePoint& p : c)
    os << ' ' << format_double(p.x) << ' ' << format_double(p.y);
  os << '\n';
}

// Cursor over serialized lines; every read validates its leading tag.
class LineReader {
 public:
  explicit LineReader(const std::string& text) {
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      if (end > start) lines_.push_back(text.substr(start, end - start));
      start = end + 1;
    }
  }

  std::vector<std::string> next(const char* tag) {
    MIVTX_EXPECT(pos_ < lines_.size(),
                 std::string("artifact truncated before '") + tag + "'");
    const std::string& line = lines_[pos_++];
    auto fields = split(line, " \t");
    MIVTX_EXPECT(!fields.empty() && fields[0] == tag,
                 std::string("artifact expected '") + tag + "', got: " + line);
    return fields;
  }

  // Raw remainder of a line after the tag (for .model lines with spaces).
  std::string next_raw(const char* tag) {
    MIVTX_EXPECT(pos_ < lines_.size(),
                 std::string("artifact truncated before '") + tag + "'");
    const std::string& line = lines_[pos_++];
    MIVTX_EXPECT(line.rfind(std::string(tag) + " ", 0) == 0,
                 std::string("artifact expected '") + tag + "', got: " + line);
    return line.substr(std::string(tag).size() + 1);
  }

 private:
  std::vector<std::string> lines_;
  std::size_t pos_ = 0;
};

Curve read_curve(LineReader& in, const char* tag) {
  const auto f = in.next(tag);
  MIVTX_EXPECT(f.size() >= 2, "curve line missing count");
  const std::size_t n = static_cast<std::size_t>(parse_double(f[1]));
  MIVTX_EXPECT(f.size() == 2 + 2 * n, "curve line arity mismatch");
  Curve c;
  c.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    c.push_back(CurvePoint{parse_double(f[2 + 2 * i]),
                           parse_double(f[3 + 2 * i])});
  return c;
}

}  // namespace

runtime::CacheKey characterization_key(const ProcessParams& process, Variant v,
                                       Polarity pol,
                                       const extract::SweepGrid& grid) {
  StableHash h;
  h.mix("mivtx-characterization").mix(kArtifactSchemaVersion);
  mix_process(h, process);
  h.mix(static_cast<int>(v)).mix(static_cast<int>(pol));
  mix_grid(h, grid);
  return runtime::CacheKey{"char", h.digest()};
}

runtime::CacheKey extraction_key(const ProcessParams& process, Variant v,
                                 Polarity pol, const extract::SweepGrid& grid,
                                 const extract::ExtractionOptions& opts) {
  StableHash h;
  h.mix("mivtx-extraction").mix(kArtifactSchemaVersion);
  mix_process(h, process);
  h.mix(static_cast<int>(v)).mix(static_cast<int>(pol));
  mix_grid(h, grid);
  mix_extraction_options(h, opts);
  return runtime::CacheKey{"card", h.digest()};
}

runtime::CacheKey library_key(const ProcessParams& process,
                              const extract::SweepGrid& grid,
                              const extract::ExtractionOptions& opts) {
  StableHash h;
  h.mix("mivtx-library").mix(kArtifactSchemaVersion);
  mix_process(h, process);
  mix_grid(h, grid);
  mix_extraction_options(h, opts);
  return runtime::CacheKey{"lib", h.digest()};
}

runtime::CacheKey ppa_key(const cells::ModelSet& models, cells::CellType type,
                          cells::Implementation impl, const PpaOptions& opts,
                          const layout::DesignRules& rules) {
  StableHash h;
  h.mix("mivtx-ppa").mix(kArtifactSchemaVersion);
  // The cards carry every extracted parameter at full precision, so their
  // text form is exactly the electrical identity of the measurement.
  h.mix(models.nmos.to_model_line());
  h.mix(models.pmos.to_model_line());
  h.mix(static_cast<int>(type)).mix(static_cast<int>(impl));
  mix_ppa_options(h, opts);
  mix_rules(h, rules);
  return runtime::CacheKey{"ppa", h.digest()};
}

std::string serialize_characteristics(const extract::CharacteristicSet& data) {
  std::ostringstream os;
  os << "charset 1 " << data.device_name << '\n';
  os << "vds " << format_double(data.vds_low) << ' '
     << format_double(data.vds_high) << '\n';
  write_curve(os, "idvg_low", data.idvg_low);
  write_curve(os, "idvg_high", data.idvg_high);
  os << "idvd " << data.idvd.size() << '\n';
  for (const extract::OutputCurve& oc : data.idvd) {
    os << "vgs " << format_double(oc.vgs) << '\n';
    write_curve(os, "curve", oc.curve);
  }
  write_curve(os, "cv", data.cv);
  return os.str();
}

extract::CharacteristicSet parse_characteristics(const std::string& text) {
  LineReader in(text);
  extract::CharacteristicSet data;
  const auto head = in.next("charset");
  MIVTX_EXPECT(head.size() == 3 && head[1] == "1",
               "unsupported charset version");
  data.device_name = head[2];
  const auto vds = in.next("vds");
  MIVTX_EXPECT(vds.size() == 3, "vds line arity");
  data.vds_low = parse_double(vds[1]);
  data.vds_high = parse_double(vds[2]);
  data.idvg_low = read_curve(in, "idvg_low");
  data.idvg_high = read_curve(in, "idvg_high");
  const auto idvd = in.next("idvd");
  MIVTX_EXPECT(idvd.size() == 2, "idvd line arity");
  const std::size_t n = static_cast<std::size_t>(parse_double(idvd[1]));
  for (std::size_t i = 0; i < n; ++i) {
    const auto vgs = in.next("vgs");
    MIVTX_EXPECT(vgs.size() == 2, "vgs line arity");
    extract::OutputCurve oc;
    oc.vgs = parse_double(vgs[1]);
    oc.curve = read_curve(in, "curve");
    data.idvd.push_back(std::move(oc));
  }
  data.cv = read_curve(in, "cv");
  data.validate();
  return data;
}

std::string serialize_extraction(const extract::ExtractionReport& report) {
  std::ostringstream os;
  os << "extraction 1\n";
  os << "card " << report.card.to_model_line() << '\n';
  os << "errors " << format_double(report.errors.idvg) << ' '
     << format_double(report.errors.idvd) << ' '
     << format_double(report.errors.cv) << '\n';
  os << "stages " << report.stages.size() << '\n';
  for (const extract::StageReport& s : report.stages) {
    os << "stage " << format_double(s.error_before) << ' '
       << format_double(s.error_after) << ' ' << s.evaluations << ' '
       << s.parameters.size() << ' ' << s.name << '\n';
    for (const std::string& p : s.parameters) os << "param " << p << '\n';
  }
  return os.str();
}

extract::ExtractionReport parse_extraction(const std::string& text) {
  LineReader in(text);
  extract::ExtractionReport report;
  const auto head = in.next("extraction");
  MIVTX_EXPECT(head.size() == 2 && head[1] == "1",
               "unsupported extraction version");
  report.card = bsimsoi::SoiModelCard::from_model_line(in.next_raw("card"));
  const auto err = in.next("errors");
  MIVTX_EXPECT(err.size() == 4, "errors line arity");
  report.errors.idvg = parse_double(err[1]);
  report.errors.idvd = parse_double(err[2]);
  report.errors.cv = parse_double(err[3]);
  const auto stages = in.next("stages");
  MIVTX_EXPECT(stages.size() == 2, "stages line arity");
  const std::size_t n = static_cast<std::size_t>(parse_double(stages[1]));
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = in.next("stage");
    MIVTX_EXPECT(f.size() >= 6, "stage line arity");
    extract::StageReport s;
    s.error_before = parse_double(f[1]);
    s.error_after = parse_double(f[2]);
    s.evaluations = static_cast<std::size_t>(parse_double(f[3]));
    const std::size_t np = static_cast<std::size_t>(parse_double(f[4]));
    s.name = f[5];
    for (std::size_t k = 0; k < np; ++k) {
      const auto p = in.next("param");
      MIVTX_EXPECT(p.size() == 2, "param line arity");
      s.parameters.push_back(p[1]);
    }
    report.stages.push_back(std::move(s));
  }
  return report;
}

ModelLibrary parse_library(const std::string& text) {
  ModelLibrary lib = ModelLibrary::from_text(text);
  for (Polarity pol : {Polarity::kNmos, Polarity::kPmos})
    for (Variant v : all_variants())
      MIVTX_EXPECT(lib.has(v, pol),
                   "model library artifact missing " + device_key(v, pol));
  MIVTX_EXPECT(lib.size() == 2 * all_variants().size(),
               "model library artifact has extra cards");
  return lib;
}

std::string serialize_cell_ppa(const CellPpa& ppa) {
  std::ostringstream os;
  os << "cellppa 1 " << static_cast<int>(ppa.type) << ' '
     << static_cast<int>(ppa.impl) << ' ' << (ppa.ok ? 1 : 0) << '\n';
  os << "metrics " << format_double(ppa.delay) << ' '
     << format_double(ppa.power) << ' ' << format_double(ppa.area) << ' '
     << format_double(ppa.pdp) << '\n';
  os << "mivs " << ppa.mivs.total << ' ' << ppa.mivs.gate_external << ' '
     << ppa.mivs.internal << '\n';
  os << "arcs " << ppa.arcs.size() << '\n';
  for (const ArcMeasurement& a : ppa.arcs) {
    os << "arc " << (a.input_rising ? 1 : 0) << ' '
       << format_double(a.delay) << ' ' << a.pin << '\n';
  }
  return os.str();
}

CellPpa parse_cell_ppa(const std::string& text) {
  LineReader in(text);
  CellPpa ppa;
  const auto head = in.next("cellppa");
  MIVTX_EXPECT(head.size() == 5 && head[1] == "1",
               "unsupported cellppa version");
  ppa.type = static_cast<cells::CellType>(
      static_cast<int>(parse_double(head[2])));
  ppa.impl = static_cast<cells::Implementation>(
      static_cast<int>(parse_double(head[3])));
  ppa.ok = parse_double(head[4]) != 0.0;
  const auto m = in.next("metrics");
  MIVTX_EXPECT(m.size() == 5, "metrics line arity");
  ppa.delay = parse_double(m[1]);
  ppa.power = parse_double(m[2]);
  ppa.area = parse_double(m[3]);
  ppa.pdp = parse_double(m[4]);
  const auto mivs = in.next("mivs");
  MIVTX_EXPECT(mivs.size() == 4, "mivs line arity");
  ppa.mivs.total = static_cast<int>(parse_double(mivs[1]));
  ppa.mivs.gate_external = static_cast<int>(parse_double(mivs[2]));
  ppa.mivs.internal = static_cast<int>(parse_double(mivs[3]));
  const auto arcs = in.next("arcs");
  MIVTX_EXPECT(arcs.size() == 2, "arcs line arity");
  const std::size_t n = static_cast<std::size_t>(parse_double(arcs[1]));
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = in.next("arc");
    MIVTX_EXPECT(a.size() == 4, "arc line arity");
    ArcMeasurement arc;
    arc.input_rising = parse_double(a[1]) != 0.0;
    arc.delay = parse_double(a[2]);
    arc.pin = a[3];
    ppa.arcs.push_back(std::move(arc));
  }
  return ppa;
}

}  // namespace mivtx::core
