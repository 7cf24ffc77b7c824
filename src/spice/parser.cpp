#include "spice/parser.h"

#include <cctype>
#include <map>

#include "common/error.h"
#include "common/strings.h"

namespace mivtx::spice {

namespace {

// Joins continuation lines, strips comments, keeps 1-based line numbers.
std::vector<std::pair<int, std::string>> logical_lines(
    const std::string& text) {
  std::vector<std::pair<int, std::string>> raw;
  int lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? std::string::npos
                                                  : eol - pos);
    ++lineno;
    raw.emplace_back(lineno, line);
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }

  std::vector<std::pair<int, std::string>> out;
  for (const auto& [no, line0] : raw) {
    std::string line(trim(line0));
    // Strip trailing "$" or ";" comments.
    const std::size_t dollar = line.find('$');
    if (dollar != std::string::npos) line = line.substr(0, dollar);
    const std::size_t semi = line.find(';');
    if (semi != std::string::npos) line = line.substr(0, semi);
    line = std::string(trim(line));
    if (line.empty() || line[0] == '*') continue;
    if (line[0] == '+') {
      MIVTX_EXPECT(!out.empty(),
                   "line " + std::to_string(no) + ": continuation at start");
      out.back().second.append(" ").append(line, 1);
      continue;
    }
    out.emplace_back(no, line);
  }
  return out;
}

[[noreturn]] void parse_fail(int line, const std::string& msg) {
  throw Error("netlist line " + std::to_string(line) + ": " + msg);
}

// Tokenize treating '(', ')', ',' and '=' as separators but keeping '='
// pairs joined is messy; instead normalize those characters to spaces first
// except in name=value pairs which we re-split on demand.
std::vector<std::string> source_tokens(const std::string& s) {
  std::string norm = s;
  for (char& c : norm) {
    if (c == '(' || c == ')' || c == ',') c = ' ';
  }
  return split(norm, " \t");
}

SourceSpec parse_source(const std::vector<std::string>& tok, std::size_t from,
                        int line) {
  if (from >= tok.size()) return SourceSpec::DC(0.0);
  const std::string kind = to_lower(tok[from]);
  if (kind == "dc") {
    if (from + 1 >= tok.size()) parse_fail(line, "DC needs a value");
    return SourceSpec::DC(parse_spice_number(tok[from + 1]));
  }
  if (kind == "pulse") {
    std::vector<double> a;
    for (std::size_t i = from + 1; i < tok.size(); ++i)
      a.push_back(parse_spice_number(tok[i]));
    if (a.size() < 6) parse_fail(line, "PULSE needs v1 v2 td tr tf pw [per]");
    PulseSpec p;
    p.v1 = a[0];
    p.v2 = a[1];
    p.delay = a[2];
    p.rise = a[3];
    p.fall = a[4];
    p.width = a[5];
    p.period = a.size() > 6 ? a[6] : 0.0;
    return SourceSpec::Pulse(p);
  }
  if (kind == "pwl") {
    std::vector<std::pair<double, double>> pts;
    for (std::size_t i = from + 1; i + 1 < tok.size(); i += 2) {
      pts.emplace_back(parse_spice_number(tok[i]),
                       parse_spice_number(tok[i + 1]));
    }
    if (pts.empty()) parse_fail(line, "PWL needs time/value pairs");
    return SourceSpec::Pwl(std::move(pts));
  }
  if (kind == "sin") {
    std::vector<double> a;
    for (std::size_t i = from + 1; i < tok.size(); ++i)
      a.push_back(parse_spice_number(tok[i]));
    if (a.size() < 3) parse_fail(line, "SIN needs vo va freq");
    return SourceSpec::Sin(a[0], a[1], a[2]);
  }
  // Bare number = DC.
  return SourceSpec::DC(parse_spice_number(tok[from]));
}

// One element line dispatched by its lead character.
void parse_element(Circuit& ckt, char lead, const std::string& line,
                   const std::vector<std::string>& tok, int no,
                   const std::map<std::string, bsimsoi::SoiModelCard>& models,
                   ParsedNetlist& out,
                   const std::map<std::string, std::size_t>& model_decl_index) {
  switch (lead) {
    case 'r': {
      if (tok.size() < 4) parse_fail(no, "R needs: name n1 n2 value");
      ckt.add_resistor(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                       parse_spice_number(tok[3]));
      break;
    }
    case 'c': {
      if (tok.size() < 4) parse_fail(no, "C needs: name n1 n2 value");
      ckt.add_capacitor(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                        parse_spice_number(tok[3]));
      break;
    }
    case 'l': {
      if (tok.size() < 4) parse_fail(no, "L needs: name n1 n2 value");
      ckt.add_inductor(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                       parse_spice_number(tok[3]));
      break;
    }
    case 'e': {
      if (tok.size() < 6)
        parse_fail(no, "E needs: name out+ out- ctrl+ ctrl- gain");
      ckt.add_vcvs(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                   ckt.node(tok[3]), ckt.node(tok[4]),
                   parse_spice_number(tok[5]));
      break;
    }
    case 'g': {
      if (tok.size() < 6)
        parse_fail(no, "G needs: name out+ out- ctrl+ ctrl- gm");
      ckt.add_vccs(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                   ckt.node(tok[3]), ckt.node(tok[4]),
                   parse_spice_number(tok[5]));
      break;
    }
    case 'v': {
      if (tok.size() < 4) parse_fail(no, "V needs: name n+ n- spec");
      ckt.add_vsource(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                      parse_source(tok, 3, no));
      break;
    }
    case 'i': {
      if (tok.size() < 4) parse_fail(no, "I needs: name n+ n- spec");
      ckt.add_isource(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                      parse_source(tok, 3, no));
      break;
    }
    case 'm': {
      if (tok.size() < 5) parse_fail(no, "M needs: name d g s model");
      const std::string model_key = to_lower(tok[4]);
      const auto model_it = models.find(model_key);
      if (model_it == models.end())
        parse_fail(no, "unknown model: " + tok[4]);
      out.models[model_decl_index.at(model_key)].referenced = true;
      bsimsoi::SoiModelCard card = model_it->second;
      for (std::size_t i = 5; i < tok.size(); ++i) {
        const auto kv = split(tok[i], "=");
        if (kv.size() != 2) parse_fail(no, "bad instance param " + tok[i]);
        card.set(kv[0], parse_spice_number(kv[1]));
      }
      ckt.add_mosfet(tok[0], ckt.node(tok[1]), ckt.node(tok[2]),
                     ckt.node(tok[3]), std::move(card));
      break;
    }
    default:
      parse_fail(no, std::string("unsupported element '") + line[0] + "'");
  }
}

}  // namespace

ParsedNetlist parse_netlist(const std::string& text) {
  ParsedNetlist out;
  const auto lines = logical_lines(text);
  MIVTX_EXPECT(!lines.empty(), "empty netlist");

  // First pass: collect model cards so device lines can resolve them in any
  // order.  SPICE convention: the first line is the title unless it is a
  // dot-directive (programmatic netlists can start with ".model" etc.).
  std::map<std::string, bsimsoi::SoiModelCard> models;
  std::map<std::string, std::size_t> model_decl_index;  // key -> out.models
  std::size_t first_element_line = 0;
  if (lines[0].second[0] != '.') {
    out.title = lines[0].second;
    first_element_line = 1;
  }
  for (std::size_t li = first_element_line; li < lines.size(); ++li) {
    const auto& [no, line] = lines[li];
    if (starts_with_ci(line, ".model")) {
      bsimsoi::SoiModelCard card;
      try {
        card = bsimsoi::SoiModelCard::from_model_line(line);
      } catch (const Error& e) {
        parse_fail(no, e.what());
      }
      const std::string key = to_lower(card.name);
      const auto dup = model_decl_index.find(key);
      if (dup != model_decl_index.end()) {
        parse_fail(no, "duplicate model '" + card.name +
                           "' (first declared at line " +
                           std::to_string(out.models[dup->second].line) + ")");
      }
      model_decl_index[key] = out.models.size();
      out.models.push_back(ModelDecl{card.name, no, false});
      models[key] = card;
    }
  }

  for (std::size_t li = first_element_line; li < lines.size(); ++li) {
    const auto& [no, line] = lines[li];
    const char lead = static_cast<char>(
        std::tolower(static_cast<unsigned char>(line[0])));
    if (lead == '.') {
      if (starts_with_ci(line, ".model")) continue;  // handled above
      if (starts_with_ci(line, ".end")) break;
      out.directives.push_back(line);
      continue;
    }
    const auto tok = source_tokens(line);
    MIVTX_EXPECT(!tok.empty(), "tokenizer produced nothing");
    const std::string element_key = to_lower(tok[0]);
    const auto prev = out.element_lines.find(element_key);
    if (prev != out.element_lines.end()) {
      parse_fail(no, "duplicate element '" + tok[0] +
                         "' (first defined at line " +
                         std::to_string(prev->second) + ")");
    }
    try {
      parse_element(out.circuit, lead, line, tok, no, models, out,
                    model_decl_index);
    } catch (const Error& e) {
      // Re-wrap construction failures (e.g. a nonpositive R/C/L value) with
      // the netlist line; already line-stamped failures pass through.
      const std::string what = e.what();
      if (what.rfind("netlist line ", 0) == 0) throw;
      parse_fail(no, what);
    }
    out.element_lines[element_key] = no;
  }
  return out;
}

}  // namespace mivtx::spice
