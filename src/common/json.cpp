#include "common/json.h"

#include <cctype>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"

namespace mivtx {
namespace {

// Deepest array/object nesting accepted.  The parser recurses once per
// level, so an unbounded depth would let one hostile line ("[[[[...")
// overflow the stack; every document this project reads nests a handful
// of levels.
constexpr std::size_t kMaxDepth = 256;

// Recursive-descent parser over a raw pointer range; positions are byte
// offsets for error messages (the documents are short, no line tracking).
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    MIVTX_EXPECT(pos_ == s_.size(),
                 format("json: trailing garbage at offset %zu", pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw Error(format("json: %s at offset %zu", what, pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Json v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Json::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json::null();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      obj.set(key, parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Baselines are ASCII; decode BMP escapes to UTF-8 minimally.
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!digits) fail("bad number");
    return Json::number(parse_double(s_.substr(start, pos_ - start)));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  MIVTX_EXPECT(type_ == Type::kBool, "json: not a bool");
  return bool_;
}

double Json::as_number() const {
  MIVTX_EXPECT(type_ == Type::kNumber, "json: not a number");
  return number_;
}

const std::string& Json::as_string() const {
  MIVTX_EXPECT(type_ == Type::kString, "json: not a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  MIVTX_EXPECT(type_ == Type::kArray, "json: not an array");
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  MIVTX_EXPECT(type_ == Type::kObject, "json: not an object");
  return members_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

void Json::set(const std::string& key, Json value) {
  MIVTX_EXPECT(type_ == Type::kObject, "json: set on non-object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

void Json::push_back(Json value) {
  MIVTX_EXPECT(type_ == Type::kArray, "json: push_back on non-array");
  items_.push_back(std::move(value));
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::string pad(pretty ? static_cast<std::size_t>(indent) * (depth + 1) : 0, ' ');
  const std::string close_pad(pretty ? static_cast<std::size_t>(indent) * depth : 0, ' ');
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      // Integers render without exponent/point for readability; everything
      // else goes through the lossless shortest round-trip form.
      if (std::isfinite(number_) && number_ == std::floor(number_) &&
          std::fabs(number_) < 1e15) {
        out += format("%.0f", number_);
      } else {
        out += format_double(number_);
      }
      break;
    case Type::kString:
      escape_into(out, string_);
      break;
    case Type::kArray:
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += ']';
      break;
    case Type::kObject:
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        escape_into(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += '}';
      break;
  }
}

}  // namespace mivtx
