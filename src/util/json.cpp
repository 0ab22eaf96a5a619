#include "src/util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dovado::util {

namespace {

void escape_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else if (std::isfinite(d)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  } else {
    out += "null";  // JSON has no NaN/Inf
  }
}

template <typename Map>
Json encode_object(const Map& map) {
  JsonObject obj;
  for (const auto& [name, value] : map) obj.emplace_hint(obj.end(), name, Json(value));
  return Json(std::move(obj));
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Json& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Json& out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case 't': if (!literal("true")) return false; out = Json(true); return true;
      case 'f': if (!literal("false")) return false; out = Json(false); return true;
      case 'n': if (!literal("null")) return false; out = Json(nullptr); return true;
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported — we
            // never emit them).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;
  }

  bool parse_number(Json& out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    double d = 0.0;
    auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) return false;
    out = Json(d);
    return true;
  }

  bool parse_array(Json& out) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out = Json(std::move(arr));
      return true;
    }
    while (true) {
      Json item;
      skip_ws();
      if (!parse_value(item)) return false;
      arr.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; break; }
      return false;
    }
    out = Json(std::move(arr));
    return true;
  }

  bool parse_object(Json& out) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out = Json(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(value)) return false;
      obj.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; break; }
      return false;
    }
    out = Json(std::move(obj));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    escape_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) { out += "[]"; return; }
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& obj = as_object();
    if (obj.empty()) { out += "{}"; return; }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      escape_string(out, key);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      value.dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool Json::parse(std::string_view text, Json& out) {
  Parser parser(text);
  Json result;
  if (!parser.parse(result)) return false;
  out = std::move(result);
  return true;
}

bool exact_integer(double v, std::int64_t& out) {
  // 2^53: the first magnitude at which distinct integers share a double.
  constexpr double kLimit = 9007199254740992.0;
  if (!(std::fabs(v) < kLimit) || v != std::trunc(v)) return false;  // NaN fails too
  out = static_cast<std::int64_t>(v);
  return true;
}

const Json* find_field(const JsonObject& obj, const std::string& key) {
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

bool read_bool(const JsonObject& obj, const std::string& key, bool& out) {
  const Json* value = find_field(obj, key);
  if (value == nullptr || !value->is_bool()) return false;
  out = value->as_bool();
  return true;
}

bool read_number(const JsonObject& obj, const std::string& key, double& out) {
  const Json* value = find_field(obj, key);
  if (value == nullptr || !value->is_number()) return false;
  out = value->as_number();
  return true;
}

bool read_string(const JsonObject& obj, const std::string& key, std::string& out) {
  const Json* value = find_field(obj, key);
  if (value == nullptr || !value->is_string()) return false;
  out = value->as_string();
  return true;
}

Json encode_point(const JsonPoint& point) { return encode_object(point); }

Json encode_metrics(const JsonMetrics& metrics) { return encode_object(metrics); }

bool decode_point(const Json& json, JsonPoint& out, std::string* error) {
  if (!json.is_object()) {
    if (error != nullptr) *error = "a design point must be an object of parameter -> integer";
    return false;
  }
  out.clear();
  for (const auto& [name, value] : json.as_object()) {
    std::int64_t v = 0;
    if (!value.is_number() || !exact_integer(value.as_number(), v)) {
      if (error != nullptr) {
        *error = "parameter '" + name + "' must be an integer of magnitude below 2^53";
      }
      return false;
    }
    out.emplace_hint(out.end(), name, v);
  }
  return true;
}

bool decode_metrics(const Json& json, JsonMetrics& out) {
  if (!json.is_object()) return false;
  out.clear();
  for (const auto& [name, value] : json.as_object()) {
    if (!value.is_number()) return false;
    out.emplace_hint(out.end(), name, value.as_number());
  }
  return true;
}

}  // namespace dovado::util
