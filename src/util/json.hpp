// Minimal JSON value + serializer, and the one codec for what an evaluation
// record carries: design points, metrics maps and typed scalar fields. The
// store payload, the journal, the session file, `dovado db export` and the
// serve protocol all spell records with it, so they agree on what is valid.
//
// The integer rule: a number decodes as an integer only if it is integral,
// |v| < 2^53 and it fits the field's type. At 2^53 two integers share a
// double (the text 9007199254740993 reads as 2^53), so such a value, or a
// fraction, is rejected rather than truncated, rounded or cast with
// undefined behaviour. Parsing covers the subset we emit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/flat_map.hpp"

namespace dovado::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// A JSON value. Numbers are stored as double (exact for integers of
/// magnitude < 2^53, the range the integer rule admits).
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  [[nodiscard]] JsonArray& as_array() { return std::get<JsonArray>(value_); }
  [[nodiscard]] JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Serialize. `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a JSON document. Returns false and leaves `out` untouched on
  /// malformed input.
  static bool parse(std::string_view text, Json& out);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

/// The integer rule on a bare number: true (with `out` set) iff `v` is
/// integral and |v| < 2^53.
[[nodiscard]] bool exact_integer(double v, std::int64_t& out);

/// The member `key` of `obj`, or null when absent.
[[nodiscard]] const Json* find_field(const JsonObject& obj, const std::string& key);

/// Typed field readers: true (with `out` set) when `key` is present with
/// that type; false, with `out` untouched, when it is absent or of another
/// type.
[[nodiscard]] bool read_bool(const JsonObject& obj, const std::string& key, bool& out);
[[nodiscard]] bool read_number(const JsonObject& obj, const std::string& key, double& out);
[[nodiscard]] bool read_string(const JsonObject& obj, const std::string& key,
                               std::string& out);

/// Outcome of reading an integer field. kAbsent covers a missing key and a
/// value that is not a number (callers treat both as "not given"); kBad is a
/// number that breaks the integer rule or does not fit the field's type.
enum class IntField { kAbsent, kOk, kBad };

/// Checked integer field reader; `out` is set only on kOk.
template <typename Int>
[[nodiscard]] IntField read_integer(const JsonObject& obj, const std::string& key, Int& out) {
  const Json* value = find_field(obj, key);
  if (value == nullptr || !value->is_number()) return IntField::kAbsent;
  std::int64_t v = 0;
  if (!exact_integer(value->as_number(), v) || !std::in_range<Int>(v)) return IntField::kBad;
  out = static_cast<Int>(v);
  return IntField::kOk;
}

/// A design point: parameter name -> integer value.
using JsonPoint = FlatMap<std::int64_t>;
/// A metrics map: metric name -> value.
using JsonMetrics = FlatMap<double>;

[[nodiscard]] Json encode_point(const JsonPoint& point);
[[nodiscard]] Json encode_metrics(const JsonMetrics& metrics);

/// Decode a design point: an object whose every value obeys the integer
/// rule. False on anything else, with `error` (when non-null) saying which
/// entry; `out` is then unspecified. An empty object decodes to an empty
/// point — callers that need a parameter check for that themselves.
[[nodiscard]] bool decode_point(const Json& json, JsonPoint& out,
                                std::string* error = nullptr);

/// Decode a metrics map: an object whose every value is a number. False on
/// anything else; `out` is then unspecified.
[[nodiscard]] bool decode_metrics(const Json& json, JsonMetrics& out);

}  // namespace dovado::util
