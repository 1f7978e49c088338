// Minimal JSON support shared by the observability layer: escaping and
// number formatting (used by telemetry's exporters and the run log's
// event writer), an append-only object builder, and a full recursive-
// descent parser (used by dgnn_inspect and the run-log tests to read
// emitted payloads back with a real parser instead of substring checks).
//
// This is deliberately not a general-purpose JSON library: the builder
// only produces flat key ordering (nesting via SetRaw), and the parser
// materializes everything eagerly — both are sized for machine-generated
// telemetry/run-log payloads, not arbitrary user input. No external
// dependencies.

#ifndef DGNN_UTIL_JSON_H_
#define DGNN_UTIL_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dgnn::util {

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// added). Control characters become \u00XX.
std::string JsonEscape(std::string_view s);

// Formats a double so it round-trips exactly (%.17g). NaN/Inf — which
// JSON cannot represent — serialize as 0.
std::string JsonDouble(double v);

// Append-only JSON object builder:
//
//   JsonObject o;
//   o.Set("model", "DGNN").Set("epoch", 3).Set("loss", 0.693);
//   o.Build();  // {"model":"DGNN","epoch":3,"loss":0.693}
//
// Keys are written in insertion order and are not deduplicated; nested
// objects/arrays go through SetRaw with an already-serialized value.
class JsonObject {
 public:
  JsonObject& Set(std::string_view key, std::string_view value);
  JsonObject& Set(std::string_view key, const char* value);
  JsonObject& Set(std::string_view key, const std::string& value);
  JsonObject& Set(std::string_view key, int64_t value);
  JsonObject& Set(std::string_view key, int value);
  JsonObject& Set(std::string_view key, double value);
  JsonObject& Set(std::string_view key, bool value);
  // `json` must already be a valid JSON value (object, array, number...).
  JsonObject& SetRaw(std::string_view key, std::string_view json);

  bool empty() const { return body_.empty(); }
  // "{...}".
  std::string Build() const;

 private:
  void Key(std::string_view key);
  std::string body_;
};

// Parsed JSON value. Exactly one of the containers is meaningful,
// selected by `kind`; numbers are stored as double (adequate for the
// run-log schema, whose integers stay well under 2^53).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  // Insertion order preserved; duplicate keys keep both entries (Find
  // returns the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  // Convenience accessors for object members with defaults.
  double NumberOr(std::string_view key, double def) const;
  std::string StringOr(std::string_view key, std::string_view def) const;
  bool BoolOr(std::string_view key, bool def) const;
  // Narrows member `key` into *out (see NarrowInt) when it is a number;
  // an absent or non-number member leaves *out as it is, the way
  // NumberOr falls back to its default. False only for a number that
  // does not fit Int.
  template <typename Int>
  bool ReadInt(std::string_view key, Int* out) const;
};

// Narrows a parsed JSON number to a signed Int, truncating toward zero
// as static_cast does. False, with *out untouched, for NaN, infinities
// and values whose truncation Int cannot hold: casting those is
// undefined behaviour, and JSON numbers arrive from any client.
template <typename Int>
bool NarrowInt(double x, Int* out) {
  static_assert(std::numeric_limits<Int>::is_integer &&
                std::numeric_limits<Int>::is_signed);
  // -2^(bits-1) is an exact double, and so is its negation, one past max.
  constexpr double kMin = static_cast<double>(std::numeric_limits<Int>::min());
  const double t = std::trunc(x);
  if (!(t >= kMin && t < -kMin)) return false;
  *out = static_cast<Int>(t);
  return true;
}

template <typename Int>
bool JsonValue::ReadInt(std::string_view key, Int* out) const {
  const JsonValue* v = Find(key);
  return v == nullptr || !v->is_number() || NarrowInt(v->number, out);
}

// Parses exactly one JSON value spanning the whole input (surrounding
// whitespace allowed). Rejects trailing content, unterminated literals,
// and nesting deeper than an internal limit. \uXXXX escapes decode to
// UTF-8.
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace dgnn::util

#endif  // DGNN_UTIL_JSON_H_
