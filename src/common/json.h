// Minimal JSON value, parser, and pretty-printer.
//
// Used for program/diagram file I/O (the editor saves both graphical and
// semantic data, paper Section 4), session checkpoints, and the wire
// protocol (net/wire.h).  Supports the full JSON grammar except \u escapes
// beyond Latin-1; numbers are stored as double with an integer fast path
// preserved on output when exact.
//
// Non-finite dialect: standard JSON has no representation for NaN or the
// infinities, and printf-style "nan"/"inf" text would not parse back — a
// silent round-trip break.  dump() emits explicit NaN / Infinity /
// -Infinity tokens and parse() accepts them, so every double value class
// round-trips.  NaN payload bits are canonicalized to the quiet NaN; where
// bit-exactness matters (checkpoint plane words, wire plane images), values
// travel as 16-hex-digit IEEE-754 bit-pattern strings instead of numbers.
// Note NaN != NaN, so Json::operator== is false for documents holding NaN;
// compare dumps when that matters.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace nsc::common {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps keys sorted: serialized output is deterministic, which
// golden tests rely on.  std::less<> lets lookups take a string_view.
using JsonObject = std::map<std::string, Json, std::less<>>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<double>(v)) {}
  Json(unsigned v) : value_(static_cast<double>(v)) {}
  Json(std::int64_t v) : value_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : value_(static_cast<double>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool isBool() const { return std::holds_alternative<bool>(value_); }
  bool isNumber() const { return std::holds_alternative<double>(value_); }
  bool isString() const { return std::holds_alternative<std::string>(value_); }
  bool isArray() const { return std::holds_alternative<JsonArray>(value_); }
  bool isObject() const { return std::holds_alternative<JsonObject>(value_); }

  bool asBool() const { return std::get<bool>(value_); }
  double asDouble() const { return std::get<double>(value_); }
  std::int64_t asInt() const { return static_cast<std::int64_t>(std::get<double>(value_)); }
  const std::string& asString() const { return std::get<std::string>(value_); }
  const JsonArray& asArray() const { return std::get<JsonArray>(value_); }
  JsonArray& asArray() { return std::get<JsonArray>(value_); }
  const JsonObject& asObject() const { return std::get<JsonObject>(value_); }
  JsonObject& asObject() { return std::get<JsonObject>(value_); }

  // Object field access; `at` throws std::out_of_range if missing.
  const Json& at(const std::string& key) const { return asObject().at(key); }
  bool has(const std::string& key) const {
    return isObject() && asObject().count(key) > 0;
  }
  Json& operator[](const std::string& key) {
    return std::get<JsonObject>(value_)[key];
  }

  // Typed getters with defaults for optional fields.
  std::int64_t getInt(const std::string& key, std::int64_t fallback = 0) const;
  double getDouble(const std::string& key, double fallback = 0.0) const;
  std::string getString(const std::string& key, std::string fallback = {}) const;
  bool getBool(const std::string& key, bool fallback = false) const;

  bool operator==(const Json& other) const = default;

  // Compact single-line form.
  std::string dump() const;
  // Indented multi-line form.
  std::string dumpPretty(int indent = 2) const;

  static Result<Json> parse(std::string_view text);

 private:
  void dumpTo(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

}  // namespace nsc::common
