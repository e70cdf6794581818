#include "common/schema.h"

#include <charconv>
#include <cmath>
#include <cstring>

namespace nsc::common::schema {

bool Decoder::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  return false;
}

bool Decoder::fail(std::string_view name, std::string_view what) {
  return fail("field " + std::string(name) + ": " + std::string(what));
}

Json encodeObject(std::span<const Field> fields, const void* object,
                  bool deterministic) {
  JsonObject out;
  for (const Field& field : fields) {
    if (deterministic && (field.flags & kNondeterministic) != 0) continue;
    if ((field.flags & kOmitDefault) != 0 && field.is_default(object)) continue;
    out.emplace(field.name, field.encode(object, deterministic));
  }
  return Json(std::move(out));
}

bool decodeObject(Decoder& decoder, std::span<const Field> fields,
                  const Json& json, void* object) {
  const JsonObject& in = json.asObject();
  for (const Field& field : fields) {
    const auto it = in.find(field.name);
    if (it == in.end()) {
      if ((field.flags & kRequired) == 0) continue;
      return decoder.fail("missing field " + std::string(field.name));
    }
    if (!field.decode(decoder, field.name, it->second, object)) return false;
  }
  return true;
}

std::string markdown(const Table& table) {
  std::string out = "| field | type | meaning |\n|-------|------|---------|\n";
  for (const Field& field : table.fields) {
    out += "| `";
    out += field.name;
    out += "` | ";
    out += field.type();
    out += " | ";
    if ((field.flags & kRequired) != 0) out += "**required** — ";
    out += field.doc;
    if ((field.flags & kNondeterministic) != 0) out += " (nondeterministic)";
    out += " |\n";
  }
  return out;
}

void appendHex16(std::string& out, std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(value >> static_cast<unsigned>(shift)) & 0xfULL]);
  }
}

bool parseHex16(std::string_view text, std::uint64_t& out) {
  if (text.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(10 + (c - 'a'));
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  out = value;
  return true;
}

std::string wordsToHex(std::span<const double> words) {
  std::string out;
  out.reserve(words.size() * 16);
  for (const double word : words) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(word));
    std::memcpy(&bits, &word, sizeof(bits));
    appendHex16(out, bits);
  }
  return out;
}

bool wordsFromHex(std::string_view hex, std::vector<double>& out) {
  if (hex.size() % 16 != 0) return false;
  out.clear();
  out.reserve(hex.size() / 16);
  for (std::size_t i = 0; i < hex.size(); i += 16) {
    std::uint64_t bits = 0;
    if (!parseHex16(hex.substr(i, 16), bits)) return false;
    double word = 0.0;
    std::memcpy(&word, &bits, sizeof(word));
    out.push_back(word);
  }
  return true;
}

bool decodeInteger(Decoder& decoder, std::string_view name, const Json& json,
                   double lo, double hi, double& out) {
  if (!json.isNumber()) return decoder.fail(name, "expected number");
  const double value = json.asDouble();
  // Written so NaN fails every comparison and lands here too.
  if (!(value >= lo && value < hi) || std::trunc(value) != value) {
    return decoder.fail(name, "out of range");
  }
  out = value;
  return true;
}

bool U64String::decode(Decoder& d, std::string_view name, const Json& json,
                       std::uint64_t& out) {
  if (!json.isString()) return d.fail(name, "expected string");
  const std::string& text = json.asString();
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  if (error != std::errc() || stop != end) {
    return d.fail(name, "bad u64 string");
  }
  return true;
}

}  // namespace nsc::common::schema
