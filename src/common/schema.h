// Field-descriptor schemas: one constexpr table per struct drives its JSON
// encoder, its first-error-wins decoder, the deterministic-field mask and
// the markdown field tables of docs/PROTOCOL.md, as arch::MicrowordSpec's
// one field table drives microword packing and disassembly.  The wire
// codec (net/wire.cpp) and the session checkpoint (nsc/workbench.cpp) are
// tables of this kind.
//
// A Field names its JSON key, reaches its value through a member pointer
// (`field`) or an accessor type with static get/set (`accessor`), and
// names a codec: Int<V>, Enum<LastCode>, U64String (a u64 as a decimal
// string, for values past 2^53), Double, Bool, String, Words (doubles as
// 16-hex-digit IEEE-754 bit patterns, bit-exact), Object<Table>,
// List<Codec> or Nullable<Codec> (an optional or shared_ptr, null when
// empty).  Plain member types get a codec by default.  Tables list fields
// in decode order; JSON objects keep their keys sorted, so the order never
// changes encoded bytes.
//
// Decoding keeps the struct default for an absent field and stops at the
// first error: "missing field X", "field X: expected <json type>", or
// "field X: out of range" for a number an Int or Enum cannot hold exactly
// (NaN, infinities, fractions, values outside the C++ type or past the
// enum's last code).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"

namespace nsc::common::schema {

// First error wins: later failures keep the first message.
class Decoder {
 public:
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  bool fail(std::string message);
  bool fail(std::string_view name, std::string_view what);  // "field N: W"

 private:
  std::string error_;
};

enum Flag : unsigned {
  kRequired = 1u << 0,          // decoding fails when the key is absent
  kNondeterministic = 1u << 1,  // left out of the deterministic encoding
  kOmitDefault = 1u << 2,       // left out while a scalar is V{} or an
                                // optional is empty
};

struct Field {
  std::string_view name;
  std::string_view doc;  // the "meaning" column of the markdown table
  unsigned flags;
  std::string (*type)();  // the "type" column
  Json (*encode)(const void* object, bool deterministic);
  bool (*decode)(Decoder& decoder, std::string_view name, const Json& value,
                 void* object);
  bool (*is_default)(const void* object);  // for kOmitDefault
};

// A struct's table: its name (the PROTOCOL.md marker) and its fields.
template <class S, std::size_t N>
struct TableFor {
  using Struct = S;
  std::string_view name;
  std::array<Field, N> fields;
};

template <class S, std::size_t N>
constexpr TableFor<S, N> table(std::string_view name,
                               const Field (&fields)[N]) {
  return {name, std::to_array(fields)};
}

// Any table, untyped.
struct Table {
  std::string_view name;
  std::span<const Field> fields;
  template <class S, std::size_t N>
  constexpr Table(const TableFor<S, N>& table)  // NOLINT: a view by design
      : name(table.name), fields(table.fields) {}
};

Json encodeObject(std::span<const Field> fields, const void* object,
                  bool deterministic);
// `json` must be an object.
bool decodeObject(Decoder& decoder, std::span<const Field> fields,
                  const Json& json, void* object);
// `| field | type | meaning |` rows, one per field, newline-terminated.
std::string markdown(const Table& table);

// `deterministic` leaves out every kNondeterministic field, at any depth.
template <class S, std::size_t N>
Json encode(const TableFor<S, N>& table, const S& value,
            bool deterministic = false) {
  return encodeObject(table.fields, &value, deterministic);
}

template <class S, std::size_t N>
bool decode(Decoder& decoder, const TableFor<S, N>& table, const Json& json,
            S& out) {
  if (!json.isObject()) {
    return decoder.fail(std::string(table.name) + ": expected object");
  }
  return decodeObject(decoder, table.fields, json, &out);
}

// 16-hex-digit bit patterns, the one hex routine: Words and checkpoint
// checksums.  parseHex16 takes exactly 16 lowercase digits.
void appendHex16(std::string& out, std::uint64_t value);
bool parseHex16(std::string_view text, std::uint64_t& out);
std::string wordsToHex(std::span<const double> words);
bool wordsFromHex(std::string_view hex, std::vector<double>& out);

// ---------------------------------------------------------------------------
// Codecs: type(), encode(value, deterministic), decode(d, name, json, out).
// ---------------------------------------------------------------------------

// A JSON number holding an integer in [lo, hi); anything else fails.
bool decodeInteger(Decoder& decoder, std::string_view name, const Json& json,
                   double lo, double hi, double& out);

template <class V>
struct Int {
  static std::string type() { return std::is_signed_v<V> ? "int" : "u64"; }
  static Json encode(V value, bool) { return Json(static_cast<double>(value)); }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     V& out) {
    // max() + 1 is exact where max() is, and rounds to the same power of
    // two where it is not: either way only values past max() reach it.
    double value = 0.0;
    if (!decodeInteger(d, name, json,
                       static_cast<double>(std::numeric_limits<V>::min()),
                       static_cast<double>(std::numeric_limits<V>::max()) + 1.0,
                       value)) {
      return false;
    }
    out = static_cast<V>(value);
    return true;
  }
};

template <auto Last>
struct Enum {
  using E = decltype(Last);
  static constexpr auto kLast = static_cast<std::int64_t>(Last);
  static std::string type() { return "enum 0–" + std::to_string(kLast); }
  static Json encode(E value, bool) {
    return Json(static_cast<double>(static_cast<std::int64_t>(value)));
  }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     E& out) {
    double value = 0.0;
    if (!decodeInteger(d, name, json, 0.0, static_cast<double>(kLast) + 1.0,
                       value)) {
      return false;
    }
    out = static_cast<E>(static_cast<std::int64_t>(value));
    return true;
  }
};

struct U64String {
  static std::string type() { return "u64 as decimal string"; }
  static Json encode(std::uint64_t value, bool) {
    return Json(std::to_string(value));
  }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     std::uint64_t& out);
};

struct Double {
  static std::string type() { return "number"; }
  static Json encode(double value, bool) { return Json(value); }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     double& out) {
    if (!json.isNumber()) return d.fail(name, "expected number");
    out = json.asDouble();
    return true;
  }
};

struct Bool {
  static std::string type() { return "bool"; }
  static Json encode(bool value, bool) { return Json(value); }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     bool& out) {
    if (!json.isBool()) return d.fail(name, "expected bool");
    out = json.asBool();
    return true;
  }
};

struct String {
  static std::string type() { return "string"; }
  static Json encode(const std::string& value, bool) { return Json(value); }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     std::string& out) {
    if (!json.isString()) return d.fail(name, "expected string");
    out = json.asString();
    return true;
  }
};

struct Words {
  static std::string type() { return "16-hex words"; }
  static Json encode(const std::vector<double>& words, bool) {
    return Json(wordsToHex(words));
  }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     std::vector<double>& out) {
    if (!json.isString()) return d.fail(name, "expected string");
    if (wordsFromHex(json.asString(), out)) return true;
    return d.fail(name, "bad 16-hex word encoding");
  }
};

template <const auto& T>
struct Object {
  using S = typename std::remove_cvref_t<decltype(T)>::Struct;
  static std::string type() { return "`" + std::string(T.name) + "`"; }
  static Json encode(const S& value, bool deterministic) {
    return encodeObject(T.fields, &value, deterministic);
  }
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     S& out) {
    if (!json.isObject()) return d.fail(name, "expected object");
    return decodeObject(d, T.fields, json, &out);
  }
};

template <class C>
struct List {
  static std::string type() { return "array of " + C::type(); }
  template <class V>
  static Json encode(const V& values, bool deterministic) {
    JsonArray out;
    out.reserve(values.size());
    for (const auto& value : values) {
      out.push_back(C::encode(value, deterministic));
    }
    return Json(std::move(out));
  }
  template <class V>
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     V& out) {
    if (!json.isArray()) return d.fail(name, "expected array");
    out.clear();
    out.reserve(json.asArray().size());
    for (const Json& item : json.asArray()) {
      typename V::value_type value{};
      if (!C::decode(d, name, item, value)) return false;
      out.push_back(std::move(value));
    }
    return true;
  }
};

template <class C>
struct Nullable {
  static std::string type() { return C::type() + " or null"; }
  template <class P>
  static Json encode(const P& value, bool deterministic) {
    return value ? C::encode(*value, deterministic) : Json(nullptr);
  }
  template <class P>
  static bool decode(Decoder& d, std::string_view name, const Json& json,
                     P& out) {
    if (json.isNull()) {
      out = P{};
      return true;
    }
    std::remove_cvref_t<decltype(*out)> value{};
    if (!C::decode(d, name, json, value)) return false;
    if constexpr (requires { typename P::element_type; }) {
      out = std::make_shared<decltype(value)>(std::move(value));
    } else {
      out = std::move(value);
    }
    return true;
  }
};

// The codec of a field whose descriptor names none.
template <class V>
constexpr auto defaultCodec() {
  if constexpr (std::is_same_v<V, bool>) return Bool{};
  else if constexpr (std::is_integral_v<V>) return Int<V>{};
  else if constexpr (std::is_same_v<V, double>) return Double{};
  else if constexpr (std::is_same_v<V, std::string>) return String{};
  else if constexpr (std::is_same_v<V, std::vector<double>>) return Words{};
  else return List<decltype(defaultCodec<typename V::value_type>())>{};
}

// ---------------------------------------------------------------------------
// Field factories.
// ---------------------------------------------------------------------------

// A member pointer as an accessor that decodes in place.  Accessor types
// declare Struct, Value, get(const Struct&) and set(Struct&, Value).
template <auto M>
struct Member;
template <class S, class V, V S::*M>
struct Member<M> {
  using Struct = S;
  using Value = V;
  static const V& get(const S& object) { return object.*M; }
  static V& ref(S& object) { return object.*M; }
};

template <class A, class C>
Json encodeField(const void* object, bool deterministic) {
  return C::encode(A::get(*static_cast<const typename A::Struct*>(object)),
                   deterministic);
}

template <class A, class C>
bool decodeField(Decoder& d, std::string_view name, const Json& value,
                 void* object) {
  auto& target = *static_cast<typename A::Struct*>(object);
  if constexpr (requires { A::ref(target); }) {
    return C::decode(d, name, value, A::ref(target));
  } else {
    typename A::Value decoded = A::get(target);
    if (!C::decode(d, name, value, decoded)) return false;
    A::set(target, std::move(decoded));
    return true;
  }
}

template <class A>
bool isDefault(const void* object) {
  using V = typename A::Value;
  const auto& value = A::get(*static_cast<const typename A::Struct*>(object));
  if constexpr (std::is_scalar_v<V>) {
    return value == V{};
  } else if constexpr (requires { value.has_value(); }) {
    return !value.has_value();
  } else {
    return false;
  }
}

template <class A, class C = decltype(defaultCodec<typename A::Value>())>
constexpr Field accessor(std::string_view name, std::string_view doc,
                         unsigned flags = 0) {
  return Field{name, doc, flags, &C::type, &encodeField<A, C>,
               &decodeField<A, C>, &isDefault<A>};
}

template <auto M, class C = decltype(defaultCodec<typename Member<M>::Value>())>
constexpr Field field(std::string_view name, std::string_view doc,
                      unsigned flags = 0) {
  return accessor<Member<M>, C>(name, doc, flags);
}

}  // namespace nsc::common::schema
