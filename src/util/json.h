#ifndef FTMS_UTIL_JSON_H_
#define FTMS_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ftms {

// Minimal recursive-descent JSON reader for the project's own artifacts
// (QoS journals, timeseries/profile dumps, bench snapshots). Supports the
// full JSON grammar with a bounded nesting depth; objects preserve key
// order. No external dependencies — the toolchain policy forbids them.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses a complete document; trailing non-whitespace is an error.
  static StatusOr<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsNumber(double fallback = 0) const {
    return is_number() ? number_ : fallback;
  }
  // True for a number AsInt can convert: inside the int64 range, so not
  // NaN or infinite.
  bool fits_int64() const {
    return is_number() && number_ >= -0x1p63 && number_ < 0x1p63;
  }
  // The number truncated toward zero; `fallback` unless fits_int64().
  int64_t AsInt(int64_t fallback = 0) const {
    return fits_int64() ? static_cast<int64_t>(number_) : fallback;
  }
  const std::string& AsString() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Convenience constructors (tests, programmatic building).
  JsonValue() = default;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

// The one output writer every exporter shares (registry, trace, journal,
// ledger, time series, profiler, run report, telemetry).

// Appends `s` as a quoted JSON string: `"` `\` `\n` `\t` get their short
// escapes, every other byte below 0x20 becomes \u00XX, all other bytes
// (UTF-8 included) pass through.
void AppendJsonString(std::string* out, std::string_view s);

// Appends `v` in decimal, as printf's %lld would.
void AppendJsonInt(std::string* out, int64_t v);

// Appends `v` with no decimals when it is integral and |v| < 1e15, and
// with `digits` significant digits ("%.<digits>g") otherwise.
void AppendJsonNumber(std::string* out, double v, int digits);

// Writes `text` to `path`, replacing the file; Unavailable when the file
// cannot be opened or the write comes up short.
Status WriteTextFile(const std::string& path, std::string_view text);

}  // namespace ftms

#endif  // FTMS_UTIL_JSON_H_
