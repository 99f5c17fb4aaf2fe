#include "util/parse.h"

#include <charconv>
#include <cmath>

namespace ftms {

std::optional<int64_t> ParseDecimal(std::string_view text, int64_t lo,
                                    int64_t hi) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, value);
  if (r.ec != std::errc() || r.ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseReal(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, value);
  if (r.ec != std::errc() || r.ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace ftms
