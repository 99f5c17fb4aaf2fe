#ifndef FTMS_UTIL_PARSE_H_
#define FTMS_UTIL_PARSE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace ftms {

// All of `text` as a decimal integer in [lo, hi]: digits only, after an
// optional '-' (no '+', no spaces, nothing after the last digit), and a
// value out of range fails rather than wraps. Every whole number read
// from outside — the command line, the environment, a URL, an HTTP head
// or query — goes through here, so "4x" or "1e3" is refused, never read
// as its leading digits.
std::optional<int64_t> ParseDecimal(std::string_view text, int64_t lo,
                                    int64_t hi);

// All of `text` as a finite decimal number, by the same rules plus an
// optional fraction and exponent ("0.5", "2e3"): the command line's sizes
// and prices.
std::optional<double> ParseReal(std::string_view text);

}  // namespace ftms

#endif  // FTMS_UTIL_PARSE_H_
