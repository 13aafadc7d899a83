#ifndef PULLMON_UTIL_STRING_UTIL_H_
#define PULLMON_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pullmon {

/// Splits `input` on every occurrence of `delim`. Empty fields are kept
/// ("a,,b" -> {"a", "", "b"}); an empty input yields a single empty field.
std::vector<std::string> Split(std::string_view input, char delim);

/// ASCII character classes. Each equals its <cctype> twin in the "C"
/// locale, the only one the program runs in (it never calls
/// setlocale), but is an inline compare instead of a per-byte table
/// lookup through the locale. The feed parsers, Trim and the date
/// parsers classify bytes with these alone.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
constexpr bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view input);

/// True if `input` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view input, std::string_view prefix);
bool EndsWith(std::string_view input, std::string_view suffix);

/// ASCII lowercasing (locale-independent).
std::string ToLower(std::string_view input);

/// Strict integer / double parsing: the whole (trimmed) string must be
/// consumed, otherwise a ParseError is returned.
Result<int64_t> ParseInt64(std::string_view input);
Result<double> ParseDouble(std::string_view input);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace pullmon

#endif  // PULLMON_UTIL_STRING_UTIL_H_
