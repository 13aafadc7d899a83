#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace pullmon {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  std::size_t begin = 0;
  while (begin < input.size() && IsAsciiSpace(input[begin])) ++begin;
  std::size_t end = input.size();
  while (end > begin && IsAsciiSpace(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view input, std::string_view prefix) {
  return input.size() >= prefix.size() &&
         input.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view input, std::string_view suffix) {
  return input.size() >= suffix.size() &&
         input.substr(input.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (auto& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view input) {
  std::string s(Trim(input));
  if (s.empty()) return Status::ParseError("empty integer field");
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: " + s);
  }
  if (end != s.c_str() + s.size()) {
    return Status::ParseError("trailing characters in integer: " + s);
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(std::string_view input) {
  std::string s(Trim(input));
  if (s.empty()) return Status::ParseError("empty double field");
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(s.c_str(), &end);
  if (errno == ERANGE) {
    return Status::ParseError("double out of range: " + s);
  }
  if (end != s.c_str() + s.size()) {
    return Status::ParseError("trailing characters in double: " + s);
  }
  return value;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

}  // namespace pullmon
