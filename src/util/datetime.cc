#include "util/datetime.h"

#include <array>

#include "util/string_util.h"

namespace pullmon {

namespace {

constexpr std::array<const char*, 7> kWeekdayNames = {
    "Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"};
constexpr std::array<const char*, 12> kMonthNames = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

Result<int> MonthFromName(std::string_view name) {
  for (int m = 0; m < 12; ++m) {
    if (name == kMonthNames[static_cast<std::size_t>(m)]) return m + 1;
  }
  return Status::ParseError("unknown month name: " + std::string(name));
}

bool IsDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!IsAsciiDigit(c)) return false;
  }
  return true;
}

Result<int> ParseFixedInt(std::string_view s) {
  if (!IsDigits(s)) {
    return Status::ParseError("expected digits, got: " + std::string(s));
  }
  int value = 0;
  for (char c : s) value = value * 10 + (c - '0');
  return value;
}

}  // namespace

int64_t DaysFromCivil(int year, int month, int day) {
  year -= month <= 2;
  const int64_t era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy = static_cast<unsigned>(
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t days, int* year, int* month, int* day) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *year = static_cast<int>(y + (*month <= 2));
}

int WeekdayFromDays(int64_t days) {
  return static_cast<int>(days >= -4 ? (days + 4) % 7
                                     : (days + 5) % 7 + 6);
}

int64_t ToUnixSeconds(const DateTime& dt) {
  return DaysFromCivil(dt.year, dt.month, dt.day) * 86400 +
         dt.hour * 3600 + dt.minute * 60 + dt.second;
}

DateTime FromUnixSeconds(int64_t seconds) {
  int64_t days = seconds / 86400;
  int64_t rem = seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  DateTime dt;
  CivilFromDays(days, &dt.year, &dt.month, &dt.day);
  dt.hour = static_cast<int>(rem / 3600);
  dt.minute = static_cast<int>((rem % 3600) / 60);
  dt.second = static_cast<int>(rem % 60);
  return dt;
}

std::string FormatRfc822(int64_t unix_seconds) {
  DateTime dt = FromUnixSeconds(unix_seconds);
  int64_t days = DaysFromCivil(dt.year, dt.month, dt.day);
  return StringFormat(
      "%s, %02d %s %04d %02d:%02d:%02d GMT",
      kWeekdayNames[static_cast<std::size_t>(WeekdayFromDays(days))],
      dt.day, kMonthNames[static_cast<std::size_t>(dt.month - 1)], dt.year,
      dt.hour, dt.minute, dt.second);
}

Result<int64_t> ParseRfc822(std::string_view text) {
  // Grammar: [weekday ","] day month year time zone
  // Scanned entirely over views: this runs per feed item on the probe
  // hot path and must not allocate on success.
  std::string_view s = Trim(text);
  // Strip an optional leading weekday.
  std::size_t comma = s.find(',');
  if (comma != std::string_view::npos) s = Trim(s.substr(comma + 1));

  // Whitespace-separated fields, empties dropped; the original grammar
  // ignores anything beyond the fifth field.
  std::array<std::string_view, 5> parts;
  std::size_t num_parts = 0;
  for (std::size_t pos = 0; pos < s.size() && num_parts < parts.size();) {
    if (s[pos] == ' ') {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < s.size() && s[end] != ' ') ++end;
    parts[num_parts++] = s.substr(pos, end - pos);
    pos = end;
  }
  if (num_parts < 5) {
    return Status::ParseError("RFC822 date too short: " + std::string(text));
  }
  DateTime dt;
  PULLMON_ASSIGN_OR_RETURN(dt.day, ParseFixedInt(parts[0]));
  PULLMON_ASSIGN_OR_RETURN(dt.month, MonthFromName(parts[1]));
  PULLMON_ASSIGN_OR_RETURN(dt.year, ParseFixedInt(parts[2]));
  if (dt.year < 100) dt.year += dt.year < 70 ? 2000 : 1900;

  // ':'-separated time, empty segments kept (and rejected as
  // non-digits below, like the original Split-based scan).
  std::array<std::string_view, 3> hms;
  std::size_t num_hms = 1;
  std::string_view time = parts[3];
  std::size_t seg_start = 0;
  for (std::size_t pos = 0; pos <= time.size(); ++pos) {
    if (pos == time.size() || time[pos] == ':') {
      if (num_hms > hms.size()) break;
      hms[num_hms - 1] = time.substr(seg_start, pos - seg_start);
      seg_start = pos + 1;
      if (pos < time.size()) ++num_hms;
    }
  }
  if (num_hms < 2 || num_hms > 3) {
    return Status::ParseError("bad RFC822 time: " + std::string(time));
  }
  PULLMON_ASSIGN_OR_RETURN(dt.hour, ParseFixedInt(hms[0]));
  PULLMON_ASSIGN_OR_RETURN(dt.minute, ParseFixedInt(hms[1]));
  if (num_hms == 3) {
    PULLMON_ASSIGN_OR_RETURN(dt.second, ParseFixedInt(hms[2]));
  }

  std::string_view zone = parts[4];
  int64_t offset_seconds = 0;
  if (zone == "GMT" || zone == "UT" || zone == "UTC" || zone == "Z") {
    offset_seconds = 0;
  } else if ((zone[0] == '+' || zone[0] == '-') && zone.size() == 5) {
    PULLMON_ASSIGN_OR_RETURN(int hh, ParseFixedInt(zone.substr(1, 2)));
    PULLMON_ASSIGN_OR_RETURN(int mm, ParseFixedInt(zone.substr(3, 2)));
    offset_seconds = (hh * 3600 + mm * 60) * (zone[0] == '+' ? 1 : -1);
  } else if (zone == "EST") {
    offset_seconds = -5 * 3600;
  } else if (zone == "EDT") {
    offset_seconds = -4 * 3600;
  } else if (zone == "PST") {
    offset_seconds = -8 * 3600;
  } else if (zone == "PDT") {
    offset_seconds = -7 * 3600;
  } else {
    return Status::ParseError("unknown RFC822 zone: " + std::string(zone));
  }
  return ToUnixSeconds(dt) - offset_seconds;
}

std::string FormatRfc3339(int64_t unix_seconds) {
  DateTime dt = FromUnixSeconds(unix_seconds);
  return StringFormat("%04d-%02d-%02dT%02d:%02d:%02dZ", dt.year, dt.month,
                      dt.day, dt.hour, dt.minute, dt.second);
}

Result<int64_t> ParseRfc3339(std::string_view text) {
  // View-based for the same reason as ParseRfc822: no allocation on
  // the per-item success path.
  std::string_view s = Trim(text);
  // Minimum: "YYYY-MM-DDThh:mm:ssZ"
  if (s.size() < 20 || s[4] != '-' || s[7] != '-' ||
      (s[10] != 'T' && s[10] != 't' && s[10] != ' ') || s[13] != ':' ||
      s[16] != ':') {
    return Status::ParseError("malformed RFC3339 date: " + std::string(s));
  }
  DateTime dt;
  PULLMON_ASSIGN_OR_RETURN(dt.year, ParseFixedInt(s.substr(0, 4)));
  PULLMON_ASSIGN_OR_RETURN(dt.month, ParseFixedInt(s.substr(5, 2)));
  PULLMON_ASSIGN_OR_RETURN(dt.day, ParseFixedInt(s.substr(8, 2)));
  PULLMON_ASSIGN_OR_RETURN(dt.hour, ParseFixedInt(s.substr(11, 2)));
  PULLMON_ASSIGN_OR_RETURN(dt.minute, ParseFixedInt(s.substr(14, 2)));
  PULLMON_ASSIGN_OR_RETURN(dt.second, ParseFixedInt(s.substr(17, 2)));
  std::size_t pos = 19;
  // Truncate fractional seconds.
  if (pos < s.size() && s[pos] == '.') {
    ++pos;
    while (pos < s.size() && IsAsciiDigit(s[pos])) ++pos;
  }
  if (pos >= s.size()) {
    return Status::ParseError("RFC3339 date missing zone: " + std::string(s));
  }
  int64_t offset_seconds = 0;
  if (s[pos] == 'Z' || s[pos] == 'z') {
    if (pos + 1 != s.size()) {
      return Status::ParseError("trailing characters in RFC3339 date: " + std::string(s));
    }
  } else if ((s[pos] == '+' || s[pos] == '-') && s.size() == pos + 6 &&
             s[pos + 3] == ':') {
    PULLMON_ASSIGN_OR_RETURN(int hh, ParseFixedInt(s.substr(pos + 1, 2)));
    PULLMON_ASSIGN_OR_RETURN(int mm, ParseFixedInt(s.substr(pos + 4, 2)));
    offset_seconds = (hh * 3600 + mm * 60) * (s[pos] == '+' ? 1 : -1);
  } else {
    return Status::ParseError("bad RFC3339 zone in: " + std::string(s));
  }
  return ToUnixSeconds(dt) - offset_seconds;
}

}  // namespace pullmon
