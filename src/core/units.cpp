#include "core/units.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string_view>
#include <vector>

namespace stordep {

namespace {

/// Formats a double with up to `prec` significant-looking decimals, trimming
/// trailing zeros ("2.40" -> "2.4", "12.00" -> "12"). std::to_chars in fixed
/// format is specified to produce printf's "%.*f" bytes; a value too long for
/// the buffer keeps snprintf's truncated form.
std::string trimmedFixed(double value, int prec) {
  std::array<char, 64> buf{};
  std::to_chars_result r =
      std::to_chars(buf.data(), buf.data() + buf.size() - 1, value,
                    std::chars_format::fixed, prec);
  if (r.ec != std::errc{}) {
    std::snprintf(buf.data(), buf.size(), "%.*f", prec, value);
    r.ptr = buf.data() + std::strlen(buf.data());
  }
  std::string_view s(buf.data(), static_cast<std::size_t>(r.ptr - buf.data()));
  if (s.find('.') != std::string_view::npos) {
    while (!s.empty() && s.back() == '0') s.remove_suffix(1);
    if (!s.empty() && s.back() == '.') s.remove_suffix(1);
  }
  return std::string(s);
}

/// "$<amount><suffix>", built by appending: GCC 12 at -O3 reports a false
/// -Wrestrict overlap on `"$" + std::string` temporaries.
std::string dollars(double amount, int decimals, const char* suffix = "") {
  std::string out = "$";
  out.append(trimmedFixed(amount, decimals));
  out.append(suffix);
  return out;
}

struct UnitDef {
  std::string_view name;
  double factor;
};

// Longest-match-first unit tables for the parsers.
constexpr std::array<UnitDef, 12> kByteUnits{{
    {"bytes", 1.0},
    {"byte", 1.0},
    {"KiB", Bytes::kKB},
    {"MiB", Bytes::kMB},
    {"GiB", Bytes::kGB},
    {"TiB", Bytes::kTB},
    {"KB", Bytes::kKB},
    {"MB", Bytes::kMB},
    {"GB", Bytes::kGB},
    {"TB", Bytes::kTB},
    {"B", 1.0},
    {"b", 1.0},
}};

constexpr std::array<UnitDef, 18> kTimeUnits{{
    {"seconds", 1.0},
    {"second", 1.0},
    {"secs", 1.0},
    {"sec", 1.0},
    {"s", 1.0},
    {"minutes", Duration::kMinute},
    {"minute", Duration::kMinute},
    {"mins", Duration::kMinute},
    {"min", Duration::kMinute},
    {"hours", Duration::kHour},
    {"hour", Duration::kHour},
    {"hrs", Duration::kHour},
    {"hr", Duration::kHour},
    {"days", Duration::kDay},
    {"day", Duration::kDay},
    {"weeks", Duration::kWeek},
    {"week", Duration::kWeek},
    {"wk", Duration::kWeek},
}};

// Suffixes not covered by the table above (checked after it).
constexpr std::array<UnitDef, 4> kTimeUnitsExtra{{
    {"wks", Duration::kWeek},
    {"years", Duration::kYear},
    {"year", Duration::kYear},
    {"yr", Duration::kYear},
}};

std::string_view stripSpace(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses "<number> <unit>" against a unit table. Returns value in base units.
template <typename Table>
double parseWithUnits(std::string_view text, const Table& table,
                      const char* kind) {
  std::string_view s = stripSpace(text);
  if (s.empty()) throw ParseError(std::string("empty ") + kind + " literal");

  size_t i = 0;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
          s[i] == '-' || s[i] == '+' || s[i] == 'e' || s[i] == 'E')) {
    // Don't swallow unit letters that happen to be 'e'/'E' starts: require the
    // char after 'e' to be a digit or sign for it to be an exponent.
    if ((s[i] == 'e' || s[i] == 'E')) {
      if (i + 1 >= s.size() ||
          (!std::isdigit(static_cast<unsigned char>(s[i + 1])) &&
           s[i + 1] != '-' && s[i + 1] != '+')) {
        break;
      }
    }
    ++i;
  }
  const std::string num{s.substr(0, i)};
  if (num.empty()) {
    throw ParseError(std::string("missing number in ") + kind + " literal '" +
                     std::string(s) + "'");
  }
  double value = 0;
  try {
    size_t pos = 0;
    value = std::stod(num, &pos);
    if (pos != num.size()) throw std::invalid_argument(num);
  } catch (const std::exception&) {
    throw ParseError(std::string("bad number '") + num + "' in " + kind +
                     " literal");
  }

  std::string_view unit = stripSpace(s.substr(i));
  if (unit.empty()) return value;  // bare number -> base units
  for (const auto& u : table) {
    if (unit == u.name) return value * u.factor;
  }
  throw ParseError(std::string("unknown ") + kind + " unit '" +
                   std::string(unit) + "'");
}

double parseTimeTerm(std::string_view term) {
  std::string_view s = stripSpace(term);
  // Check the extra table first by suffix match attempt; simplest correct
  // approach: try the main table, fall back to the extra one.
  try {
    return parseWithUnits(s, kTimeUnits, "duration");
  } catch (const ParseError&) {
    return parseWithUnits(s, kTimeUnitsExtra, "duration");
  }
}

}  // namespace

std::string toString(Bytes b) {
  if (b.isInfinite()) return "inf B";
  const double v = b.bytes();
  if (v >= Bytes::kTB) return trimmedFixed(b.terabytes(), 2) + " TB";
  if (v >= Bytes::kGB) return trimmedFixed(b.gigabytes(), 2) + " GB";
  if (v >= Bytes::kMB) return trimmedFixed(b.megabytes(), 2) + " MB";
  if (v >= Bytes::kKB) return trimmedFixed(b.kilobytes(), 2) + " KB";
  return trimmedFixed(v, 0) + " B";
}

std::string toString(Duration d) {
  if (d.isInfinite()) return "inf";
  const double v = d.secs();
  if (v >= Duration::kYear) return trimmedFixed(d.yrs(), 2) + " yr";
  if (v >= Duration::kWeek) return trimmedFixed(d.wks(), 2) + " wk";
  if (v >= Duration::kDay) return trimmedFixed(d.dys(), 2) + " days";
  if (v >= Duration::kHour) return trimmedFixed(d.hrs(), 2) + " hr";
  if (v >= Duration::kMinute) return trimmedFixed(d.minutes(), 2) + " min";
  return trimmedFixed(v, 3) + " s";
}

std::string toString(Bandwidth bw) {
  if (bw.isInfinite()) return "inf MB/s";
  const double v = bw.bytesPerSec();
  if (v >= Bytes::kMB) return trimmedFixed(bw.mbPerSec(), 2) + " MB/s";
  if (v >= Bytes::kKB) return trimmedFixed(bw.kbPerSec(), 2) + " KB/s";
  return trimmedFixed(v, 1) + " B/s";
}

std::string toString(Money m) {
  const double v = m.usd();
  if (std::fabs(v) >= 1e6) return dollars(v / 1e6, 2, "M");
  if (std::fabs(v) >= 1e3) return dollars(v / 1e3, 1, "K");
  return dollars(v, 2);
}

std::string toString(MoneyRate r) {
  return dollars(r.usdPerHour(), 2, "/hr");
}

std::ostream& operator<<(std::ostream& os, Bytes b) { return os << toString(b); }
std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << toString(d);
}
std::ostream& operator<<(std::ostream& os, Bandwidth bw) {
  return os << toString(bw);
}
std::ostream& operator<<(std::ostream& os, Money m) { return os << toString(m); }
std::ostream& operator<<(std::ostream& os, MoneyRate r) {
  return os << toString(r);
}

Bytes parseBytes(const std::string& text) {
  return Bytes{parseWithUnits(text, kByteUnits, "bytes")};
}

Duration parseDuration(const std::string& text) {
  // Support compound literals like the paper's "4 wk + 12 hr".
  std::string_view s{text};
  double total = 0;
  size_t start = 0;
  const std::string& t = text;
  for (size_t i = 0; i <= t.size(); ++i) {
    if (i == t.size() || t[i] == '+') {
      std::string_view term = std::string_view(t).substr(start, i - start);
      if (stripSpace(term).empty()) {
        throw ParseError("empty term in duration literal '" + text + "'");
      }
      total += parseTimeTerm(term);
      start = i + 1;
    }
  }
  (void)s;
  return Duration{total};
}

Bandwidth parseBandwidth(const std::string& text) {
  // Forms: "<bytes>/s", "<bytes>/sec", "155 Mbps".
  std::string_view s = stripSpace(std::string_view{text});
  if (s.ends_with("Mbps")) {
    std::string num{stripSpace(s.substr(0, s.size() - 4))};
    try {
      return megabitsPerSec(std::stod(num));
    } catch (const std::exception&) {
      throw ParseError("bad Mbps literal '" + text + "'");
    }
  }
  const size_t slash = s.rfind('/');
  if (slash == std::string_view::npos) {
    throw ParseError("bandwidth literal '" + text + "' missing '/s'");
  }
  const std::string_view denom = stripSpace(s.substr(slash + 1));
  if (denom != "s" && denom != "sec" && denom != "second") {
    throw ParseError("bandwidth literal '" + text + "' must be per-second");
  }
  const Bytes b = parseBytes(std::string{s.substr(0, slash)});
  return Bandwidth{b.bytes()};
}

Money parseMoney(const std::string& text) {
  std::string_view s = stripSpace(std::string_view{text});
  if (!s.empty() && s.front() == '$') s.remove_prefix(1);
  double scale = 1.0;
  if (!s.empty() && (s.back() == 'M' || s.back() == 'm')) {
    scale = 1e6;
    s.remove_suffix(1);
  } else if (!s.empty() && (s.back() == 'K' || s.back() == 'k')) {
    scale = 1e3;
    s.remove_suffix(1);
  }
  try {
    std::string num{stripSpace(s)};
    size_t pos = 0;
    const double v = std::stod(num, &pos);
    if (pos != num.size()) throw std::invalid_argument(num);
    return Money{v * scale};
  } catch (const std::exception&) {
    throw ParseError("bad money literal '" + text + "'");
  }
}

}  // namespace stordep
