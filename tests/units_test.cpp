// Tests for core/units: strong-typed quantities, arithmetic, formatting,
// parsing of the paper's notation ("4 wk + 12 hr", "727 KB/s", "$50000").
#include "core/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace stordep {
namespace {

TEST(Bytes, ConversionsUseBinaryPrefixes) {
  EXPECT_DOUBLE_EQ(kilobytes(1).bytes(), 1024.0);
  EXPECT_DOUBLE_EQ(megabytes(1).bytes(), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gigabytes(1).megabytes(), 1024.0);
  EXPECT_DOUBLE_EQ(terabytes(2).gigabytes(), 2048.0);
  EXPECT_DOUBLE_EQ(gigabytes(1360).terabytes(), 1360.0 / 1024.0);
}

TEST(Bytes, Arithmetic) {
  EXPECT_EQ(gigabytes(2) + gigabytes(3), gigabytes(5));
  EXPECT_EQ(gigabytes(5) - gigabytes(3), gigabytes(2));
  EXPECT_EQ(gigabytes(2) * 3.0, gigabytes(6));
  EXPECT_EQ(3.0 * gigabytes(2), gigabytes(6));
  EXPECT_DOUBLE_EQ(gigabytes(6) / gigabytes(2), 3.0);
  Bytes b = gigabytes(1);
  b += gigabytes(2);
  EXPECT_EQ(b, gigabytes(3));
  b -= gigabytes(1);
  EXPECT_EQ(b, gigabytes(2));
  b *= 2.0;
  EXPECT_EQ(b, gigabytes(4));
}

TEST(Bytes, Comparisons) {
  EXPECT_LT(megabytes(1), gigabytes(1));
  EXPECT_GT(terabytes(1), gigabytes(1023));
  EXPECT_LE(gigabytes(1), gigabytes(1));
  EXPECT_TRUE(approxEqual(gigabytes(1), gigabytes(1) + bytes(1)));
  EXPECT_FALSE(approxEqual(gigabytes(1), gigabytes(2)));
}

TEST(Bytes, Infinity) {
  EXPECT_TRUE(Bytes::infinite().isInfinite());
  EXPECT_FALSE(Bytes::infinite().isFinite());
  EXPECT_TRUE(gigabytes(1).isFinite());
  EXPECT_LT(terabytes(10000), Bytes::infinite());
}

TEST(Duration, Conversions) {
  EXPECT_DOUBLE_EQ(minutes(1).secs(), 60.0);
  EXPECT_DOUBLE_EQ(hours(1).minutes(), 60.0);
  EXPECT_DOUBLE_EQ(days(1).hrs(), 24.0);
  EXPECT_DOUBLE_EQ(weeks(1).dys(), 7.0);
  EXPECT_DOUBLE_EQ(years(1).dys(), 365.0);
  EXPECT_DOUBLE_EQ(weeks(4).hrs(), 672.0);
}

TEST(Duration, Arithmetic) {
  EXPECT_EQ(hours(1) + minutes(30), minutes(90));
  EXPECT_EQ(days(1) - hours(12), hours(12));
  EXPECT_EQ(hours(2) * 3.0, hours(6));
  EXPECT_DOUBLE_EQ(days(1) / hours(6), 4.0);
}

TEST(Bandwidth, Conversions) {
  EXPECT_DOUBLE_EQ(mbPerSec(1).bytesPerSec(), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(kbPerSec(1024).mbPerSec(), 1.0);
  // OC-3: 155 Mbps (decimal megabits) = 19.375 decimal MB/s.
  EXPECT_DOUBLE_EQ(megabitsPerSec(155).bytesPerSec(), 155e6 / 8.0);
}

TEST(CrossTypeArithmetic, BytesDurationBandwidth) {
  // Paper Table 5: a 1360 GB full backup over a 48-hour window is ~8.1 MB/s.
  const Bandwidth rate = gigabytes(1360) / hours(48);
  EXPECT_NEAR(rate.mbPerSec(), 8.06, 0.01);
  EXPECT_TRUE(approxEqual(rate * hours(48), gigabytes(1360), 1e-12));
  EXPECT_TRUE(approxEqual(gigabytes(1360) / rate, hours(48), 1e-12));
}

TEST(CrossTypeArithmetic, MoneyRates) {
  const MoneyRate rate = dollarsPerHour(50'000);
  EXPECT_DOUBLE_EQ((rate * hours(2)).usd(), 100'000.0);
  EXPECT_DOUBLE_EQ((hours(217) * rate).millionUsd(), 10.85);
  EXPECT_DOUBLE_EQ((millionDollars(1) / hours(20)).usdPerHour(), 50'000.0);
}

TEST(Formatting, HumanReadable) {
  EXPECT_EQ(toString(gigabytes(1360)), "1.33 TB");
  EXPECT_EQ(toString(megabytes(1)), "1 MB");
  EXPECT_EQ(toString(hours(26.4)), "1.1 days");
  EXPECT_EQ(toString(hours(2.4)), "2.4 hr");
  EXPECT_EQ(toString(seconds(0.004)), "0.004 s");
  EXPECT_EQ(toString(mbPerSec(12.4)), "12.4 MB/s");
  EXPECT_EQ(toString(millionDollars(11.94)), "$11.94M");
  EXPECT_EQ(toString(dollars(650)), "$650");
  EXPECT_EQ(toString(dollarsPerHour(50'000)), "$50000/hr");
}

/// printf's "%.*f" into a 64-byte buffer, trailing zeros trimmed: the
/// formatting contract toString() keeps, written out independently.
std::string printfTrimmed(double value, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, value);
  std::string s = buf;
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

TEST(Formatting, DecimalsMatchPrintfFixed) {
  // Exact binary ties (printf rounds them to even), signs, negative zero,
  // whole numbers on both sides of 2^53, values too long for the buffer
  // (printf's truncated form), and a spread of pseudo-random magnitudes
  // through every unit branch.
  std::vector<double> values = {
      0.0,    -0.0,  0.125, 0.375,   2.675,      -0.125,     -0.001,
      0.005,  999.995, 1e15, 1e21,   1e70,       -1e70,      1e300,
      123.456, 0.999, 9.995, 12.0,   168.0,      -168.0,     999999.0,
      0x1p53 - 1, 0x1p53, 0x1p53 + 2, 0x1p63, 0x1p64};
  std::uint64_t state = 42;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double mantissa = static_cast<double>(state >> 11) * 0x1.0p-53;
    values.push_back(mantissa * std::pow(10.0, (i % 24) - 6));
  }
  for (const double v : values) {
    // Appended, not "$" + std::string: GCC 12 at -O3 reports a false
    // -Wrestrict overlap on that temporary.
    std::string money = "$";
    if (std::fabs(v) >= 1e6) {
      money += printfTrimmed(v / 1e6, 2);
      money += 'M';
    } else if (std::fabs(v) >= 1e3) {
      money += printfTrimmed(v / 1e3, 1);
      money += 'K';
    } else {
      money += printfTrimmed(v, 2);
    }
    ASSERT_EQ(toString(dollars(v)), money) << v;
    const Duration d = seconds(std::fabs(v));
    if (d.secs() < Duration::kMinute) {
      ASSERT_EQ(toString(d), printfTrimmed(d.secs(), 3) + " s") << v;
    } else if (d.secs() < Duration::kHour) {
      ASSERT_EQ(toString(d), printfTrimmed(d.minutes(), 2) + " min") << v;
    } else if (d.secs() >= Duration::kYear) {
      ASSERT_EQ(toString(d), printfTrimmed(d.yrs(), 2) + " yr") << v;
    }
  }
}

TEST(Formatting, StreamsMatchToString) {
  std::ostringstream os;
  os << gigabytes(73) << " " << hours(12) << " " << mbPerSec(25) << " "
     << dollars(123'297);
  EXPECT_EQ(os.str(), "73 GB 12 hr 25 MB/s $123.3K");
}

TEST(Parsing, Bytes) {
  EXPECT_EQ(parseBytes("1360 GB"), gigabytes(1360));
  EXPECT_EQ(parseBytes("73GB"), gigabytes(73));
  EXPECT_EQ(parseBytes("400 GB"), gigabytes(400));
  EXPECT_EQ(parseBytes("1 MB"), megabytes(1));
  EXPECT_EQ(parseBytes("512"), bytes(512));
  EXPECT_EQ(parseBytes("2 TiB"), terabytes(2));
  EXPECT_THROW((void)parseBytes("twelve GB"), ParseError);
  EXPECT_THROW((void)parseBytes("12 XB"), ParseError);
  EXPECT_THROW((void)parseBytes(""), ParseError);
}

TEST(Parsing, Durations) {
  EXPECT_EQ(parseDuration("12 hr"), hours(12));
  EXPECT_EQ(parseDuration("48 hr"), hours(48));
  EXPECT_EQ(parseDuration("1 wk"), weeks(1));
  EXPECT_EQ(parseDuration("4 wks"), weeks(4));
  EXPECT_EQ(parseDuration("3 years"), years(3));
  EXPECT_EQ(parseDuration("2 days"), days(2));
  EXPECT_EQ(parseDuration("1 min"), minutes(1));
  EXPECT_EQ(parseDuration("90 s"), seconds(90));
  EXPECT_EQ(parseDuration("0.02 hr"), hours(0.02));
}

TEST(Parsing, CompoundDurations) {
  // The paper's vault hold window: "4 wk + 12 hr".
  EXPECT_EQ(parseDuration("4 wk + 12 hr"), weeks(4) + hours(12));
  EXPECT_EQ(parseDuration("1 day + 1 hr + 30 min"),
            days(1) + hours(1) + minutes(30));
  EXPECT_THROW((void)parseDuration("4 wk +"), ParseError);
  EXPECT_THROW((void)parseDuration("+ 12 hr"), ParseError);
}

TEST(Parsing, Bandwidth) {
  EXPECT_EQ(parseBandwidth("25 MB/s"), mbPerSec(25));
  EXPECT_EQ(parseBandwidth("727 KB/s"), kbPerSec(727));
  EXPECT_EQ(parseBandwidth("155 Mbps"), megabitsPerSec(155));
  EXPECT_THROW((void)parseBandwidth("25 MB"), ParseError);
  EXPECT_THROW((void)parseBandwidth("25 MB/hr"), ParseError);
}

TEST(Parsing, Money) {
  EXPECT_EQ(parseMoney("$123297"), dollars(123'297));
  EXPECT_EQ(parseMoney("123297"), dollars(123'297));
  EXPECT_EQ(parseMoney("$11.94M"), millionDollars(11.94));
  EXPECT_EQ(parseMoney("$50K"), dollars(50'000));
  EXPECT_THROW((void)parseMoney("lots"), ParseError);
}

}  // namespace
}  // namespace stordep
