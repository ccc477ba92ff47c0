#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace msol::util {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LE(v, 3.5);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(7);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    lo |= (v == 0);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(11);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / n, 0.25, 0.01);
}

TEST(Rng, ForkIsIndependentOfParentUsage) {
  Rng parent1(99);
  Rng child1 = parent1.fork();
  Rng parent2(99);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(0.0, 1.0), child2.uniform(0.0, 1.0));
  }
}

TEST(Rng, SequentialForksDecorrelate) {
  // Regression for the pre-splitmix fork(): children seeded with raw
  // engine outputs. Siblings must not produce near-identical streams.
  Rng parent(7);
  Rng a = parent.fork();
  Rng b = parent.fork();
  int agree = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 9) == b.uniform_int(0, 9)) ++agree;
  }
  EXPECT_LT(agree, 30);  // ~10 expected for independent streams
}

TEST(Rng, CounterForkIgnoresParentState) {
  // fork(i) depends only on (construction seed, i): a heavily-used parent
  // and a fresh one hand out the exact same child stream, which is what
  // lets the parallel runner seed cell i from any worker thread.
  Rng used(123);
  for (int i = 0; i < 50; ++i) used.uniform(0.0, 1.0);
  (void)used.fork();
  Rng fresh(123);
  Rng a = used.fork(17);
  Rng b = fresh.fork(17);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, CounterForkSeparatesSiblingsAndSeeds) {
  Rng rng(5);
  EXPECT_NE(rng.child_seed(0), rng.child_seed(1));
  EXPECT_NE(Rng(5).child_seed(3), Rng(6).child_seed(3));
  // Nested grids: child i of seed s must not collide with child i+1 of a
  // neighbouring seed (the two-round mix breaks such lattice alignments).
  EXPECT_NE(Rng(5).child_seed(1), Rng(6).child_seed(0));
  Rng a = rng.fork(0);
  Rng b = rng.fork(1);
  int agree = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 9) == b.uniform_int(0, 9)) ++agree;
  }
  EXPECT_LT(agree, 30);
}

// -------------------------------------------------------------- stats ------

TEST(Stats, SummaryOfKnownSample) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MedianOddCount) {
  EXPECT_DOUBLE_EQ(summarize({5.0, 1.0, 3.0}).median, 3.0);
}

TEST(Stats, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SingleValueHasNoSpread) {
  const Summary s = summarize({42.0});
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width, 0.0);
}

TEST(Stats, TCriticalValuesMatchTheTable) {
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);  // no interval for n < 2
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(t_critical_95(9), 2.262);   // the default 10 platforms
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(t_critical_95(45), 2.000);
  EXPECT_DOUBLE_EQ(t_critical_95(100), 1.980);
  EXPECT_DOUBLE_EQ(t_critical_95(100000), 1.960);  // normal limit
  for (std::size_t df = 1; df < 130; ++df) {
    EXPECT_GE(t_critical_95(df), t_critical_95(df + 1)) << "df=" << df;
    EXPECT_GE(t_critical_95(df), 1.96);
  }
}

TEST(Stats, Ci95UsesStudentTNotZ) {
  // n = 4 => df = 3 => t = 3.182; the old z = 1.96 understated the
  // half-width by ~40% at this sample size.
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(s.ci95_half_width, 3.182 * s.stddev / 2.0, 1e-12);
  EXPECT_GT(s.ci95_half_width, 1.96 * s.stddev / 2.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 4.0}), 2.0);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), std::invalid_argument);
}

// -------------------------------------------------------------- table ------

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "10.25"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("10.25"), std::string::npos);
}

TEST(Table, RowWidthMustMatchHeader) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"x"});
  t.add_row({"a,b"});
  t.add_row({"say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FmtFixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 3), "1.235");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
}

/// fmt_exact as first written: one ostringstream per precision attempt.
/// The production version must print exactly what this prints.
std::string fmt_exact_streams(double value) {
  if (!std::isfinite(value)) {
    std::ostringstream out;
    out << value;
    return out.str();
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    if (std::strtod(out.str().c_str(), nullptr) == value) return out.str();
  }
  return std::to_string(value);
}

double from_bits(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

TEST(Table, FmtExactMatchesTheStreamLoopBitForBit) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 0.9, 1e-300,
                                1e300, 5e-324, -5e-324, 2.2250738585072009e-308,
                                2.2250738585072014e-308,
                                1.7976931348623157e308, 9007199254740993.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  Rng rng(20261019);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t bits = rng.engine()();
    values.push_back(from_bits(bits));  // any pattern, NaN/inf included
    // Subnormals: zero exponent field, random sign and mantissa.
    values.push_back(from_bits(bits & 0x800FFFFFFFFFFFFFULL));
    // Integers, small and up to 2^53 and beyond.
    values.push_back(static_cast<double>(rng.uniform_int(-1000, 1000)));
    values.push_back(static_cast<double>(static_cast<std::int64_t>(bits >> 1) *
                                         (i % 2 == 0 ? 1 : -1)));
    // Short decimals, the values grid files and sinks mostly carry.
    values.push_back(static_cast<double>(rng.uniform_int(-100000, 100000)) /
                     1000.0);
  }
  for (const double v : values) {
    ASSERT_EQ(fmt_exact(v), fmt_exact_streams(v))
        << "bits " << std::hex << [&] {
             std::uint64_t b;
             std::memcpy(&b, &v, sizeof b);
             return b;
           }();
  }
  EXPECT_EQ(fmt_exact(-0.0), "-0");
  EXPECT_EQ(fmt_exact(0.1), "0.1");
  EXPECT_EQ(fmt_exact(5e-324), "5e-324");
}

// ---------------------------------------------------------------- cli ------

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--tasks=100", "--verbose", "positional"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("tasks", 0), 100);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("verbose", ""), "true");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
}

TEST(Cli, ValueKeysAcceptSeparatedValues) {
  const char* argv[] = {"prog", "--threads", "4", "--csv", "out.csv",
                        "--quiet", "grid.txt"};
  Cli cli(7, argv, {"threads", "csv"});
  EXPECT_EQ(cli.get_int("threads", 0), 4);
  EXPECT_EQ(cli.get("csv", ""), "out.csv");
  EXPECT_TRUE(cli.has("quiet"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "grid.txt");
}

TEST(Cli, ValueKeyWithoutValueThrows) {
  const char* missing[] = {"prog", "--csv", "--quiet"};
  EXPECT_THROW(Cli(3, missing, {"csv"}), std::invalid_argument);
  const char* trailing[] = {"prog", "--csv"};
  EXPECT_THROW(Cli(2, trailing, {"csv"}), std::invalid_argument);
  const char* equals[] = {"prog", "--csv=x", "--quiet"};  // = form unaffected
  Cli cli(3, equals, {"csv"});
  EXPECT_EQ(cli.get("csv", ""), "x");
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog",          "--n=abc",
                        "--threads=2x",  "--frac=3.9",
                        "--shards=4294967298", "--low=-2147483649",
                        "--ok=-7"};
  Cli cli(7, argv);
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  // stoll alone stops at the first bad character: "2x" read as 2 and
  // "3.9" as 3.
  EXPECT_THROW(cli.get_int("threads", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("frac", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int32("threads", 0), std::invalid_argument);
  // Beyond int's range: a static_cast would wrap 2^32 + 2 to 2.
  EXPECT_EQ(cli.get_int("shards", 0), 4294967298LL);
  EXPECT_THROW(cli.get_int32("shards", 1), std::invalid_argument);
  EXPECT_THROW(cli.get_int32("low", 1), std::invalid_argument);
  EXPECT_EQ(cli.get_int32("ok", 0), -7);
  EXPECT_EQ(cli.get_int32("absent", 5), 5);
}

TEST(Cli, GetDoubleRejectsTrailingJunkAndNonFiniteValues) {
  // stod alone stops at the first bad character, so "--load 0.5x" silently
  // parsed as 0.5; full-consumption and finiteness are now required, the
  // same strictness get_uint64 applies.
  const char* argv[] = {"prog",       "--load=0.5x", "--inf=inf",
                        "--nan=nan",  "--neg=-inf",  "--empty=",
                        "--ok=-2.5e3"};
  Cli cli(7, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("ok", 0.0), -2500.0);
  EXPECT_THROW(cli.get_double("load", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("inf", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("nan", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("neg", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("empty", 0.0), std::invalid_argument);
}

TEST(Cli, GetUint64CoversFullRangeAndRejectsNegatives) {
  const char* argv[] = {"prog", "--seed=18446744073709551615", "--bad=-1",
                        "--junk=12x", "--shards=4"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_uint64("seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(cli.get_uint64("shards", 1), 4u);
  EXPECT_EQ(cli.get_uint64("absent", 9), 9u);
  // stoull would happily wrap "-1" to 2^64-1; get_uint64 must not.
  EXPECT_THROW(cli.get_uint64("bad", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_uint64("junk", 0), std::invalid_argument);
}

}  // namespace
}  // namespace msol::util
