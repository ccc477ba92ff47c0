#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <limits>

#include "platform/generator.hpp"
#include "platform/io.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace msol::platform {
namespace {

Platform paper_theorem1_platform() {
  return Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}});
}

// ------------------------------------------------------------- model ------

TEST(Platform, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(Platform({}), std::invalid_argument);
  EXPECT_THROW(Platform({SlaveSpec{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Platform({SlaveSpec{1.0, -2.0}}), std::invalid_argument);
}

TEST(Platform, AccessorsAndExtremes) {
  const Platform p({SlaveSpec{0.5, 3.0}, SlaveSpec{1.5, 1.0}});
  EXPECT_EQ(p.size(), 2);
  EXPECT_DOUBLE_EQ(p.comm(0), 0.5);
  EXPECT_DOUBLE_EQ(p.comp(1), 1.0);
  EXPECT_DOUBLE_EQ(p.min_comm(), 0.5);
  EXPECT_DOUBLE_EQ(p.max_comm(), 1.5);
  EXPECT_DOUBLE_EQ(p.min_comp(), 1.0);
  EXPECT_DOUBLE_EQ(p.max_comp(), 3.0);
  EXPECT_THROW(p.at(2), std::out_of_range);
  EXPECT_THROW(p.at(-1), std::out_of_range);
}

TEST(Platform, ClassifiesAllFourClasses) {
  EXPECT_EQ(Platform::homogeneous(3, 1.0, 2.0).classify(),
            PlatformClass::kFullyHomogeneous);
  EXPECT_EQ(paper_theorem1_platform().classify(),
            PlatformClass::kCommHomogeneous);
  EXPECT_EQ(Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{2.0, 3.0}}).classify(),
            PlatformClass::kCompHomogeneous);
  EXPECT_EQ(Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{2.0, 4.0}}).classify(),
            PlatformClass::kFullyHeterogeneous);
}

TEST(Platform, OrderingsSortByTheRightKey) {
  // P0: c=3,p=1  P1: c=1,p=5  P2: c=2,p=2
  const Platform p({SlaveSpec{3.0, 1.0}, SlaveSpec{1.0, 5.0},
                    SlaveSpec{2.0, 2.0}});
  EXPECT_EQ(p.order_by_comm(), (std::vector<core::SlaveId>{1, 2, 0}));
  EXPECT_EQ(p.order_by_comp(), (std::vector<core::SlaveId>{0, 2, 1}));
  EXPECT_EQ(p.order_by_comm_plus_comp(), (std::vector<core::SlaveId>{0, 2, 1}));
}

TEST(Platform, OrderingIsStableOnTies) {
  const Platform p = Platform::homogeneous(4, 1.0, 1.0);
  EXPECT_EQ(p.order_by_comm(), (std::vector<core::SlaveId>{0, 1, 2, 3}));
}

TEST(Platform, HeterogeneityIndices) {
  const Platform p({SlaveSpec{1.0, 2.0}, SlaveSpec{4.0, 2.0}});
  EXPECT_DOUBLE_EQ(p.comm_heterogeneity(), 4.0);
  EXPECT_DOUBLE_EQ(p.comp_heterogeneity(), 1.0);
}

TEST(Platform, AggregateComputeRate) {
  const Platform p({SlaveSpec{1.0, 2.0}, SlaveSpec{1.0, 4.0}});
  EXPECT_DOUBLE_EQ(p.aggregate_compute_rate(), 0.75);
}

TEST(Platform, DescribeMentionsClassAndSlaves) {
  const std::string desc = paper_theorem1_platform().describe();
  EXPECT_NE(desc.find("comm-homogeneous"), std::string::npos);
  EXPECT_NE(desc.find("P1"), std::string::npos);
}

// --------------------------------------------------------- generator ------

class GeneratorClassTest
    : public ::testing::TestWithParam<PlatformClass> {};

TEST_P(GeneratorClassTest, GeneratesRequestedClassWithinRanges) {
  util::Rng rng(31);
  const PlatformGenerator gen;
  for (int rep = 0; rep < 25; ++rep) {
    const Platform p = gen.generate(GetParam(), 5, rng);
    EXPECT_EQ(p.size(), 5);
    for (const SlaveSpec& s : p.slaves()) {
      EXPECT_GE(s.comm, gen.ranges().comm_lo);
      EXPECT_LE(s.comm, gen.ranges().comm_hi);
      EXPECT_GE(s.comp, gen.ranges().comp_lo);
      EXPECT_LE(s.comp, gen.ranges().comp_hi);
    }
    switch (GetParam()) {
      case PlatformClass::kFullyHomogeneous:
        EXPECT_TRUE(p.fully_homogeneous());
        break;
      case PlatformClass::kCommHomogeneous:
        EXPECT_TRUE(p.comm_homogeneous());
        break;
      case PlatformClass::kCompHomogeneous:
        EXPECT_TRUE(p.comp_homogeneous());
        break;
      case PlatformClass::kFullyHeterogeneous:
        break;  // nothing is forced homogeneous; spot-checked below
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, GeneratorClassTest,
                         ::testing::Values(PlatformClass::kFullyHomogeneous,
                                           PlatformClass::kCommHomogeneous,
                                           PlatformClass::kCompHomogeneous,
                                           PlatformClass::kFullyHeterogeneous));

TEST(Generator, HeterogeneousPlatformsAreActuallyHeterogeneous) {
  util::Rng rng(5);
  const PlatformGenerator gen;
  const Platform p =
      gen.generate(PlatformClass::kFullyHeterogeneous, 5, rng);
  EXPECT_GT(p.comm_heterogeneity(), 1.0);
  EXPECT_GT(p.comp_heterogeneity(), 1.0);
}

TEST(Generator, DeterministicInSeed) {
  const PlatformGenerator gen;
  util::Rng rng1(17), rng2(17);
  const Platform a =
      gen.generate(PlatformClass::kFullyHeterogeneous, 5, rng1);
  const Platform b =
      gen.generate(PlatformClass::kFullyHeterogeneous, 5, rng2);
  for (int j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(a.comm(j), b.comm(j));
    EXPECT_DOUBLE_EQ(a.comp(j), b.comp(j));
  }
}

TEST(Generator, SpreadFactorOneIsNearHomogeneous) {
  util::Rng rng(3);
  const PlatformGenerator gen;
  const Platform p = gen.generate_with_spread(5, 1.0, 1.0, rng);
  EXPECT_NEAR(p.comm_heterogeneity(), 1.0, 1e-9);
  EXPECT_NEAR(p.comp_heterogeneity(), 1.0, 1e-9);
}

TEST(Generator, RejectsBadArguments) {
  util::Rng rng(3);
  const PlatformGenerator gen;
  EXPECT_THROW(gen.generate(PlatformClass::kFullyHomogeneous, 0, rng),
               std::invalid_argument);
  // Non-positive and non-finite spreads are meaningless in any direction.
  EXPECT_THROW(gen.generate_with_spread(5, 0.0, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(gen.generate_with_spread(5, 1.0, -2.0, rng),
               std::invalid_argument);
  EXPECT_THROW(gen.generate_with_spread(5, std::nan(""), 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(
      gen.generate_with_spread(5, 1.0, std::numeric_limits<double>::infinity(),
                               rng),
      std::invalid_argument);
}

TEST(Generator, SpreadFactorBelowOneNormalizesToItsReciprocal) {
  // factor 0.5 names the same spread as 2.0; fed verbatim to
  // uniform(mid/f, mid*f) it used to invert the bounds (lo > hi). The
  // normalized draw must stay inside the factor-2 band around the
  // geometric midpoints.
  util::Rng rng(3);
  const PlatformGenerator gen;
  const GeneratorRanges ranges;
  const double comm_mid = std::sqrt(ranges.comm_lo * ranges.comm_hi);
  const double comp_mid = std::sqrt(ranges.comp_lo * ranges.comp_hi);
  const Platform p = gen.generate_with_spread(50, 0.5, 0.25, rng);
  for (int j = 0; j < p.size(); ++j) {
    EXPECT_GE(p.comm(j), comm_mid / 2.0 - 1e-12);
    EXPECT_LE(p.comm(j), comm_mid * 2.0 + 1e-12);
    EXPECT_GE(p.comp(j), comp_mid / 4.0 - 1e-12);
    EXPECT_LE(p.comp(j), comp_mid * 4.0 + 1e-12);
  }
  // And bounds are sane: heterogeneity is actually produced, not inverted.
  EXPECT_GT(p.comm_heterogeneity(), 1.0);
  EXPECT_GT(p.comp_heterogeneity(), 1.0);
}

// ------------------------------------------------------------------ io ------

TEST(PlatformIo, RoundTripPreservesValues) {
  const Platform p({SlaveSpec{0.013, 7.25}, SlaveSpec{1.0, 0.1}});
  const Platform q = parse(serialize(p));
  ASSERT_EQ(q.size(), p.size());
  for (int j = 0; j < p.size(); ++j) {
    EXPECT_DOUBLE_EQ(q.comm(j), p.comm(j));
    EXPECT_DOUBLE_EQ(q.comp(j), p.comp(j));
  }
}

TEST(PlatformIo, IgnoresCommentsAndBlankLines) {
  const Platform p = parse("# header\n\n0.5 2.0  # inline comment\n1.0 3.0\n");
  EXPECT_EQ(p.size(), 2);
  EXPECT_DOUBLE_EQ(p.comp(1), 3.0);
}

TEST(PlatformIo, RejectsMalformedInput) {
  EXPECT_THROW(parse("0.5\n"), std::invalid_argument);        // missing column
  EXPECT_THROW(parse("0.5 1.0 9\n"), std::invalid_argument);  // extra column
  EXPECT_THROW(parse("# only comments\n"), std::invalid_argument);
  EXPECT_THROW(parse("-1 1\n"), std::invalid_argument);  // Platform validation
  // A line that does not parse is an error, not a blank line.
  try {
    parse("1 2\nslave 3 4\n2 3\n");
    FAIL() << "a non-numeric line must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("'slave'"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(parse("1 2x\n"), std::invalid_argument);
  EXPECT_EQ(parse("\t \n1 2\n").size(), 1);
}

}  // namespace
}  // namespace msol::platform
