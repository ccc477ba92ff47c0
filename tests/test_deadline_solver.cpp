#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/validator.hpp"
#include "offline/deadline_solver.hpp"
#include "offline/exhaustive.hpp"
#include "offline/forward_sim.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::offline {
namespace {

using core::Workload;
using platform::Platform;
using platform::PlatformClass;
using platform::SlaveSpec;

TEST(SljfPlan, EmptyInstance) {
  const Platform plat = Platform::homogeneous(2, 1.0, 1.0);
  EXPECT_TRUE(sljf_plan(plat, {}).assignment.empty());
}

TEST(SljfPlan, SingleTaskGoesToAFastEnoughSlave) {
  const Platform plat({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}});
  const OfflinePlan plan = sljf_plan(plat, {0.0});
  ASSERT_EQ(plan.assignment.size(), 1u);
  EXPECT_EQ(plan.assignment[0], 0);
  EXPECT_NEAR(plan.makespan, 4.0, 1e-6);
}

TEST(SljfPlan, RejectsUnsortedReleases) {
  const Platform plat = Platform::homogeneous(2, 1.0, 1.0);
  EXPECT_THROW(sljf_plan(plat, {1.0, 0.0}), std::invalid_argument);
}

/// Expects `fn` to throw std::invalid_argument whose message names
/// release `index`.
template <typename Fn>
void expect_rejects_release(Fn fn, std::size_t index) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("release " + std::to_string(index)),
              std::string::npos)
        << e.what();
  }
}

TEST(SljfPlan, RejectsNonFiniteReleases) {
  const Platform plat({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // {NaN, 0} passes the sortedness check (NaN compares false both ways),
  // so only the finiteness check stops it from yielding a plan.
  expect_rejects_release([&] { sljf_plan(plat, {nan, 0.0}); }, 0);
  expect_rejects_release([&] { sljf_plan(plat, {0.0, nan}); }, 1);
  // {0, inf} would otherwise plan to an infinite makespan.
  expect_rejects_release([&] { sljf_plan(plat, {0.0, inf}); }, 1);
  expect_rejects_release([&] { sljf_plan(plat, {-inf, 0.0}); }, 0);
}

TEST(SljfwcPlan, RejectsNonFiniteReleases) {
  const Platform plat({SlaveSpec{0.5, 3.0}, SlaveSpec{1.0, 7.0}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // {0, NaN} makes every chain deadline NaN: the backward argmax would
  // pick no slave at all.
  expect_rejects_release([&] { sljfwc_plan(plat, {0.0, nan}); }, 1);
  expect_rejects_release([&] { sljfwc_plan(plat, {nan, 0.0}); }, 0);
  expect_rejects_release([&] { sljfwc_plan(plat, {0.0, inf}); }, 1);
}

TEST(SljfwcPlan, UnselectableSlavesFailLoudly) {
  // An infinite p_j passes Platform's positivity check but makes every
  // chain deadline NaN (M = inf, inf - inf): the backward construction
  // must report that instead of reading slave -1.
  const double inf = std::numeric_limits<double>::infinity();
  const Platform plat({SlaveSpec{1.0, inf}});
  try {
    sljfwc_plan(plat, {0.0});
    ADD_FAILURE() << "expected std::logic_error";
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "unexpected invalid_argument: " << e.what();
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("no slave selectable"),
              std::string::npos)
        << e.what();
  }
}

TEST(SljfPlan, TheoremOnePlatformThreeTasks) {
  // The instance from Theorem 1's end-game: releases 0, c, 2c on
  // (p1=3, p2=7, c=1). Optimal makespan is 8 (i on P2, j and k on P1).
  const Platform plat({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}});
  const OfflinePlan plan = sljf_plan(plat, {0.0, 1.0, 2.0});
  EXPECT_NEAR(plan.makespan, 8.0, 1e-6);
}

/// SLJF's defining property (from [23], relied upon by Sec 4.1): optimal
/// makespan on communication-homogeneous platforms. Cross-checked against
/// the exhaustive solver on random instances, with and without releases.
class SljfOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SljfOptimality, MatchesExhaustiveOnCommHomogeneous) {
  util::Rng rng(static_cast<std::uint64_t>(3000 + GetParam()));
  const platform::PlatformGenerator gen;
  const Platform plat = gen.generate(PlatformClass::kCommHomogeneous, 3, rng);
  const int n = 8;
  const Workload work = (GetParam() % 2 == 0)
                            ? Workload::all_at_zero(n)
                            : Workload::poisson(n, 1.0, rng);
  std::vector<core::Time> releases;
  for (int i = 0; i < n; ++i) releases.push_back(work.at(i).release);

  const OfflinePlan plan = sljf_plan(plat, releases);
  const double opt =
      solve_optimal(plat, work, core::Objective::kMakespan).objective;
  EXPECT_NEAR(plan.makespan, opt, 1e-6);

  const core::Schedule replay = simulate_assignment(plat, work, plan.assignment);
  EXPECT_TRUE(core::validate(plat, work, replay).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SljfOptimality, ::testing::Range(0, 16));

/// SLJFWC's defining property: optimal makespan on computation-homogeneous
/// platforms (heterogeneous links), verified empirically the same way.
class SljfwcOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SljfwcOptimality, MatchesExhaustiveOnCompHomogeneous) {
  util::Rng rng(static_cast<std::uint64_t>(4000 + GetParam()));
  const platform::PlatformGenerator gen;
  const Platform plat = gen.generate(PlatformClass::kCompHomogeneous, 3, rng);
  const int n = 8;
  const Workload work = (GetParam() % 2 == 0)
                            ? Workload::all_at_zero(n)
                            : Workload::poisson(n, 1.0, rng);
  std::vector<core::Time> releases;
  for (int i = 0; i < n; ++i) releases.push_back(work.at(i).release);

  const OfflinePlan plan = sljfwc_plan(plat, releases);
  const double opt =
      solve_optimal(plat, work, core::Objective::kMakespan).objective;
  // The backward construction plus the count-move local search has matched
  // the exhaustive optimum on every instance in this sweep; the tolerance
  // only absorbs bisection epsilon.
  EXPECT_LE(plan.makespan, opt + 1e-6);
  EXPECT_GE(plan.makespan, opt - 1e-6);  // never better than optimal
}

INSTANTIATE_TEST_SUITE_P(Seeds, SljfwcOptimality, ::testing::Range(0, 30));

TEST(SljfwcPlan, PrefersFastLinksOnCompHomogeneousPlatforms) {
  // Two equal-speed slaves, one link 10x faster: with a stream of tasks the
  // fast link must carry at least as many tasks as the slow one.
  const Platform plat({SlaveSpec{0.1, 2.0}, SlaveSpec{1.0, 2.0}});
  const OfflinePlan plan =
      sljfwc_plan(plat, std::vector<core::Time>(10, 0.0));
  int fast = 0, slow = 0;
  for (core::SlaveId j : plan.assignment) (j == 0 ? fast : slow)++;
  EXPECT_GE(fast, slow);
}

TEST(SljfPlan, SplitsLoadByProcessorSpeed) {
  // p0=1, p1=4, c=0.1: the fast slave should receive the lion's share.
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.1, 4.0}});
  const OfflinePlan plan = sljf_plan(plat, std::vector<core::Time>(10, 0.0));
  int fast = 0;
  for (core::SlaveId j : plan.assignment) fast += (j == 0);
  EXPECT_GE(fast, 7);  // ~4/5 of the work at equal port cost
}

}  // namespace
}  // namespace msol::offline
