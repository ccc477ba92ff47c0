// Tests for the admission-throttled LS(K) policy, the queue-depth engine
// observables it relies on, lognormal workload noise, and workload text I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "core/workload_io.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol {
namespace {

using core::Schedule;
using core::Workload;
using platform::Platform;
using platform::SlaveSpec;

// --------------------------------------------------- tasks_in_system ------

TEST(TasksInSystem, TracksCommittedUncompletedWork) {
  const Platform plat({SlaveSpec{1.0, 4.0}});
  const auto ls = algorithms::make_scheduler("LS");
  core::OnePortEngine engine(plat, *ls);
  engine.load(Workload::all_at_zero(2));
  // t in [0,1): task 0 in flight; [1,2): task 1 in flight, task 0 computing.
  engine.run_until(1.5);
  EXPECT_EQ(engine.tasks_in_system(0), 2);
  engine.run_until(5.5);  // task 0 done at 5
  EXPECT_EQ(engine.tasks_in_system(0), 1);
  engine.run_to_completion();
  EXPECT_EQ(engine.tasks_in_system(0), 0);
  EXPECT_THROW(engine.tasks_in_system(3), std::out_of_range);
}

// ------------------------------------------------------------- LS(K) ------

TEST(ThrottledLs, RejectsNonPositiveCap) {
  EXPECT_THROW(algorithms::make_scheduler("LS-K0"), std::invalid_argument);
  EXPECT_THROW(algorithms::make_scheduler("filter:throttle:0"),
               std::invalid_argument);
}

TEST(ThrottledLs, NeverExceedsTheQueueCap) {
  util::Rng rng(11);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 3, rng);
  const Workload work = Workload::all_at_zero(20);
  for (int cap : {1, 2, 3}) {
    const auto policy =
        algorithms::make_scheduler("LS-K" + std::to_string(cap));
    const Schedule s = core::simulate(plat, work, *policy);
    core::validate_or_throw(plat, work, s);
    // Invariant check: at every compute start, at most `cap` tasks of that
    // slave can be in the system; equivalently, the task that arrives as
    // (cap+1)-th must start its send after an earlier one completed.
    for (const core::TaskRecord& r : s.records()) {
      int concurrent = 0;
      for (const core::TaskRecord& other : s.records()) {
        if (other.slave == r.slave && other.send_start <= r.send_start &&
            other.comp_end > r.send_start + core::kTimeEps) {
          ++concurrent;
        }
      }
      EXPECT_LE(concurrent, cap);
    }
  }
}

TEST(ThrottledLs, LargeCapMatchesPlainLs) {
  util::Rng rng(12);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 3, rng);
  const Workload work = Workload::poisson(25, 2.0, rng);
  const auto throttled = algorithms::make_scheduler("LS-K1000");
  const auto ls = algorithms::make_scheduler("LS");
  const Schedule a = core::simulate(plat, work, *throttled);
  const Schedule b = core::simulate(plat, work, *ls);
  for (int i = 0; i < work.size(); ++i) {
    EXPECT_EQ(a.at(i).slave, b.at(i).slave);
    EXPECT_NEAR(a.at(i).comp_end, b.at(i).comp_end, 1e-9);
  }
}

TEST(ThrottledLs, CapOneNeverQueues) {
  const Platform plat({SlaveSpec{0.2, 2.0}, SlaveSpec{0.3, 3.0}});
  const auto policy = algorithms::make_scheduler("LS-K1");
  const Workload work = Workload::all_at_zero(6);
  const Schedule s = core::simulate(plat, work, *policy);
  for (const core::TaskRecord& r : s.records()) {
    EXPECT_NEAR(r.comp_start, r.send_end, 1e-9);  // compute on arrival
  }
}

TEST(ThrottledLs, WakesOnIntermediateCompletions) {
  // One slave, cap 2, three tasks at 0: task 2 must be sent as soon as
  // task 0 *completes* (t=5), not when the whole queue drains (t=9).
  const Platform plat({SlaveSpec{1.0, 4.0}});
  const auto policy = algorithms::make_scheduler("LS-K2");
  const Schedule s = core::simulate(plat, Workload::all_at_zero(3), *policy);
  EXPECT_DOUBLE_EQ(s.find(2)->send_start, 5.0);
}

TEST(ThrottledLs, RegistryBuildsNamedVariants) {
  EXPECT_EQ(algorithms::make_scheduler("LS-K3")->name(), "LS-K3");
  EXPECT_THROW(algorithms::make_scheduler("LS-Kx"), std::invalid_argument);
  EXPECT_THROW(algorithms::make_scheduler("LS-K0"), std::invalid_argument);
  // Regression: stoi's silent trailing-junk acceptance used to build
  // ThrottledLs(2) out of this.
  EXPECT_THROW(algorithms::make_scheduler("LS-K2junk"), std::invalid_argument);
  EXPECT_THROW(algorithms::make_scheduler("LS-K-1"), std::invalid_argument);
  EXPECT_THROW(algorithms::make_scheduler("LS-K"), std::invalid_argument);
}

// ---------------------------------------------------- lognormal noise ------

TEST(LognormalNoise, ZeroSigmaIsIdentity) {
  util::Rng rng(5);
  const Workload base = Workload::poisson(10, 1.0, rng);
  const Workload same = base.with_lognormal_noise(0.0, 0.0, rng);
  for (int i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(same.at(i).comm_factor, base.at(i).comm_factor);
    EXPECT_DOUBLE_EQ(same.at(i).comp_factor, base.at(i).comp_factor);
  }
}

TEST(LognormalNoise, DecouplesCommAndComp) {
  util::Rng rng(6);
  const Workload noisy =
      Workload::all_at_zero(200).with_lognormal_noise(0.3, 0.3, rng);
  bool decoupled = false;
  for (int i = 0; i < noisy.size(); ++i) {
    EXPECT_GT(noisy.at(i).comm_factor, 0.0);
    EXPECT_GT(noisy.at(i).comp_factor, 0.0);
    if (std::abs(noisy.at(i).comm_factor - noisy.at(i).comp_factor) > 1e-6) {
      decoupled = true;
    }
  }
  EXPECT_TRUE(decoupled);
}

TEST(LognormalNoise, MedianFactorNearOne) {
  util::Rng rng(7);
  const Workload noisy =
      Workload::all_at_zero(2000).with_lognormal_noise(0.4, 0.0, rng);
  int above = 0;
  for (int i = 0; i < noisy.size(); ++i) {
    above += noisy.at(i).comm_factor > 1.0;
  }
  // Lognormal with mu=0: median exactly 1.
  EXPECT_NEAR(static_cast<double>(above) / noisy.size(), 0.5, 0.05);
}

TEST(LognormalNoise, RejectsNegativeSigma) {
  util::Rng rng(8);
  EXPECT_THROW(Workload::all_at_zero(2).with_lognormal_noise(-0.1, 0.0, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------- workload io ------

TEST(WorkloadIo, RoundTripPreservesSpecs) {
  util::Rng rng(9);
  const Workload base =
      Workload::poisson(8, 1.0, rng).with_lognormal_noise(0.2, 0.3, rng);
  const Workload back = core::parse_workload(core::serialize(base));
  ASSERT_EQ(back.size(), base.size());
  for (int i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.at(i).release, base.at(i).release);
    EXPECT_DOUBLE_EQ(back.at(i).comm_factor, base.at(i).comm_factor);
    EXPECT_DOUBLE_EQ(back.at(i).comp_factor, base.at(i).comp_factor);
  }
}

TEST(WorkloadIo, DefaultsFactorsToOne) {
  const Workload w = core::parse_workload("0.5\n1.5\n");
  ASSERT_EQ(w.size(), 2);
  EXPECT_DOUBLE_EQ(w.at(0).comm_factor, 1.0);
  EXPECT_DOUBLE_EQ(w.at(1).release, 1.5);
}

TEST(WorkloadIo, IgnoresCommentsAndRejectsGarbage) {
  EXPECT_EQ(core::parse_workload("# empty\n\n").size(), 0);
  EXPECT_THROW(core::parse_workload("1.0 2.0\n"), std::invalid_argument);
  EXPECT_THROW(core::parse_workload("1 1 1 surplus\n"), std::invalid_argument);
  EXPECT_THROW(core::parse_workload("-1\n"), std::invalid_argument);
  // A line that does not parse is an error, not a blank line.
  EXPECT_THROW(core::parse_workload("0.0\nabc\n1.0\n"), std::invalid_argument);
  EXPECT_THROW(core::parse_workload("0.0 1 1x\n"), std::invalid_argument);
  try {
    core::parse_workload("1.0\n0.0 zz\n");
    FAIL() << "a non-numeric field must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("'zz'"), std::string::npos)
        << error.what();
  }
  // Whitespace-only lines (after the comment is stripped) stay blank.
  EXPECT_EQ(core::parse_workload(" \t\n0.5 # c\n  # x\n").size(), 1);
}

}  // namespace
}  // namespace msol
