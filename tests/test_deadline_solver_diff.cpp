// Differential sweep: the production SLJF/SLJFWC planners
// (offline/deadline_solver.cpp) must reproduce the frozen reference
// planners (tests/support/deadline_solver_reference.cpp) bit for bit — the
// same assignment vector and the same makespan double — on every instance.
// The plans are pinned end to end by the sljf_*/sljfwc_* goldens and the
// fig1_sweep CSV, so "close" is not good enough.
//
// Sweep: the four platform classes plus two hand-built tie platforms
// (fully homogeneous; equal p_j with distinct links, where the deadline
// chains tie level by level) x m in {1, 2, 3, 5, 16} x n in
// {1, 2, 37, 250, 1000} x five release patterns. Setting
// MSOL_DIFF_SCALE=small (sanitizer CI legs) caps n at 100.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/workload.hpp"
#include "experiments/campaign.hpp"
#include "offline/deadline_solver.hpp"
#include "platform/generator.hpp"
#include "support/deadline_solver_reference.hpp"
#include "util/rng.hpp"

namespace msol::offline {
namespace {

using core::Time;
using platform::Platform;
using platform::PlatformClass;
using platform::SlaveSpec;

constexpr int kSlaveCounts[] = {1, 2, 3, 5, 16};
constexpr int kTaskCounts[] = {1, 2, 37, 250, 1000};

enum class ReleaseKind { kAllZero, kAllEqual, kStaggered, kDuplicated, kPoisson };
constexpr ReleaseKind kReleaseKinds[] = {
    ReleaseKind::kAllZero, ReleaseKind::kAllEqual, ReleaseKind::kStaggered,
    ReleaseKind::kDuplicated, ReleaseKind::kPoisson};

const char* to_string(ReleaseKind kind) {
  switch (kind) {
    case ReleaseKind::kAllZero: return "all-zero";
    case ReleaseKind::kAllEqual: return "all-equal";
    case ReleaseKind::kStaggered: return "staggered";
    case ReleaseKind::kDuplicated: return "duplicated";
    case ReleaseKind::kPoisson: return "poisson";
  }
  return "?";
}

int scaled_tasks(int n) {
  const char* env = std::getenv("MSOL_DIFF_SCALE");
  const bool small = env != nullptr && std::string(env) == "small";
  return small && n > 100 ? 100 : n;
}

/// Platform sources: the generator's four classes, then two hand-built
/// platforms whose chain deadlines tie exactly.
constexpr int kSources = 6;

Platform make_platform(int source, int m, util::Rng& rng) {
  static constexpr PlatformClass kClasses[] = {
      PlatformClass::kFullyHomogeneous, PlatformClass::kCommHomogeneous,
      PlatformClass::kCompHomogeneous, PlatformClass::kFullyHeterogeneous};
  if (source < 4) {
    return platform::PlatformGenerator().generate(kClasses[source], m, rng);
  }
  if (source == 4) return Platform::homogeneous(m, 0.3, 1.7);
  std::vector<SlaveSpec> slaves;
  for (int j = 0; j < m; ++j) {
    slaves.push_back(SlaveSpec{0.05 + 0.11 * static_cast<Time>(j), 2.3});
  }
  return Platform(std::move(slaves));
}

std::string source_name(int source) {
  static const char* kNames[] = {"fully-homogeneous", "comm-homogeneous",
                                 "comp-homogeneous",  "fully-heterogeneous",
                                 "tie-homogeneous",   "tie-comp-homogeneous"};
  return kNames[source];
}

std::vector<Time> make_releases(ReleaseKind kind, int n,
                                const Platform& plat, util::Rng& rng) {
  std::vector<Time> releases;
  releases.reserve(static_cast<std::size_t>(n));
  const Time mean_c = 0.5 * (plat.min_comm() + plat.max_comm());
  switch (kind) {
    case ReleaseKind::kAllZero:
      releases.assign(static_cast<std::size_t>(n), 0.0);
      break;
    case ReleaseKind::kAllEqual:
      // What the on-line wrapper plans with: the batch at "now" > 0.
      releases.assign(static_cast<std::size_t>(n), 37.613 + rng.uniform(0, 1));
      break;
    case ReleaseKind::kStaggered: {
      Time t = rng.uniform(0.0, 5.0);
      for (int i = 0; i < n; ++i) {
        releases.push_back(t);
        t += rng.uniform(0.0, 2.0 * mean_c);
      }
      break;
    }
    case ReleaseKind::kDuplicated: {
      Time t = 0.0;
      while (static_cast<int>(releases.size()) < n) {
        const auto block = rng.uniform_int(1, 6);
        for (std::int64_t k = 0; k < block && static_cast<int>(releases.size()) < n;
             ++k) {
          releases.push_back(t);
        }
        t += rng.uniform(0.0, 4.0 * mean_c);
      }
      break;
    }
    case ReleaseKind::kPoisson: {
      const core::Workload work = core::Workload::poisson(
          n, 0.9 * experiments::max_throughput(plat), rng);
      for (int i = 0; i < n; ++i) releases.push_back(work.at(i).release);
      break;
    }
  }
  return releases;
}

::testing::AssertionResult plans_identical(const OfflinePlan& got,
                                           const OfflinePlan& want) {
  if (got.assignment != want.assignment) {
    std::size_t i = 0;
    while (i < got.assignment.size() && i < want.assignment.size() &&
           got.assignment[i] == want.assignment[i]) {
      ++i;
    }
    return ::testing::AssertionFailure()
           << "assignment differs at send " << i << " (sizes "
           << got.assignment.size() << " vs " << want.assignment.size() << ")";
  }
  if (std::memcmp(&got.makespan, &want.makespan, sizeof(Time)) != 0) {
    return ::testing::AssertionFailure()
           << "makespan bits differ: " << got.makespan << " vs "
           << want.makespan;
  }
  return ::testing::AssertionSuccess();
}

class PlannerDiff
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlannerDiff, MatchesFrozenReferenceBitForBit) {
  const int source = std::get<0>(GetParam());
  const int m = std::get<1>(GetParam());
  int instances = 0;
  for (int n_full : kTaskCounts) {
    const int n = scaled_tasks(n_full);
    for (ReleaseKind kind : kReleaseKinds) {
      const std::uint64_t seed =
          util::Rng::mix(static_cast<std::uint64_t>(
              ((source * 100 + m) * 10000 + n_full) * 10 +
              static_cast<int>(kind)));
      util::Rng rng(seed);
      const Platform plat = make_platform(source, m, rng);
      const std::vector<Time> releases = make_releases(kind, n, plat, rng);
      const std::string label = source_name(source) + " m=" +
                                std::to_string(m) + " n=" + std::to_string(n) +
                                " releases=" + to_string(kind) +
                                " seed=" + std::to_string(seed);
      EXPECT_TRUE(plans_identical(sljf_plan(plat, releases),
                                  sljf_plan_reference(plat, releases)))
          << "SLJF " << label;
      EXPECT_TRUE(plans_identical(sljfwc_plan(plat, releases),
                                  sljfwc_plan_reference(plat, releases)))
          << "SLJFWC " << label;
      ++instances;
    }
  }
  EXPECT_EQ(instances, 25);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerDiff,
    ::testing::Combine(::testing::Range(0, kSources),
                       ::testing::ValuesIn(kSlaveCounts)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::string name = source_name(std::get<0>(info.param)) + "_m" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace msol::offline
