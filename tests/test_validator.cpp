#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/validator.hpp"
#include "platform/platform.hpp"

namespace msol::core {
namespace {

using platform::Platform;
using platform::SlaveSpec;

Platform plat() {
  return Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{2.0, 5.0}});
}

/// A correct two-task schedule used as the baseline to perturb.
Schedule good_schedule() {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 1.0, 3.0, 3.0, 8.0});
  return s;
}

TEST(Validator, AcceptsFeasibleSchedule) {
  EXPECT_TRUE(validate(plat(), Workload::all_at_zero(2), good_schedule())
                  .empty());
}

TEST(Validator, DetectsMissingTask) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  const auto v = validate(plat(), Workload::all_at_zero(2), s);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("never scheduled"), std::string::npos);
}

TEST(Validator, DetectsDuplicateTask) {
  Schedule s = good_schedule();
  s.add(TaskRecord{0, 1, 0.0, 3.0, 5.0, 8.0, 13.0});
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(2), s)) {
    if (msg.find("scheduled 2 times") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsSendBeforeRelease) {
  Schedule s = good_schedule();
  const auto v = validate(plat(), Workload::from_releases({0.5, 0.6}), s);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("before release"), std::string::npos);
}

TEST(Validator, DetectsWrongSendDuration) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 0.5, 0.5, 3.5});  // c_0 is 1.0, not 0.5
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(1), s)) {
    if (msg.find("send duration") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsComputeBeforeArrival) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 0.5, 3.5});
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(1), s)) {
    if (msg.find("before arrival") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsWrongComputeDuration) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 3.0});  // p_0 is 3.0 => end 4.0
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(1), s)) {
    if (msg.find("compute duration") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsOnePortViolation) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 0.5, 2.5, 2.5, 7.5});  // overlaps [0.5, 1.0)
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(2), s)) {
    if (msg.find("one-port violation") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, OverlapAllowedWithCapacityTwo) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 0.0, 2.0, 2.0, 7.0});
  EXPECT_FALSE(
      validate(plat(), Workload::all_at_zero(2), s, /*port_capacity=*/1)
          .empty());
  EXPECT_TRUE(
      validate(plat(), Workload::all_at_zero(2), s, /*port_capacity=*/2)
          .empty());
}

TEST(Validator, BackToBackSendsAreLegal) {
  // send_end == next send_start must not count as overlap.
  EXPECT_TRUE(validate(plat(), Workload::all_at_zero(2), good_schedule())
                  .empty());
}

TEST(Validator, BackToBackWithinTimeEpsEitherWayIsLegal) {
  // The second send starts a hair before or after the first one ends.
  for (const Time delta : {0.5 * kTimeEps, -0.5 * kTimeEps}) {
    Schedule s;
    s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
    s.add(TaskRecord{1, 1, 0.0, 1.0 + delta, 3.0 + delta, 3.0 + delta,
                     8.0 + delta});
    EXPECT_TRUE(validate(plat(), Workload::all_at_zero(2), s).empty())
        << "delta " << delta;
  }
}

TEST(Validator, OverlapBeyondTimeEpsIsRejected) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 1.0 - 3.0 * kTimeEps, 3.0 - 3.0 * kTimeEps,
                   3.0 - 3.0 * kTimeEps, 8.0 - 3.0 * kTimeEps});
  const auto v = validate(plat(), Workload::all_at_zero(2), s);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("one-port violation: 2 sends in flight"),
            std::string::npos)
      << v[0];
}

TEST(Validator, ChainsOfEventsCloserThanTimeEpsAreSweptExactly) {
  // Neighbouring events 0.6 * kTimeEps apart are within tolerance of each
  // other, but every third one is not: an eps-tolerant sort comparator is
  // no strict weak ordering here. Wave 1 is n sends started in a chain;
  // wave 2 restarts each of their slots back to back in a second chain.
  const int n = 40;
  const Time step = 0.6 * kTimeEps;
  std::vector<SlaveSpec> specs(2 * n, SlaveSpec{1.0, 1.0});
  const Platform p(specs);
  Schedule wave1;
  Schedule both;
  for (int i = 0; i < n; ++i) {
    const Time t = i * step;
    const TaskRecord r{i, i, 0.0, t, 1.0 + t, 1.0 + t, 2.0 + t};
    wave1.add(r);
    both.add(r);
  }
  for (int i = 0; i < n; ++i) {
    const Time t = 1.0 + i * step;
    both.add(TaskRecord{n + i, n + i, 0.0, t, 1.0 + t, 1.0 + t, 2.0 + t});
  }
  EXPECT_TRUE(validate(p, Workload::all_at_zero(n), wave1, n).empty());
  const auto v = validate(p, Workload::all_at_zero(n), wave1, n - 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("40 sends in flight"), std::string::npos) << v[0];
  EXPECT_TRUE(validate(p, Workload::all_at_zero(2 * n), both, n).empty());
}

TEST(Validator, ReportsComputeOverlapsInAscendingSlaveOrder) {
  // Slave 1's overlap comes first in record order; the report is by slave.
  Schedule s;
  s.add(TaskRecord{0, 1, 0.0, 0.0, 2.0, 2.0, 7.0});
  s.add(TaskRecord{1, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{2, 1, 0.0, 0.0, 2.0, 3.0, 8.0});  // slave 1 busy 2..7
  s.add(TaskRecord{3, 0, 0.0, 0.0, 1.0, 2.0, 5.0});  // slave 0 busy 1..4
  const std::vector<std::string> expected = {
      "slave 0 computes two tasks at once around t=2",
      "slave 1 computes two tasks at once around t=3"};
  EXPECT_EQ(validate(plat(), Workload::all_at_zero(4), s, /*port_capacity=*/4),
            expected);
}

TEST(Validator, DetectsSlaveComputeOverlap) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 0, 0.0, 1.0, 2.0, 2.0, 5.0});  // slave 0 busy 1..4
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(2), s)) {
    if (msg.find("computes two tasks at once") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsUnknownIds) {
  Schedule s;
  s.add(TaskRecord{5, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{0, 9, 0.0, 1.0, 2.0, 2.0, 5.0});
  const auto v = validate(plat(), Workload::all_at_zero(1), s);
  bool unknown_task = false, unknown_slave = false;
  for (const auto& msg : v) {
    if (msg.find("unknown task") != std::string::npos) unknown_task = true;
    if (msg.find("unknown slave") != std::string::npos) unknown_slave = true;
  }
  EXPECT_TRUE(unknown_task);
  EXPECT_TRUE(unknown_slave);
}

TEST(Validator, ValidateOrThrowListsViolations) {
  Schedule s;
  EXPECT_THROW(validate_or_throw(plat(), Workload::all_at_zero(1), s),
               std::logic_error);
  EXPECT_NO_THROW(
      validate_or_throw(plat(), Workload::all_at_zero(2), good_schedule()));
}

TEST(Validator, RespectsTaskSizeFactors) {
  Workload w({TaskSpec{0.0, 2.0, 0.5}});
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 2.0, 2.0, 3.5});  // c=1*2, p=3*0.5
  EXPECT_TRUE(validate(plat(), w, s).empty());
}

}  // namespace
}  // namespace msol::core
