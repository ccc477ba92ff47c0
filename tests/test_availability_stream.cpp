// AvailabilityCursor, the engine's one view of a slave's timeline: under
// either backing (a lazy per-slave stream, or a materialized profile read
// in place) it must be indistinguishable from AvailabilityProfile's
// whole-timeline queries on the same realization — same span stream, same
// next_offline_after answers, same run_work arithmetic. The engine-level
// half runs identical scenarios with EngineOptions::availability
// (materialized via generate_availability_forked) vs
// EngineOptions::lazy_availability and requires bit-identical schedules
// and traces, and checks that the validator judges lazy runs against their
// realization.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "platform/availability.hpp"
#include "platform/availability_stream.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::platform {
namespace {

LazyAvailabilitySpec make_spec(AvailabilityModel model, std::uint64_t seed,
                               double mtbf = 10.0, double frac = 0.2,
                               core::Time horizon = 200.0) {
  LazyAvailabilitySpec spec;
  spec.model = model;
  spec.mtbf = mtbf;
  spec.outage_frac = frac;
  spec.horizon = horizon;
  spec.seed = seed;
  return spec;
}

const AvailabilityModel kModels[] = {AvailabilityModel::kRareOutage,
                                     AvailabilityModel::kChurn,
                                     AvailabilityModel::kDrift};

// ----------------------------------------------------- cursor vs profile ----

TEST(AvailabilityCursor, DefaultConstructedIsTrivial) {
  AvailabilityCursor cursor;
  EXPECT_TRUE(cursor.trivial());
  EXPECT_TRUE(std::isinf(cursor.next_begin()));
  EXPECT_FALSE(cursor.next_offline_after(0.0).has_value());
  const auto run = cursor.run_work(3.0, 2.0, 100.0);
  EXPECT_TRUE(run.completed);
  EXPECT_DOUBLE_EQ(run.end, 5.0);
}

// Drives `cursor` with the engine's access pattern — monotone queries
// interleaved with advance() as time passes each span — and requires its
// next_offline_after/run_work answers, and the span stream it walks, to
// equal `profile`'s whole-timeline implementations.
void expect_matches_profile(AvailabilityCursor cursor,
                            const AvailabilityProfile& profile,
                            core::Time horizon, double max_step,
                            std::uint64_t query_seed,
                            const std::string& label) {
  ASSERT_EQ(cursor.trivial(), profile.trivial()) << label;
  util::Rng query_rng(query_seed);
  std::vector<AvailabilitySpan> walked;
  core::Time now = 0.0;
  while (now < horizon * 1.2) {
    // Apply every span whose time has come, exactly like
    // process_avail_transitions does.
    while (cursor.next_begin() <= now) walked.push_back(cursor.advance());
    const auto cursor_off = cursor.next_offline_after(now);
    const auto profile_off = profile.next_offline_after(now);
    ASSERT_EQ(cursor_off.has_value(), profile_off.has_value())
        << label << " at t=" << now;
    if (cursor_off.has_value()) {
      ASSERT_EQ(*cursor_off, *profile_off) << label << " at t=" << now;
    }

    const double work = query_rng.uniform(0.1, 5.0);
    const core::Time until = now + query_rng.uniform(0.5, 30.0);
    const auto cw = cursor.run_work(now, work, until);
    const auto pw = profile.run_work(now, work, until);
    ASSERT_EQ(cw.completed, pw.completed) << label << " at t=" << now;
    ASSERT_EQ(cw.end, pw.end) << label << " at t=" << now;
    ASSERT_EQ(cw.work_done, pw.work_done) << label << " at t=" << now;

    now += query_rng.uniform(0.25, max_step);
  }
  while (std::isfinite(cursor.next_begin())) {
    walked.push_back(cursor.advance());
  }
  const std::vector<AvailabilitySpan>& spans = profile.spans();
  ASSERT_EQ(walked.size(), spans.size()) << label;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(walked[i].begin, spans[i].begin) << label << " span " << i;
    EXPECT_EQ(walked[i].online, spans[i].online) << label << " span " << i;
    EXPECT_EQ(walked[i].speed, spans[i].speed) << label << " span " << i;
  }
}

// Both backings against the profile oracle: lazy streams and profile
// cursors over their forked realizations, profile cursors over
// generate_availability's shared-stream profiles, and hand-built edge
// profiles.
TEST(AvailabilityCursor, QueriesMatchMaterializedProfileUnderEngineDiscipline) {
  const int slaves = 3;
  for (const AvailabilityModel model : kModels) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
      const LazyAvailabilitySpec spec = make_spec(model, seed);
      const std::vector<AvailabilityProfile> forked =
          generate_availability_forked(spec, slaves);
      util::Rng shared_rng(seed);
      const std::vector<AvailabilityProfile> shared = generate_availability(
          model, slaves, spec.mtbf, spec.outage_frac, spec.horizon,
          shared_rng);
      for (int j = 0; j < slaves; ++j) {
        const std::string label = "model " + to_string(model) + " seed " +
                                  std::to_string(seed) + " slave " +
                                  std::to_string(j);
        const std::uint64_t query_seed =
            seed * 31 + static_cast<std::uint64_t>(j);
        expect_matches_profile(AvailabilityCursor(spec, j), forked[j],
                               spec.horizon, 8.0, query_seed,
                               "lazy " + label);
        expect_matches_profile(AvailabilityCursor(forked[j]), forked[j],
                               spec.horizon, 8.0, query_seed,
                               "forked profile " + label);
        expect_matches_profile(AvailabilityCursor(shared[j]), shared[j],
                               spec.horizon, 8.0, query_seed,
                               "shared profile " + label);
      }
    }
  }

  const std::pair<const char*, AvailabilityProfile> edges[] = {
      {"empty", AvailabilityProfile()},
      {"offline at t=0",
       AvailabilityProfile({{0.0, false, 1.0}, {3.0, true, 0.8},
                            {6.5, false, 0.8}, {7.0, true, 1.2}})},
      {"drift only",
       AvailabilityProfile({{0.5, true, 0.6}, {2.0, true, 1.4},
                            {2.25, true, 0.9}, {9.0, true, 1.1}})},
      {"single speed span", AvailabilityProfile({{4.0, true, 0.7}})},
      {"single offline span", AvailabilityProfile({{4.0, false, 1.0}})},
  };
  for (const auto& [name, profile] : edges) {
    for (std::uint64_t seed : {2ULL, 5ULL, 11ULL}) {
      expect_matches_profile(AvailabilityCursor(profile), profile, 12.0, 1.5,
                             seed,
                             std::string(name) + " seed " +
                                 std::to_string(seed));
    }
  }
}

TEST(AvailabilityCursor, StreamsAreIndependentPerSlave) {
  // Slave j's realization is a function of (seed, j) only: generating 2 or
  // 20 slaves must not change slave 1's spans. (generate_availability's
  // shared stream deliberately lacks this property — it is why the lazy
  // path forks.)
  const LazyAvailabilitySpec spec = make_spec(AvailabilityModel::kChurn, 99);
  const auto few = generate_availability_forked(spec, 2);
  const auto many = generate_availability_forked(spec, 20);
  for (int j = 0; j < 2; ++j) {
    const auto& a = few[j].spans();
    const auto& b = many[j].spans();
    ASSERT_EQ(a.size(), b.size()) << "slave " << j;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].begin, b[i].begin);
      EXPECT_EQ(a[i].online, b[i].online);
      EXPECT_EQ(a[i].speed, b[i].speed);
    }
  }
}

TEST(AvailabilityStream, ValidateRejectsTheGeneratorsBadKnobs) {
  EXPECT_NO_THROW(validate(make_spec(AvailabilityModel::kChurn, 1)));
  // kAlways is inert: knobs are not even inspected.
  EXPECT_NO_THROW(
      validate(make_spec(AvailabilityModel::kAlways, 1, -1.0, 5.0, -1.0)));
  EXPECT_THROW(validate(make_spec(AvailabilityModel::kChurn, 1, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(
      validate(make_spec(AvailabilityModel::kChurn, 1, 10.0, 0.95)),
      std::invalid_argument);
  EXPECT_THROW(
      validate(make_spec(AvailabilityModel::kChurn, 1, 10.0, 0.2, 0.0)),
      std::invalid_argument);
}

// ------------------------------------------------------- engine identity ----

void expect_identical_runs(const core::OnePortEngine& actual,
                           const core::OnePortEngine& expected,
                           const std::string& label) {
  const core::Schedule& a = actual.schedule();
  const core::Schedule& e = expected.schedule();
  ASSERT_EQ(a.size(), e.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const core::TaskRecord& ra = a.at(i);
    const core::TaskRecord& re = e.at(i);
    ASSERT_EQ(ra.task, re.task) << label << " record " << i;
    ASSERT_EQ(ra.slave, re.slave) << label << " record " << i;
    ASSERT_EQ(ra.send_start, re.send_start) << label << " record " << i;
    ASSERT_EQ(ra.send_end, re.send_end) << label << " record " << i;
    ASSERT_EQ(ra.comp_start, re.comp_start) << label << " record " << i;
    ASSERT_EQ(ra.comp_end, re.comp_end) << label << " record " << i;
  }
  const auto& ta = actual.trace().events();
  const auto& te = expected.trace().events();
  ASSERT_EQ(ta.size(), te.size()) << label;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].kind, te[i].kind) << label << " event " << i;
    ASSERT_EQ(ta[i].time, te[i].time) << label << " event " << i;
    ASSERT_EQ(ta[i].task, te[i].task) << label << " event " << i;
    ASSERT_EQ(ta[i].slave, te[i].slave) << label << " event " << i;
    ASSERT_EQ(ta[i].aux, te[i].aux) << label << " event " << i;
  }
}

TEST(AvailabilityStreamEngine, LazyIsBitIdenticalToMaterialized) {
  for (const AvailabilityModel model : kModels) {
    for (std::uint64_t seed : {3ULL, 17ULL, 2024ULL}) {
      for (const char* policy : {"LS", "SRPT", "RR"}) {
        const std::string label = "model " + to_string(model) + " seed " +
                                  std::to_string(seed) + " " + policy;
        util::Rng rng(seed);
        const int m = static_cast<int>(rng.uniform_int(2, 6));
        const platform::Platform plat =
            platform::PlatformGenerator().generate(
                PlatformClass::kFullyHeterogeneous, m, rng);
        const double rate = 0.9 * experiments::max_throughput(plat);
        const core::Workload work = core::Workload::poisson(60, rate, rng);
        const LazyAvailabilitySpec spec =
            make_spec(model, seed * 1000 + 1, 8.0 / rate, 0.25, 90.0 / rate);

        core::EngineOptions materialized;
        materialized.enable_trace = true;
        materialized.availability = generate_availability_forked(spec, m);

        core::EngineOptions lazy;
        lazy.enable_trace = true;
        lazy.lazy_availability = spec;

        const auto policy_e = algorithms::make_scheduler(policy);
        core::OnePortEngine expected(plat, *policy_e, materialized);
        expected.load(work);
        expected.run_to_completion();

        const auto policy_a = algorithms::make_scheduler(policy);
        core::OnePortEngine actual(plat, *policy_a, lazy);
        actual.load(work);
        actual.run_to_completion();

        expect_identical_runs(actual, expected, label);
        EXPECT_EQ(actual.disruption().redispatches,
                  expected.disruption().redispatches)
            << label;
        EXPECT_EQ(actual.disruption().lost_work,
                  expected.disruption().lost_work)
            << label;
      }
    }
  }
}

TEST(AvailabilityStreamEngine, LazyAlwaysModelIsTheClosedFormPath) {
  // An inert lazy spec must behave exactly like no availability at all.
  util::Rng rng(5);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      PlatformClass::kFullyHeterogeneous, 3, rng);
  const core::Workload work = core::Workload::all_at_zero(20);

  core::EngineOptions plain;
  plain.enable_trace = true;
  core::EngineOptions lazy = plain;
  lazy.lazy_availability = make_spec(AvailabilityModel::kAlways, 1);

  const auto policy_e = algorithms::make_scheduler("LS");
  core::OnePortEngine expected(plat, *policy_e, plain);
  expected.load(work);
  expected.run_to_completion();

  const auto policy_a = algorithms::make_scheduler("LS");
  core::OnePortEngine actual(plat, *policy_a, lazy);
  actual.load(work);
  actual.run_to_completion();
  expect_identical_runs(actual, expected, "lazy kAlways");
}

TEST(AvailabilityStreamEngine, MaterializedAndLazyAreMutuallyExclusive) {
  util::Rng rng(6);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      PlatformClass::kFullyHomogeneous, 2, rng);
  core::EngineOptions options;
  options.availability.assign(2, AvailabilityProfile{});
  options.lazy_availability = make_spec(AvailabilityModel::kChurn, 9);
  const auto policy = algorithms::make_scheduler("LS");
  EXPECT_THROW(core::OnePortEngine(plat, *policy, options),
               std::invalid_argument);
}

// The validator must judge a lazy run against the realization the engine
// drew — stream lazy_stream_ids[j] for slave j — not as a static platform.
struct LazyRun {
  platform::Platform plat;
  core::Workload work;
  core::EngineOptions options;
  core::Schedule schedule;
};

LazyRun run_lazy(AvailabilityModel model, std::vector<core::SlaveId> ids) {
  util::Rng rng(3);
  LazyRun run{platform::PlatformGenerator().generate(
                  PlatformClass::kFullyHeterogeneous, 5, rng),
              {}, {}, {}};
  const double rate = 0.9 * experiments::max_throughput(run.plat);
  run.work = core::Workload::poisson(300, rate, rng);
  run.options.lazy_availability = make_spec(model, 3, 20.0, 0.2, 2000.0);
  run.options.lazy_stream_ids = std::move(ids);
  const auto policy = algorithms::make_scheduler("LS");
  core::OnePortEngine engine(run.plat, *policy, run.options);
  engine.load(run.work);
  engine.run_to_completion();
  run.schedule = engine.take_schedule();
  return run;
}

bool mentions(const std::vector<std::string>& violations, const char* word) {
  for (const std::string& v : violations) {
    if (v.find(word) != std::string::npos) return true;
  }
  return false;
}

TEST(AvailabilityStreamValidator, LazyRunsValidateAgainstTheirStreams) {
  const std::pair<AvailabilityModel, std::vector<core::SlaveId>> cases[] = {
      {AvailabilityModel::kDrift, {}},
      {AvailabilityModel::kDrift, {9, 4, 12, 0, 7}},  // shard-style re-keying
      {AvailabilityModel::kChurn, {}},
  };
  for (const auto& [model, ids] : cases) {
    const std::string label =
        to_string(model) + (ids.empty() ? " identity" : " re-keyed");
    const LazyRun run = run_lazy(model, ids);
    const auto violations =
        core::validate(run.plat, run.work, run.schedule, run.options);
    EXPECT_TRUE(violations.empty())
        << label << ": " << violations.size() << " violations, first: "
        << violations.front();
    if (!ids.empty()) {
      // The same schedule checked against identity keying sees other speeds.
      core::EngineOptions identity = run.options;
      identity.lazy_stream_ids.clear();
      EXPECT_TRUE(mentions(
          core::validate(run.plat, run.work, run.schedule, identity), "work"))
          << label;
    }
  }
}

TEST(AvailabilityStreamValidator, LazyChurnRunIsCheckedForOfflineCompute) {
  // Shift one record, durations intact, into an outage of its slave: the
  // offline-compute check must run under lazy churn and catch it.
  const LazyRun run = run_lazy(AvailabilityModel::kChurn, {});
  std::vector<core::TaskRecord> records = run.schedule.records();
  core::TaskRecord& r = records.front();
  const std::optional<core::Time> down =
      generate_availability_forked(run.options.lazy_availability,
                                   run.plat.size())[r.slave]
          .next_offline_after(r.comp_start);
  ASSERT_TRUE(down.has_value());
  const core::Time delta = *down + 1e-3 - r.comp_start;
  r.send_start += delta;
  r.send_end += delta;
  r.comp_start += delta;
  r.comp_end += delta;
  core::Schedule tampered;
  for (const core::TaskRecord& record : records) tampered.add(record);
  EXPECT_TRUE(mentions(
      core::validate(run.plat, run.work, tampered, run.options), "offline"));
}

}  // namespace
}  // namespace msol::platform
