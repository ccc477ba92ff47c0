// Differential fuzz: the event-driven OnePortEngine must be
// *bit-identical* to the frozen ReferenceEngine — same schedule records,
// same makespan, same trace event sequence — across randomized platforms,
// workloads (including the inhomogeneous-Poisson and heavy-tail mixes),
// every scheduler in the registry, port capacities and slowdown windows.
// 500+ cases run as sharded gtest params so a failure pinpoints its seed.
//
// Half of the OnePortEngine runs go through a *reused* engine (reset()
// between cases) instead of a fresh one, so incomplete state clearing in
// reset() shows up as a cross-case divergence here.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "support/reference_engine.hpp"
#include "core/sharded_engine.hpp"
#include "experiments/campaign.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

constexpr int kShards = 25;
constexpr int kCasesPerShard = 20;  // 25 x 20 = 500 base cases

/// Legal-but-chaotic policy: random assignments from arbitrary pending
/// positions, plus bounded WaitUntil stalls. Among registry schedulers only
/// specs with a `gate:pace` component return WaitUntil, and the registry
/// rotation below carries none, so without this policy the engine's
/// single live-wake slot (a newer request replaces it, an assignment
/// clears it) would sit outside the randomized differential proof. The
/// directed WaitUntil cases further down cover the requests it never
/// emits: ones at or before now() + kTimeEps.
class ChaoticPolicy : public OnlineScheduler {
 public:
  explicit ChaoticPolicy(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "CHAOS"; }

  Decision decide(const EngineView& engine) override {
    const int roll = static_cast<int>(rng_.uniform_int(0, 9));
    if (roll <= 2) {
      // Strictly-future wake-ups only (a past request degrades to a plain
      // Defer, which can legitimately deadlock a quiet system); successive
      // requests supersede each other and assignments cancel them.
      return WaitUntil{engine.now() + rng_.uniform(0.01, 0.5)};
    }
    const std::vector<TaskId> pending = engine.pending_tasks();
    const std::size_t pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
    const SlaveId slave = static_cast<SlaveId>(
        rng_.uniform_int(0, engine.platform().size() - 1));
    return Assign{pending[pick], slave};
  }

 private:
  util::Rng rng_;
};

const std::vector<std::string>& fuzz_schedulers() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all = algorithms::extended_algorithm_names();
    all.push_back("RLS");
    all.push_back("LS-K2");
    all.push_back("CHAOS");
    all.push_back("CHAOS");  // twice the rotation weight: it alone covers
                             // WaitUntil and non-front commits
    return all;
  }();
  return names;
}

std::unique_ptr<OnlineScheduler> make_policy(const std::string& name,
                                             int lookahead,
                                             std::uint64_t seed) {
  if (name == "CHAOS") return std::make_unique<ChaoticPolicy>(seed);
  return algorithms::make_scheduler(name, lookahead, seed);
}

struct Scenario {
  platform::Platform platform;
  Workload workload;
  EngineOptions options;
  std::string scheduler;
  int lookahead = 20;
};

Scenario make_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  const int m = static_cast<int>(rng.uniform_int(1, 8));
  const platform::PlatformClass classes[] = {
      platform::PlatformClass::kFullyHomogeneous,
      platform::PlatformClass::kCommHomogeneous,
      platform::PlatformClass::kCompHomogeneous,
      platform::PlatformClass::kFullyHeterogeneous};
  platform::Platform plat = platform::PlatformGenerator().generate(
      classes[rng.uniform_int(0, 3)], m, rng);

  const int n = static_cast<int>(rng.uniform_int(1, 60));
  Workload work = Workload::all_at_zero(n);
  switch (rng.uniform_int(0, 4)) {
    case 0: break;  // all at zero
    case 1: work = Workload::poisson(n, rng.uniform(0.5, 4.0), rng); break;
    case 2: work = Workload::uniform(n, rng.uniform(1.0, 20.0), rng); break;
    case 3:
      work = Workload::bursty(n, static_cast<int>(rng.uniform_int(1, 8)),
                              rng.uniform(0.5, 4.0), rng);
      break;
    case 4:
      work = Workload::inhomogeneous_poisson(n, rng.uniform(0.5, 4.0),
                                             rng.uniform(0.0, 1.0),
                                             rng.uniform(2.0, 20.0), rng);
      break;
  }
  switch (rng.uniform_int(0, 3)) {
    case 0: break;  // unit sizes
    case 1: work = work.with_size_jitter(0.3, rng); break;
    case 2: work = work.with_pareto_sizes(1.5, 20.0, rng); break;
    case 3: work = work.with_lognormal_noise(0.4, 0.4, rng); break;
  }

  EngineOptions options;
  options.enable_trace = true;
  options.port_capacity = static_cast<int>(rng.uniform_int(0, 3));
  const int windows = static_cast<int>(rng.uniform_int(0, 2));
  for (int w = 0; w < windows; ++w) {
    const Time begin = rng.uniform(0.0, 10.0);
    options.slowdowns.push_back(SlowdownWindow{
        static_cast<SlaveId>(rng.uniform_int(0, m - 1)), begin,
        begin + rng.uniform(0.5, 20.0), rng.uniform(1.0, 4.0)});
  }
  // A third of the cases carry trivial (all-empty) availability profiles:
  // "availability disabled" must mean *disabled* — same closed-form path,
  // bit-identical to the reference — not merely "no outages happen to
  // fire". Derived from the seed, not the rng, so the other draws above
  // stay exactly what they were before this option existed.
  if (seed % 3 == 0) {
    options.availability.assign(static_cast<std::size_t>(m),
                                platform::AvailabilityProfile{});
  }

  const auto& names = fuzz_schedulers();
  Scenario scenario{std::move(plat), std::move(work), std::move(options),
                    names[seed % names.size()],
                    static_cast<int>(rng.uniform_int(0, 40))};
  return scenario;
}

void expect_identical(const EngineView& actual, const EngineView& expected,
                      const std::string& label) {
  const Schedule& a = actual.schedule();
  const Schedule& e = expected.schedule();
  ASSERT_EQ(a.size(), e.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const TaskRecord& ra = a.at(i);
    const TaskRecord& re = e.at(i);
    ASSERT_EQ(ra.task, re.task) << label << " record " << i;
    ASSERT_EQ(ra.slave, re.slave) << label << " record " << i;
    // Deliberately exact: both engines must execute the same arithmetic in
    // the same order, not merely land within an epsilon.
    ASSERT_EQ(ra.release, re.release) << label << " record " << i;
    ASSERT_EQ(ra.send_start, re.send_start) << label << " record " << i;
    ASSERT_EQ(ra.send_end, re.send_end) << label << " record " << i;
    ASSERT_EQ(ra.comp_start, re.comp_start) << label << " record " << i;
    ASSERT_EQ(ra.comp_end, re.comp_end) << label << " record " << i;
  }
  ASSERT_EQ(a.makespan(), e.makespan()) << label;
  ASSERT_EQ(actual.now(), expected.now()) << label;

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

class EngineDiff : public ::testing::TestWithParam<int> {};

TEST_P(EngineDiff, OnePortEngineMatchesReferenceBitExactly) {
  // A single reused engine across all of this shard's cases: a case with
  // fewer slaves/tasks than its predecessor would expose stale state.
  OnePortEngine reused;

  for (int c = 0; c < kCasesPerShard; ++c) {
    const std::uint64_t seed =
        1000003ULL * static_cast<std::uint64_t>(GetParam()) +
        static_cast<std::uint64_t>(c);
    const Scenario scenario = make_scenario(seed);
    const std::string label = "seed " + std::to_string(seed) + " (" +
                              scenario.scheduler + ")";

    // Two instances of the same policy with identical configuration: the
    // randomized ones (RANDOM, RLS) draw the same stream iff the engines
    // consult them at the same instants in the same order.
    const auto policy_a =
        make_policy(scenario.scheduler, scenario.lookahead, 99);
    const auto policy_e =
        make_policy(scenario.scheduler, scenario.lookahead, 99);

    ReferenceEngine expected(scenario.platform, *policy_e, scenario.options);
    expected.load(scenario.workload);
    expected.run_to_completion();

    if (c % 2 == 0) {
      reused.reset(scenario.platform, *policy_a, scenario.options);
      reused.load(scenario.workload);
      reused.run_to_completion();
      expect_identical(reused, expected, label + " [reused]");
    } else {
      OnePortEngine fresh(scenario.platform, *policy_a, scenario.options);
      fresh.load(scenario.workload);
      fresh.run_to_completion();
      expect_identical(fresh, expected, label + " [fresh]");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineDiff, ::testing::Range(0, kShards));

// ----- sharded engine at K=1 -----------------------------------------------
//
// ShardedEngine with a single shard must be byte-identical to the plain
// OnePortEngine on the same randomized scenarios the base shards use: the
// identity partition, the merge layer, and the option slicing must all be
// exact no-ops, under every routing (routing is moot at K=1 but its code
// path still runs at load time).

void expect_identical_merged(const ShardedEngine& actual,
                             const EngineView& expected,
                             const std::string& label) {
  const Schedule& a = actual.schedule();
  const Schedule& e = expected.schedule();
  ASSERT_EQ(a.size(), e.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const TaskRecord& ra = a.at(i);
    const TaskRecord& re = e.at(i);
    ASSERT_EQ(ra.task, re.task) << label << " record " << i;
    ASSERT_EQ(ra.slave, re.slave) << label << " record " << i;
    ASSERT_EQ(ra.release, re.release) << label << " record " << i;
    ASSERT_EQ(ra.send_start, re.send_start) << label << " record " << i;
    ASSERT_EQ(ra.send_end, re.send_end) << label << " record " << i;
    ASSERT_EQ(ra.comp_start, re.comp_start) << label << " record " << i;
    ASSERT_EQ(ra.comp_end, re.comp_end) << label << " record " << i;
  }
  ASSERT_EQ(a.makespan(), e.makespan()) << label;

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

class ShardedDiff : public ::testing::TestWithParam<int> {};

TEST_P(ShardedDiff, SingleShardMatchesOnePortEngineBitExactly) {
  constexpr ShardRouting kRoutings[] = {ShardRouting::kHash,
                                        ShardRouting::kRoundRobin,
                                        ShardRouting::kLeastLoaded};
  for (int c = 0; c < 10; ++c) {
    const std::uint64_t seed =
        555000ULL + 100ULL * static_cast<std::uint64_t>(GetParam()) +
        static_cast<std::uint64_t>(c);
    const Scenario scenario = make_scenario(seed);
    const std::string label = "sharded seed " + std::to_string(seed) + " (" +
                              scenario.scheduler + ")";

    const auto policy_e =
        make_policy(scenario.scheduler, scenario.lookahead, 99);
    OnePortEngine expected(scenario.platform, *policy_e, scenario.options);
    expected.load(scenario.workload);
    expected.run_to_completion();

    ShardedEngineOptions options;
    options.shards = 1;
    options.routing = kRoutings[seed % std::size(kRoutings)];
    options.engine = scenario.options;
    ShardedEngine actual(
        scenario.platform,
        [&] { return make_policy(scenario.scheduler, scenario.lookahead, 99); },
        std::move(options));
    actual.load(scenario.workload);
    actual.run_to_completion();
    expect_identical_merged(actual, expected, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedDiff, ::testing::Range(0, 5));

// ----- adversary probe discipline ------------------------------------------

class EngineDiffProbes : public ::testing::TestWithParam<int> {};

TEST_P(EngineDiffProbes, RunUntilAndInjectMatchReference) {
  for (int c = 0; c < 10; ++c) {
    const std::uint64_t seed =
        777000ULL + 100ULL * static_cast<std::uint64_t>(GetParam()) +
        static_cast<std::uint64_t>(c);
    const Scenario scenario = make_scenario(seed);
    const std::string label = "probe seed " + std::to_string(seed) + " (" +
                              scenario.scheduler + ")";
    const auto policy_a =
        make_policy(scenario.scheduler, scenario.lookahead, 7);
    const auto policy_e =
        make_policy(scenario.scheduler, scenario.lookahead, 7);

    OnePortEngine actual(scenario.platform, *policy_a, scenario.options);
    ReferenceEngine expected(scenario.platform, *policy_e, scenario.options);
    actual.load(scenario.workload);
    expected.load(scenario.workload);

    // Identical probe/injection script on both engines.
    util::Rng script(seed ^ 0xabcdef);
    Time probe = 0.0;
    const int steps = static_cast<int>(script.uniform_int(1, 6));
    for (int k = 0; k < steps; ++k) {
      probe += script.uniform(0.0, 3.0);
      actual.run_until(probe);
      expected.run_until(probe);
      ASSERT_EQ(actual.now(), expected.now()) << label;
      ASSERT_EQ(actual.pending_count(), expected.pending_count()) << label;
      ASSERT_EQ(actual.completed_or_committed(),
                expected.completed_or_committed())
          << label;
      TaskSpec spec;
      spec.release = probe + script.uniform(0.0, 2.0);
      spec.comm_factor = script.uniform(0.5, 2.0);
      spec.comp_factor = script.uniform(0.5, 2.0);
      ASSERT_EQ(actual.inject_task(spec), expected.inject_task(spec)) << label;
    }
    actual.run_to_completion();
    expected.run_to_completion();
    expect_identical(actual, expected, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineDiffProbes, ::testing::Range(0, 5));

// ----- directed WaitUntil cases ---------------------------------------------
//
// ChaoticPolicy only ever requests strictly-future wake-ups at random
// instants. These scripts pin each rule of the engine's single live-wake
// slot on a one-slave platform (c = p = 1) against the reference engine,
// and additionally assert the instants at which the policy was consulted,
// so a rule both engines got wrong would still fail.

/// Replays `script` (one decision-maker per consult, in order) and then
/// assigns the pending front to slave 0 for every later consult. Records
/// the instant of every consult.
class ScriptedPolicy : public OnlineScheduler {
 public:
  using Step = std::function<Decision(const EngineView&)>;
  explicit ScriptedPolicy(std::vector<Step> script)
      : script_(std::move(script)) {}
  std::string name() const override { return "SCRIPT"; }

  Decision decide(const EngineView& engine) override {
    const std::size_t k = consults_.size();
    consults_.push_back(engine.now());
    if (k < script_.size()) return script_[k](engine);
    return Assign{engine.pending_front(), 0};
  }

  const std::vector<Time>& consults() const { return consults_; }

 private:
  std::vector<Step> script_;
  std::vector<Time> consults_;
};

ScriptedPolicy::Step wait_until(Time t) {
  return [t](const EngineView&) { return Decision{WaitUntil{t}}; };
}

ScriptedPolicy::Step assign_front() {
  return [](const EngineView& engine) {
    return Decision{Assign{engine.pending_front(), 0}};
  };
}

ScriptedPolicy::Step defer() {
  return [](const EngineView&) { return Decision{Defer{}}; };
}

/// Runs the script on both engines and returns the consult instants
/// (after asserting the two engines agree on everything).
std::vector<Time> run_script(const std::vector<Time>& releases,
                             const std::vector<ScriptedPolicy::Step>& script,
                             const std::string& label) {
  const platform::Platform plat = platform::Platform::homogeneous(1, 1.0, 1.0);
  const Workload work = Workload::from_releases(releases);
  EngineOptions options;
  options.enable_trace = true;

  ScriptedPolicy policy_a(script);
  OnePortEngine actual(plat, policy_a, options);
  actual.load(work);
  actual.run_to_completion();

  ScriptedPolicy policy_e(script);
  ReferenceEngine expected(plat, policy_e, options);
  expected.load(work);
  expected.run_to_completion();

  expect_identical(actual, expected, label);
  EXPECT_EQ(policy_a.consults(), policy_e.consults()) << label;
  return policy_a.consults();
}

TEST(EngineDiffWaitUntil, NewerRequestSupersedesTheLiveOne) {
  // t=0 asks for 3; the release at t=1 re-asks for 4. Only 4 may wake the
  // master: a consult at 3 would mean the superseded request stayed live.
  EXPECT_EQ(run_script({0.0, 1.0}, {wait_until(3.0), wait_until(4.0)},
                       "later request"),
            (std::vector<Time>{0.0, 1.0, 4.0, 5.0}));
  // Superseded by an earlier request: 2 wakes, and the replaced 5 must not
  // fire after the t=2 request for 6.
  EXPECT_EQ(run_script({0.0, 1.0},
                       {wait_until(5.0), wait_until(2.0), wait_until(6.0)},
                       "earlier request"),
            (std::vector<Time>{0.0, 1.0, 2.0, 6.0, 7.0}));
}

TEST(EngineDiffWaitUntil, AssignmentCancelsTheLiveRequest) {
  // t=0 asks for 5, the release at t=1 assigns instead. The send ends at 2
  // and the compute at 3, both Deferred with a task pending; the next
  // consult must be the release at 6, never the cancelled wake at 5.
  EXPECT_EQ(run_script({0.0, 1.0, 6.0},
                       {wait_until(5.0), assign_front(), defer(), defer()},
                       "assign cancels"),
            (std::vector<Time>{0.0, 1.0, 2.0, 3.0, 6.0, 7.0}));
}

TEST(EngineDiffWaitUntil, PastOrPresentRequestLeavesTheLiveOneInForce) {
  // t=0 asks for 4; at the t=1 release the policy asks for now() and then,
  // at the t=2 release, for now() + kTimeEps / 2. Neither lies beyond
  // now() + kTimeEps, so both act as a Defer and the request for 4 must
  // still wake the master.
  const auto at_now = [](const EngineView& engine) {
    return Decision{WaitUntil{engine.now()}};
  };
  const auto within_eps = [](const EngineView& engine) {
    return Decision{WaitUntil{engine.now() + kTimeEps / 2}};
  };
  EXPECT_EQ(run_script({0.0, 1.0, 2.0}, {wait_until(4.0), at_now, within_eps},
                       "non-future request"),
            (std::vector<Time>{0.0, 1.0, 2.0, 4.0, 5.0, 6.0}));
}

// ----- scale-stratified shards ---------------------------------------------
//
// Fleet sizes the 500-case suite never reaches: 1k/4k slaves x 50k/100k
// tasks. ReferenceEngine's O(pending) scans would dominate the suite's
// runtime here, and it cannot run availability at all, so at scale the
// scalar-probe OnePortEngine (EngineOptions::scalar_probes, the generic
// per-slave virtual loops, proven bit-identical to the reference by the
// shards above) is the expected side, and the default engine with the
// batched ranking kernel must reproduce it byte for byte — under churn
// too, which makes this the only kernel-vs-scalar proof with offline and
// speed lanes. ChaoticPolicy is excluded: its pending_tasks() copy is
// O(n^2) over a 100k backlog and its WaitUntil coverage is already
// carried by the base shards.
//
// Setting MSOL_DIFF_SCALE=small (sanitizer CI legs) shrinks every case
// ~16x/25x while keeping the same structure.

struct ScaleCase {
  const char* policy;
  int slaves;
  int tasks;
  bool churn;  // time-varying availability (outages + re-dispatch) at scale
};

constexpr ScaleCase kScaleCases[] = {
    {"RR", 1024, 50000, false},  {"LS", 1024, 50000, true},
    {"SRPT", 1024, 50000, false}, {"RR", 4096, 100000, true},
    {"LS", 4096, 100000, false},
};

class EngineDiffScale : public ::testing::TestWithParam<int> {};

TEST_P(EngineDiffScale, KernelMatchesScalarAtFleetScale) {
  ScaleCase c = kScaleCases[GetParam()];
  const char* scale_env = std::getenv("MSOL_DIFF_SCALE");
  if (scale_env != nullptr && std::string(scale_env) == "small") {
    c.slaves /= 16;
    c.tasks /= 25;
  }
  const std::string label = std::string(c.policy) + " m=" +
                            std::to_string(c.slaves) + " n=" +
                            std::to_string(c.tasks);

  const std::uint64_t seed = 424200ULL + static_cast<std::uint64_t>(GetParam());
  util::Rng rng(seed);
  const platform::Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, c.slaves, rng);

  // Bursty arrivals cluster timestamps (many completions near one instant)
  // at 90% of one-port capacity.
  const double rate = 0.9 * experiments::max_throughput(plat);
  const Workload work =
      Workload::bursty(c.tasks, c.tasks / 64 + 1, 1.0 / rate, rng);

  EngineOptions scalar_options;
  scalar_options.scalar_probes = true;
  if (c.churn) {
    const Time horizon = 1.5 * static_cast<Time>(c.tasks) / rate;
    scalar_options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, c.slaves, horizon / 4.0, 0.1,
        horizon, rng);
  }
  EngineOptions kernel_options = scalar_options;
  kernel_options.scalar_probes = false;

  const auto policy_e = algorithms::make_scheduler(c.policy);
  OnePortEngine expected(plat, *policy_e, scalar_options);
  expected.load(work);
  expected.run_to_completion();

  const auto policy_a = algorithms::make_scheduler(c.policy);
  OnePortEngine actual(plat, *policy_a, kernel_options);
  actual.load(work);
  actual.run_to_completion();
  expect_identical(actual, expected, label + " [kernel vs scalar]");

  // Reverse direction through reset(): the engine that just ran the kernel
  // probes is re-pointed at the scalar ones — state surviving reset()
  // would diverge here.
  const auto policy_b = algorithms::make_scheduler(c.policy);
  actual.reset(plat, *policy_b, scalar_options);
  actual.load(work);
  actual.run_to_completion();
  expect_identical(actual, expected, label + " [scalar via reused engine]");
}

INSTANTIATE_TEST_SUITE_P(
    Scale, EngineDiffScale,
    ::testing::Range(0, static_cast<int>(std::size(kScaleCases))));

}  // namespace
}  // namespace msol::core
