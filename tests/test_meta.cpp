// The meta-policy layer (algorithms/meta/): grammar round-trips and
// diagnostics, registry routing, the regime detector's estimators and
// hysteresis, projection-vs-live first-decision agreement, portfolio/hedge
// determinism, and the spec_fit offline pipeline (CSV -> weights -> spec).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/meta/projection.hpp"
#include "algorithms/meta/regime.hpp"
#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/spec_fit.hpp"
#include "offline/forward_sim.hpp"
#include "platform/generator.hpp"
#include "support/engine_projection.hpp"
#include "util/rng.hpp"

namespace msol::algorithms::meta {
namespace {

using core::Workload;
using platform::Platform;
using platform::SlaveSpec;

// ------------------------------------------------------------ round-trip ----

/// Valid meta specs covering both kinds, default and explicit clauses,
/// legacy member names, and full base-grammar members.
std::vector<std::string> meta_corpus() {
  return {
      "portfolio:LS;SRPT",
      "portfolio:LS;rank:queue;SRPT+throttle:2+horizon:6",
      "portfolio:rank:completion;rank:ready+horizon:1",
      "hedge:LS;SRPT",
      "hedge:LS;rank:queue+window:12+hyst:2",
      "hedge:rank:ready;rank:linear:0:0.2:0:0.1:0.7+window:12+hyst:2",
      "hedge:RR;LS-K2+window:4+hyst:1",
  };
}

TEST(MetaSpec, EveryParseableSpecSerializesToAFixpoint) {
  for (const std::string& text : meta_corpus()) {
    const MetaSpec spec = parse_meta_spec(text);
    const std::string canonical = to_string(spec);
    const MetaSpec reparsed = parse_meta_spec(canonical);
    EXPECT_EQ(reparsed, spec) << text;
    EXPECT_EQ(to_string(reparsed), canonical) << text;
  }
}

TEST(MetaSpec, DefaultsAreExplicitInTheCanonicalForm) {
  // Canonical strings always spell the kind's meta clauses out, so two
  // specs that differ only in elided defaults cannot collide.
  EXPECT_NE(to_string(parse_meta_spec("portfolio:LS;SRPT"))
                .find("+horizon:8"),
            std::string::npos);
  const std::string hedge = to_string(parse_meta_spec("hedge:LS;SRPT"));
  EXPECT_NE(hedge.find("+window:16"), std::string::npos);
  EXPECT_NE(hedge.find("+hyst:3"), std::string::npos);
}

TEST(MetaSpec, PrefixRoutingIsExact) {
  EXPECT_TRUE(is_meta_spec("portfolio:LS;SRPT"));
  EXPECT_TRUE(is_meta_spec("hedge:LS;SRPT"));
  EXPECT_FALSE(is_meta_spec("LS"));
  EXPECT_FALSE(is_meta_spec("rank:linear:1:0:0:0:0"));
  EXPECT_FALSE(is_meta_spec("hedgehog"));  // no colon, not the grammar
  EXPECT_FALSE(is_meta_spec("LS+portfolio:2"));
}

// ---------------------------------------------------------- parse errors ----

/// Expects parse_meta_spec(text) to throw and the message to contain every
/// needle (the diagnostics contract: name the spec and the offending part).
void expect_parse_error(const std::string& text,
                        const std::vector<std::string>& needles) {
  try {
    parse_meta_spec(text);
    FAIL() << "expected parse failure for: " << text;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("meta spec '" + text + "'"), std::string::npos)
        << what;
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << what;
    }
  }
}

TEST(MetaSpec, RejectsMalformedSpecsWithNamedClauses) {
  // Member-count rules per kind.
  expect_parse_error("portfolio:LS+horizon:2", {"at least 2 member specs"});
  expect_parse_error("hedge:LS;SRPT;RR", {"exactly 2 member specs"});
  // Meta specs cannot nest.
  expect_parse_error("portfolio:LS;hedge:LS;SRPT",
                     {"member 1", "cannot nest"});
  // A clause of the other kind is named, with its character offset.
  expect_parse_error("portfolio:LS;SRPT+window:4",
                     {"clause 'window:4'", "(offset 18)",
                      "only valid for hedge:"});
  expect_parse_error("hedge:LS;SRPT+horizon:4",
                     {"clause 'horizon:4'", "only valid for portfolio:"});
  // Duplicates, ranges, and bad integers all name the clause.
  expect_parse_error("portfolio:LS;SRPT+horizon:2+horizon:3",
                     {"clause 'horizon:2'", "duplicate clause"});
  expect_parse_error("portfolio:LS;SRPT+horizon:0", {"horizon must be >= 1"});
  expect_parse_error("hedge:LS;SRPT+window:1", {"window must be >= 2"});
  expect_parse_error("hedge:LS;SRPT+hyst:0", {"hyst must be >= 1"});
  expect_parse_error("hedge:LS;SRPT+window:2x", {"bad integer '2x'"});
  // Every meta integer lands in an int: past INT_MAX is rejected, never
  // wrapped (horizon:2147483648 once became horizon:-2147483648).
  expect_parse_error("portfolio:LS;SRPT+horizon:2147483648",
                     {"clause 'horizon:2147483648'", "out of range"});
  expect_parse_error("hedge:LS;SRPT+window:4294967298",
                     {"clause 'window:4294967298'", "out of range"});
  expect_parse_error("hedge:LS;SRPT+hyst:2147483648",
                     {"clause 'hyst:2147483648'", "out of range"});
  expect_parse_error("portfolio:LS-K4294967297;SRPT", {"member 0"});
  expect_parse_error("portfolio:LS;gate:batch:2147483648+rank:completion",
                     {"member 1", "out of range"});
  EXPECT_EQ(parse_meta_spec("portfolio:LS;SRPT+horizon:2147483647").horizon,
            2147483647);
  // Empty and malformed members carry their index and the base error.
  expect_parse_error("portfolio:LS;;SRPT", {"member 1 is empty"});
  expect_parse_error("portfolio:LS;frobnicate:3", {"member 1"});
}

// ---------------------------------------------------------------- registry ----

TEST(MetaRegistry, MakeSchedulerRoutesMetaSpecs) {
  const auto portfolio =
      make_scheduler("portfolio:LS;rank:queue+horizon:4");
  ASSERT_NE(dynamic_cast<const PortfolioPolicy*>(portfolio.get()), nullptr);
  EXPECT_EQ(portfolio->name(),
            to_string(parse_meta_spec("portfolio:LS;rank:queue+horizon:4")));

  const auto hedge = make_scheduler("hedge:LS;SRPT+window:4+hyst:1");
  ASSERT_NE(dynamic_cast<const HedgePolicy*>(hedge.get()), nullptr);
  // Both concrete types are MetaPolicy — what campaigns dynamic_cast to
  // when collecting the switches metric.
  EXPECT_NE(dynamic_cast<const MetaPolicy*>(hedge.get()), nullptr);
}

TEST(MetaRegistry, CanonicalSpecIsAFixpointForMetaSpecs) {
  for (const std::string& text : meta_corpus()) {
    const std::string canonical = canonical_spec(text);
    EXPECT_EQ(canonical_spec(canonical), canonical) << text;
    // Members are serialized in the base grammar's canonical form.
    EXPECT_NE(canonical.find("filter:"), std::string::npos) << canonical;
  }
}

// ---------------------------------------------------------------- detector ----

/// A hand-steerable EngineView: fixed platform, scripted availability, and
/// a FIFO of pending tasks released at or before now(). Just enough view
/// for the detector and for first-decision probes of member policies.
class FakeView : public core::EngineView {
 public:
  explicit FakeView(Platform platform)
      : platform_(std::move(platform)),
        online_(static_cast<std::size_t>(platform_.size()), true),
        ready_(static_cast<std::size_t>(platform_.size()), 0.0),
        in_system_(static_cast<std::size_t>(platform_.size()), 0) {}

  void set_online(core::SlaveId j, bool online) {
    online_[static_cast<std::size_t>(j)] = online;
  }
  void set_ready(core::SlaveId j, core::Time t) {
    ready_[static_cast<std::size_t>(j)] = t;
    in_system_[static_cast<std::size_t>(j)] = t > now_ ? 1 : 0;
  }
  void add_pending(core::Time release) {
    core::TaskSpec spec;
    spec.release = release;
    specs_.push_back(spec);
  }
  void set_now(core::Time t) { now_ = t; }

  core::Time now() const override { return now_; }
  const Platform& platform() const override { return platform_; }
  core::Time port_free_at() const override { return port_free_; }
  bool is_available(core::SlaveId j) const override {
    return online_[static_cast<std::size_t>(j)];
  }
  double current_speed(core::SlaveId j) const override {
    return is_available(j) ? 1.0 : 0.0;
  }
  core::Time slave_ready_at(core::SlaveId j) const override {
    return std::max(ready_[static_cast<std::size_t>(j)], now_);
  }
  int tasks_in_system(core::SlaveId j) const override {
    return in_system_[static_cast<std::size_t>(j)];
  }
  core::TaskId pending_front() const override {
    if (specs_.empty()) throw std::logic_error("no pending task");
    return 0;
  }
  std::vector<core::TaskId> pending_tasks() const override {
    std::vector<core::TaskId> ids(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      ids[i] = static_cast<core::TaskId>(i);
    }
    return ids;
  }
  int pending_count() const override {
    return static_cast<int>(specs_.size());
  }
  int total_tasks() const override { return static_cast<int>(specs_.size()); }
  int completed_or_committed() const override { return 0; }
  const core::TaskSpec& task_spec(core::TaskId i) const override {
    return specs_[static_cast<std::size_t>(i)];
  }
  std::optional<core::SlaveId> assignment_of(core::TaskId) const override {
    return std::nullopt;
  }
  core::Time completion_if_assigned(core::TaskId task,
                                    core::SlaveId j) const override {
    // The hypothetical-commit arithmetic both engines implement: send now
    // (port is exposed as free at port_free_), queue behind the ready-time.
    const core::Time send_start = std::max(port_free_, now_);
    const core::Time send_end =
        send_start + platform_.comm(j) * task_spec(task).comm_factor;
    const core::Time comp_start = std::max(send_end, slave_ready_at(j));
    return comp_start + platform_.comp(j) * task_spec(task).comp_factor;
  }
  const core::Schedule& schedule() const override { return schedule_; }
  const core::Trace& trace() const override { return trace_; }

 private:
  Platform platform_;
  std::vector<bool> online_;
  std::vector<core::Time> ready_;
  std::vector<int> in_system_;
  std::vector<core::TaskSpec> specs_;
  core::Time now_ = 0.0;
  core::Time port_free_ = 0.0;
  core::Schedule schedule_;
  core::Trace trace_;
};

Platform three_slaves() {
  return Platform({SlaveSpec{1.0, 4.0}, SlaveSpec{2.0, 2.0},
                   SlaveSpec{3.0, 1.0}});
}

TEST(RegimeDetector, EvenGapsStayCalmAndClumpedGapsReadBursty) {
  // window 5 => the burstiness estimate uses the last 4 inter-release gaps.
  RegimeDetector calm(RegimeConfig{5, 1});
  const FakeView view(three_slaves());
  for (core::Time t : {0.0, 10.0, 20.0, 30.0, 40.0}) calm.observe_release(t);
  calm.observe(view);
  EXPECT_EQ(calm.regime(), Regime::kCalm);  // CV^2 = 0

  // Gaps {0,0,0,100}: CV^2 = 3.0, exactly the default threshold.
  RegimeDetector bursty(RegimeConfig{5, 1});
  for (core::Time t : {0.0, 0.0, 0.0, 0.0, 100.0}) bursty.observe_release(t);
  bursty.observe(view);
  EXPECT_EQ(bursty.regime(), Regime::kBursty);
  EXPECT_TRUE(bursty.stressed());

  // Simultaneous releases (mean gap ~ 0) count as bursty, not a 0/0.
  RegimeDetector burst0(RegimeConfig{5, 1});
  for (int i = 0; i < 5; ++i) burst0.observe_release(7.0);
  burst0.observe(view);
  EXPECT_EQ(burst0.regime(), Regime::kBursty);
}

TEST(RegimeDetector, BurstinessNeedsAFullWindowOfReleases) {
  RegimeDetector detector(RegimeConfig{8, 1});
  const FakeView view(three_slaves());
  for (int i = 0; i < 4; ++i) detector.observe_release(0.0);
  detector.observe(view);
  // 4 releases < window 8: no dispersion evidence yet, stay calm.
  EXPECT_EQ(detector.regime(), Regime::kCalm);
}

TEST(RegimeDetector, ChurnFiresOnAFlipAndDecaysOutOfTheWindow) {
  RegimeDetector detector(RegimeConfig{3, 1});
  FakeView view(three_slaves());
  detector.observe(view);  // baseline sample, no flip
  EXPECT_EQ(detector.regime(), Regime::kCalm);

  view.set_online(0, false);
  detector.observe(view);  // one flip in window
  EXPECT_EQ(detector.regime(), Regime::kChurn);

  // Availability now stable: the flip ages out after `window` samples.
  detector.observe(view);
  detector.observe(view);
  EXPECT_EQ(detector.regime(), Regime::kChurn);  // flip still in window
  detector.observe(view);
  EXPECT_EQ(detector.regime(), Regime::kCalm);
}

TEST(RegimeDetector, ChurnOutranksBurstyAndHysteresisDebounces) {
  RegimeDetector detector(RegimeConfig{3, 3});
  FakeView view(three_slaves());
  // Bursty releases AND a flip: churn wins once debounced.
  for (int i = 0; i < 3; ++i) detector.observe_release(0.0);
  detector.observe(view);  // baseline
  view.set_online(1, false);
  detector.observe(view);  // raw churn, streak 1
  EXPECT_EQ(detector.regime(), Regime::kCalm);
  detector.observe(view);  // raw churn, streak 2
  EXPECT_EQ(detector.regime(), Regime::kCalm);
  detector.observe(view);  // raw churn, streak 3 -> reported
  EXPECT_EQ(detector.regime(), Regime::kChurn);
}

TEST(RegimeDetector, ResetReturnsToCalm) {
  RegimeDetector detector(RegimeConfig{2, 1});
  FakeView view(three_slaves());
  detector.observe(view);
  view.set_online(0, false);
  detector.observe(view);
  EXPECT_EQ(detector.regime(), Regime::kChurn);
  detector.reset();
  EXPECT_EQ(detector.regime(), Regime::kCalm);
}

TEST(RegimeDetector, RejectsDegenerateConfigs) {
  EXPECT_THROW(RegimeDetector(RegimeConfig{1, 1}), std::invalid_argument);
  EXPECT_THROW(RegimeDetector(RegimeConfig{4, 0}), std::invalid_argument);
}

// -------------------------------------------------------------- projection ----

TEST(EngineProjection, FirstDecisionMatchesTheMemberOnTheLiveView) {
  // The projection's contract: consulted at the same instant with the same
  // observables, the member must pick the same (task, slave) the live view
  // would get. LS is the sharpest probe — it reads completion_if_assigned
  // across every slave.
  FakeView view(three_slaves());
  view.set_now(5.0);
  view.add_pending(1.0);
  view.add_pending(4.0);
  view.set_ready(0, 9.0);  // busy: queueing penalty differs per slave
  view.set_ready(1, 5.5);

  const auto direct = make_scheduler("LS");
  const core::Decision live = direct->decide(view);
  ASSERT_TRUE(std::holds_alternative<core::Assign>(live));

  const auto projected = make_scheduler("LS");
  EngineProjection projection(view);
  const ProjectionOutcome out = projection.run(*projected, 2);
  ASSERT_TRUE(std::holds_alternative<core::Assign>(out.first));
  EXPECT_EQ(std::get<core::Assign>(out.first).task,
            std::get<core::Assign>(live).task);
  EXPECT_EQ(std::get<core::Assign>(out.first).slave,
            std::get<core::Assign>(live).slave);
  EXPECT_EQ(out.commits, 2);
  EXPECT_GT(out.makespan, 5.0);
  EXPECT_FALSE(out.stalled);
}

TEST(EngineProjection, OfflineSlavesAreInvisibleToMembers) {
  FakeView view(three_slaves());
  view.add_pending(0.0);
  view.set_online(0, false);  // the cheapest-comm slave is gone
  const auto ls = make_scheduler("LS");
  EngineProjection projection(view);
  const ProjectionOutcome out = projection.run(*ls, 1);
  ASSERT_TRUE(std::holds_alternative<core::Assign>(out.first));
  EXPECT_NE(std::get<core::Assign>(out.first).slave, 0);
}

TEST(PortfolioPolicy, NonEngineViewFailsLoudlyNamingTheSpec) {
  // The portfolio's projection subscribes to OnePortEngine's delta feed;
  // any other view is a wiring error, never a silent slow path.
  FakeView view(three_slaves());
  view.add_pending(0.0);
  PortfolioPolicy policy(parse_meta_spec("portfolio:LS;SRPT+horizon:4"));
  try {
    policy.decide(view);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(policy.spec_string()), std::string::npos) << what;
    EXPECT_NE(what.find("OnePortEngine"), std::string::npos) << what;
  }
  EXPECT_EQ(policy.decisions(), 0);
}

TEST(StepSimulator, SeededStateContinuesTheOnePortArithmetic) {
  const Platform plat = three_slaves();
  offline::StepSimulator sim(plat);
  sim.master_free = 10.0;
  sim.slave_ready[1] = 14.0;
  core::TaskSpec spec;
  spec.release = 3.0;  // released long ago: the port, not the release, gates
  const core::TaskRecord rec = sim.step(0, spec, 1);
  EXPECT_DOUBLE_EQ(rec.send_start, 10.0);           // max(master_free, release)
  EXPECT_DOUBLE_EQ(rec.send_end, 12.0);             // + comm(1) = 2
  EXPECT_DOUBLE_EQ(rec.comp_start, 14.0);           // queues behind ready
  EXPECT_DOUBLE_EQ(rec.comp_end, 16.0);             // + comp(1) = 2
  EXPECT_DOUBLE_EQ(sim.master_free, 12.0);
  EXPECT_DOUBLE_EQ(sim.slave_ready[1], 16.0);
}

// ------------------------------------------------------------- meta policies ----

Platform heterogeneous_platform(int m, std::uint64_t seed) {
  util::Rng rng(seed);
  return platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
}

TEST(PortfolioPolicy, RepeatedRunsAreIdenticalAndValid) {
  const Platform plat = heterogeneous_platform(4, 11);
  util::Rng rng(3);
  const Workload work = Workload::poisson(60, 2.0, rng);
  const auto scheduler =
      make_scheduler("portfolio:LS;rank:queue;SRPT+horizon:4");

  const core::Schedule a = core::simulate(plat, work, *scheduler);
  const core::Schedule b = core::simulate(plat, work, *scheduler);
  EXPECT_TRUE(core::validate(plat, work, a).empty());
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).slave, b.at(i).slave);
    EXPECT_DOUBLE_EQ(a.at(i).comp_end, b.at(i).comp_end);
  }

  // A freshly built instance of the same spec reproduces the run: member
  // RNG streams are derived from the spec, not from construction order.
  const auto rebuilt =
      make_scheduler("portfolio:LS;rank:queue;SRPT+horizon:4");
  const core::Schedule c = core::simulate(plat, work, *rebuilt);
  ASSERT_EQ(a.size(), c.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).slave, c.at(i).slave);
  }
}

TEST(PortfolioPolicy, SwitchesResetBetweenRuns) {
  const Platform plat = heterogeneous_platform(3, 5);
  util::Rng rng(9);
  const Workload work = Workload::bursty(50, 10, 25.0, rng);
  const auto scheduler = make_scheduler("portfolio:LS;RR+horizon:3");
  auto* portfolio = dynamic_cast<PortfolioPolicy*>(scheduler.get());
  ASSERT_NE(portfolio, nullptr);

  core::simulate(plat, work, *scheduler);
  const long long first_run = portfolio->switches();
  core::simulate(plat, work, *scheduler);
  // simulate() resets the policy: the count restarts rather than piling up.
  EXPECT_EQ(portfolio->switches(), first_run);
}

TEST(HedgePolicy, SwitchesToTheStressedMemberOnABurst) {
  // window 4 / hyst 1: four simultaneous releases are full dispersion
  // evidence, so the very next decision runs member B.
  FakeView view(three_slaves());
  for (int i = 0; i < 4; ++i) view.add_pending(0.0);
  const auto scheduler = make_scheduler("hedge:RR;LS+window:4+hyst:1");
  auto* hedge = dynamic_cast<HedgePolicy*>(scheduler.get());
  ASSERT_NE(hedge, nullptr);
  EXPECT_EQ(hedge->active_member(), 0);

  for (core::TaskId t = 0; t < 4; ++t) hedge->on_task_released(view, t);
  const core::Decision decision = hedge->decide(view);
  EXPECT_EQ(hedge->regime(), Regime::kBursty);
  EXPECT_EQ(hedge->active_member(), 1);
  EXPECT_EQ(hedge->switches(), 1);
  // Member B is LS: it must pick the completion-optimal slave, which for
  // an empty platform is the comm+comp-minimal one.
  ASSERT_TRUE(std::holds_alternative<core::Assign>(decision));

  hedge->reset();
  EXPECT_EQ(hedge->active_member(), 0);
  EXPECT_EQ(hedge->switches(), 0);
  EXPECT_EQ(hedge->regime(), Regime::kCalm);
}

TEST(HedgePolicy, RepeatedRunsAreIdenticalAndValid) {
  const Platform plat = heterogeneous_platform(4, 21);
  util::Rng rng(13);
  const Workload work = Workload::bursty(80, 20, 40.0, rng);
  const auto scheduler = make_scheduler("hedge:LS;rank:queue+window:8+hyst:2");

  const core::Schedule a = core::simulate(plat, work, *scheduler);
  const core::Schedule b = core::simulate(plat, work, *scheduler);
  EXPECT_TRUE(core::validate(plat, work, a).empty());
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).slave, b.at(i).slave);
    EXPECT_DOUBLE_EQ(a.at(i).comp_end, b.at(i).comp_end);
  }
}

// ----------------------------------------------------------------- spec_fit ----

TEST(SpecFit, SimplexProjectionIsAProbabilityVector) {
  const std::vector<double> spike =
      experiments::project_to_simplex({2.0, -1.0, 0.0});
  EXPECT_DOUBLE_EQ(spike[0], 1.0);
  EXPECT_DOUBLE_EQ(spike[1], 0.0);
  EXPECT_DOUBLE_EQ(spike[2], 0.0);

  const std::vector<double> even =
      experiments::project_to_simplex({0.3, 0.3});
  EXPECT_DOUBLE_EQ(even[0], 0.5);
  EXPECT_DOUBLE_EQ(even[1], 0.5);

  // Degenerate all-negative input falls back to uniform.
  const std::vector<double> uniform =
      experiments::project_to_simplex({-5.0, -5.0, -5.0, -5.0});
  for (double w : uniform) EXPECT_DOUBLE_EQ(w, 0.25);
}

TEST(SpecFit, FeatureWeightsCoverVerticesAndBlends) {
  using experiments::feature_weights_for;
  EXPECT_EQ(feature_weights_for("rank:comm"),
            (std::vector<double>{0.0, 1.0, 0.0, 0.0, 0.0}));
  EXPECT_EQ(feature_weights_for("rank:linear:2:0:0:1:1"),
            (std::vector<double>{0.5, 0.0, 0.0, 0.25, 0.25}));
  // Non-default filter/tie/gate compositions are different policies and
  // must not contaminate the fit; junk is skipped, not fatal.
  EXPECT_TRUE(feature_weights_for("rank:queue+throttle:2").empty());
  EXPECT_TRUE(feature_weights_for("rank:queue+tie:fastlink").empty());
  EXPECT_TRUE(feature_weights_for("not-a-spec").empty());
}

TEST(SpecFit, LoadsSamplesFromSweepCsvSkippingTornRows) {
  std::istringstream csv(
      "cell_index,arrival,avail,spec,norm_makespan_mean\n"
      "0,poisson,always,rank:ready,1.25\n"
      "1,bursty,churn,\"rank:linear:0:0,2:0:0,8:0\",1.5\n"  // quoted commas
      "2,bursty,churn,rank:queue,oops\n"                    // bad value
      "3,bursty,churn,LS+gate:batch:5,1.1\n"                // out of fit space
      "4,poisson,alw");                                     // torn tail line
  // The quoted spec uses ',' where the grammar wants '.', so it fails to
  // parse and is skipped like the other junk — splitting it into fields
  // must not tear the row apart.
  const std::vector<experiments::FitSample> samples =
      experiments::load_fit_samples(csv);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].regime, "poisson/always");
  EXPECT_DOUBLE_EQ(samples[0].norm_makespan, 1.25);
  EXPECT_EQ(samples[0].weights,
            (std::vector<double>{0.0, 0.0, 0.0, 0.0, 1.0}));

  std::istringstream headerless("spec,norm_makespan_mean\n");
  EXPECT_THROW(experiments::load_fit_samples(headerless),
               std::invalid_argument);
}

experiments::FitSample vertex_sample(const std::string& regime, int feature,
                                     double value) {
  experiments::FitSample s;
  s.regime = regime;
  s.weights.assign(5, 0.0);
  s.weights[static_cast<std::size_t>(feature)] = 1.0;
  s.norm_makespan = value;
  return s;
}

TEST(SpecFit, RecoversTheCheapestFeatureFromVertexSamples) {
  // Vertex costs: ready (4) is best, comm (1) worst; the fitted slopes
  // must order accordingly and the recommendation lean on ready.
  std::vector<experiments::FitSample> samples = {
      vertex_sample("r", 0, 1.6), vertex_sample("r", 1, 2.0),
      vertex_sample("r", 2, 1.8), vertex_sample("r", 3, 1.5),
      vertex_sample("r", 4, 1.2),
  };
  const std::vector<experiments::FitResult> fits =
      experiments::fit_linear_weights(samples);
  ASSERT_EQ(fits.size(), 1u);
  const experiments::FitResult& fit = fits[0];
  EXPECT_EQ(fit.regime, "r");
  EXPECT_EQ(fit.samples, 5);
  EXPECT_LT(fit.beta[4], fit.beta[1]);  // ready measured cheaper than comm
  const auto max_at = std::max_element(fit.recommended.begin(),
                                       fit.recommended.end());
  EXPECT_EQ(max_at - fit.recommended.begin(), 4);
  double total = 0.0;
  for (double w : fit.recommended) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The recommended spec is a valid, canonical policy.
  EXPECT_EQ(algorithms::canonical_spec(fit.spec), fit.spec);
}

TEST(SpecFit, RecommendationOnlyUsesExercisedFeatures) {
  // Only completion and ready carry data: the fit must not put weight on
  // the three features no sample ever exercised (their ridge-zero slopes
  // would otherwise out-score every measured cost).
  std::vector<experiments::FitSample> samples = {
      vertex_sample("r", 0, 1.6), vertex_sample("r", 4, 1.2),
      vertex_sample("r", 0, 1.5), vertex_sample("r", 4, 1.3),
  };
  const std::vector<experiments::FitResult> fits =
      experiments::fit_linear_weights(samples);
  ASSERT_EQ(fits.size(), 1u);
  EXPECT_DOUBLE_EQ(fits[0].recommended[1], 0.0);
  EXPECT_DOUBLE_EQ(fits[0].recommended[2], 0.0);
  EXPECT_DOUBLE_EQ(fits[0].recommended[3], 0.0);
  EXPECT_GT(fits[0].recommended[4], fits[0].recommended[0]);
}

TEST(SpecFit, IdenticalWeightPointsCannotFitASlope) {
  std::vector<experiments::FitSample> samples = {
      vertex_sample("r", 0, 1.6), vertex_sample("r", 0, 1.5)};
  EXPECT_TRUE(experiments::fit_linear_weights(samples).empty());
}

}  // namespace
}  // namespace msol::algorithms::meta
