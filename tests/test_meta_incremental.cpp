// Differential shard for the incremental projection engine: the
// delta-driven evaluation path (persistent IncrementalProjection + stamp
// memo) must be *byte-identical* end-to-end to the rebuild-every-decision
// baseline frozen in test support (RebuildPortfolioPolicy over fresh
// EngineProjection snapshots) — same schedule records bit for bit,
// same disruption counters — across regimes {static poisson, bursty,
// availability churn} x seeds x {2-member, 4-member, tie:rng-member
// portfolios, hedge}. Plus white-box checks of the resync/rebuild
// accounting, the stamp memo, reset-reuse, and the thread-count
// byte-identity of grids with rng-tied portfolio members.
//
// MSOL_DIFF_SCALE=small (sanitizer CI legs) shrinks the workloads while
// keeping every case's structure.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/meta/projection.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "support/engine_projection.hpp"
#include "util/rng.hpp"

namespace msol::algorithms::meta {
namespace {

using core::Workload;
using platform::Platform;

bool small_scale() {
  const char* env = std::getenv("MSOL_DIFF_SCALE");
  return env != nullptr && std::string(env) == "small";
}

/// Task-count knob per MSOL_DIFF_SCALE (the cases here are already small
/// enough that only the workload length needs shrinking under sanitizers).
int scaled_tasks(int n) {
  if (!small_scale()) return n;
  const int shrunk = n / 5;
  return shrunk < 30 ? 30 : shrunk;
}

/// Bitwise double equality — the byte-identity contract, not an epsilon.
::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits " << ba << " vs " << bb << ")";
}

void expect_schedules_identical(const core::Schedule& a,
                                const core::Schedule& b,
                                const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const core::TaskRecord& ra = a.at(i);
    const core::TaskRecord& rb = b.at(i);
    EXPECT_EQ(ra.task, rb.task) << label << " record " << i;
    EXPECT_EQ(ra.slave, rb.slave) << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.release, rb.release)) << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.send_start, rb.send_start))
        << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.send_end, rb.send_end))
        << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.comp_start, rb.comp_start))
        << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.comp_end, rb.comp_end))
        << label << " record " << i;
  }
}

// ------------------------------------------------- incremental vs rebuild ----

enum class DiffRegime { kStatic, kBursty, kChurn };

struct DiffCase {
  const char* spec;
  DiffRegime regime;
  int slaves;
  int tasks;
};

/// Spec coverage: the smallest portfolio, a 4-member portfolio (widest memo
/// and reseed rotation), a portfolio whose rng-tied member must be
/// re-simulated every consult (stream position is part of the evaluation),
/// and a hedge (runs members on the live view, so both sides build the
/// same HedgePolicy). Regimes: static poisson (resync-only steady state), bursty
/// (clustered releases, deep pending mirror), churn (kDisrupt rebuilds and
/// offline-slave projections).
constexpr DiffCase kDiffCases[] = {
    {"portfolio:LS;rank:queue+horizon:4", DiffRegime::kStatic, 6, 150},
    {"portfolio:LS;rank:queue+horizon:4", DiffRegime::kBursty, 6, 150},
    {"portfolio:LS;rank:queue+horizon:4", DiffRegime::kChurn, 6, 150},
    {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", DiffRegime::kStatic,
     8, 120},
    {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", DiffRegime::kBursty,
     8, 120},
    {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", DiffRegime::kChurn,
     8, 120},
    {"portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
     DiffRegime::kStatic, 6, 120},
    {"portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
     DiffRegime::kBursty, 6, 120},
    {"portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
     DiffRegime::kChurn, 6, 120},
    {"hedge:LS;rank:queue+window:8+hyst:2", DiffRegime::kBursty, 6, 150},
    {"hedge:LS;rank:queue+window:8+hyst:2", DiffRegime::kChurn, 6, 150},
};

constexpr std::uint64_t kDiffSeeds[] = {71, 902};

struct DiffRun {
  core::Schedule schedule;
  core::DisruptionStats disruption;
};

DiffRun run_case(const DiffCase& c, std::uint64_t seed, bool rebuild) {
  util::Rng rng(seed);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, c.slaves, rng);
  const int tasks = scaled_tasks(c.tasks);
  const double rate = 0.9 * experiments::max_throughput(plat);

  util::Rng work_rng(util::Rng(seed).child_seed(1));
  const Workload work =
      c.regime == DiffRegime::kBursty
          ? Workload::bursty(tasks, tasks / 10 + 1, 1.0 / rate, work_rng)
          : Workload::poisson(tasks, rate, work_rng);

  core::EngineOptions options;
  if (c.regime == DiffRegime::kChurn) {
    const core::Time horizon = 1.5 * static_cast<core::Time>(tasks) / rate;
    util::Rng avail_rng(util::Rng(seed).child_seed(2));
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, c.slaves, horizon / 6.0, 0.25,
        horizon, avail_rng);
  }

  const MetaSpec spec = parse_meta_spec(c.spec);
  std::unique_ptr<core::OnlineScheduler> policy;
  if (rebuild && spec.kind == MetaKind::kPortfolio) {
    policy = std::make_unique<RebuildPortfolioPolicy>(spec);
  } else {
    policy = make_meta_policy(spec);
  }
  DiffRun out;
  out.schedule = core::simulate(plat, work, *policy, options, &out.disruption);
  return out;
}

class MetaIncrementalDiff : public ::testing::TestWithParam<int> {};

TEST_P(MetaIncrementalDiff, DecisionsMatchRebuildBaselineByteForByte) {
  const DiffCase& c =
      kDiffCases[static_cast<std::size_t>(GetParam()) / std::size(kDiffSeeds)];
  const std::uint64_t seed =
      kDiffSeeds[static_cast<std::size_t>(GetParam()) % std::size(kDiffSeeds)];
  const std::string label =
      std::string(c.spec) + " seed=" + std::to_string(seed) + " regime=" +
      std::to_string(static_cast<int>(c.regime));

  const DiffRun incremental = run_case(c, seed, /*rebuild=*/false);
  const DiffRun baseline = run_case(c, seed, /*rebuild=*/true);
  expect_schedules_identical(incremental.schedule, baseline.schedule, label);
  EXPECT_EQ(incremental.disruption.redispatches, baseline.disruption.redispatches)
      << label;
  EXPECT_EQ(incremental.disruption.disruptive_outages,
            baseline.disruption.disruptive_outages)
      << label;
  EXPECT_TRUE(bits_equal(incremental.disruption.lost_work,
                         baseline.disruption.lost_work))
      << label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MetaIncrementalDiff,
    ::testing::Range(0, static_cast<int>(std::size(kDiffCases) *
                                         std::size(kDiffSeeds))));

// ------------------------------------------------------- resync accounting ----

/// Runs a portfolio policy on a directly-owned engine (simulate() would
/// reset() the policy on entry, which deliberately drops the projection —
/// the white-box counters need the instance to survive the run).
struct DirectRun {
  std::unique_ptr<PortfolioPolicy> policy;
  core::Schedule schedule;
};

DirectRun run_direct(const std::string& spec, bool churn, std::uint64_t seed) {
  util::Rng rng(seed);
  const int m = 5;
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
  const int tasks = scaled_tasks(120);
  const double rate = 0.9 * experiments::max_throughput(plat);
  util::Rng work_rng(util::Rng(seed).child_seed(1));
  const Workload work = Workload::poisson(tasks, rate, work_rng);

  core::EngineOptions options;
  if (churn) {
    const core::Time horizon = 1.5 * static_cast<core::Time>(tasks) / rate;
    util::Rng avail_rng(util::Rng(seed).child_seed(2));
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, m, horizon / 6.0, 0.25, horizon,
        avail_rng);
  }

  DirectRun out;
  out.policy = std::make_unique<PortfolioPolicy>(parse_meta_spec(spec));
  core::OnePortEngine engine(plat, *out.policy, options);
  engine.load(work);
  engine.run_to_completion();
  out.schedule = engine.schedule();
  return out;
}

TEST(IncrementalProjection, StaticRunRebuildsOnceAndResyncsTheRest) {
  const DirectRun run =
      run_direct("portfolio:LS;rank:queue+horizon:4", /*churn=*/false, 17);
  const PortfolioPolicy& policy = *run.policy;
  ASSERT_NE(policy.projection(), nullptr);
  EXPECT_GT(policy.decisions(), 0);
  // One sync per decision, each either a rebuild or a resync.
  EXPECT_EQ(policy.projection()->rebuilds() + policy.projection()->resyncs(),
            policy.decisions());
  // No disruptive events in a static run: only the priming rebuild.
  EXPECT_EQ(policy.projection()->rebuilds(), 1);
  EXPECT_GT(policy.projection()->resyncs(), 0);
}

TEST(IncrementalProjection, ChurnForcesRebuildsButResyncsStillDominate) {
  const DirectRun run =
      run_direct("portfolio:LS;rank:queue+horizon:4", /*churn=*/true, 23);
  const PortfolioPolicy& policy = *run.policy;
  ASSERT_NE(policy.projection(), nullptr);
  EXPECT_EQ(policy.projection()->rebuilds() + policy.projection()->resyncs(),
            policy.decisions());
  // kDisrupt (offline transition with re-queues) is the one event the feed
  // does not itemize — every one costs a rebuild.
  EXPECT_GT(policy.projection()->rebuilds(), 1);
  // ...and between outages the delta replay still carries the run.
  EXPECT_GT(policy.projection()->resyncs(), 0);
}

// ------------------------------------------------------------- stamp memo ----

Platform heterogeneous_platform(int m, std::uint64_t seed) {
  util::Rng rng(seed);
  return platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
}

/// Never assigns: freezes the engine so the portfolio under test can be
/// consulted repeatedly at one instant with unchanged observables.
class DeferPolicy : public core::OnlineScheduler {
 public:
  std::string name() const override { return "DEFER"; }
  core::Decision decide(const core::EngineView&) override {
    return core::Defer{};
  }
};

TEST(PortfolioPolicy, MemoSkipsDeterministicMembersWhenNothingMoved) {
  const Platform plat = heterogeneous_platform(4, 41);
  util::Rng work_rng(7);
  const Workload work = Workload::bursty(12, 12, 1.0, work_rng);
  DeferPolicy freeze;
  core::OnePortEngine engine(plat, freeze, {});
  engine.load(work);
  engine.run_until(5.0);  // releases processed, nothing committed
  ASSERT_GT(engine.pending_count(), 0);

  PortfolioPolicy policy(parse_meta_spec("portfolio:LS;SRPT+horizon:4"));
  const core::Decision first = policy.decide(engine);
  EXPECT_EQ(policy.memo_hits(), 0);
  const core::Decision second = policy.decide(engine);
  // Both members are deterministic and no observable changed between the
  // consults: both forward-sims are skipped outright.
  EXPECT_EQ(policy.memo_hits(), 2);

  // Memoized or not, the committed decision is the same — and identical to
  // the rebuild baseline consulted at the same frozen instant.
  RebuildPortfolioPolicy baseline(
      parse_meta_spec("portfolio:LS;SRPT+horizon:4"));
  const core::Decision reference = baseline.decide(engine);
  ASSERT_TRUE(std::holds_alternative<core::Assign>(first));
  ASSERT_TRUE(std::holds_alternative<core::Assign>(second));
  ASSERT_TRUE(std::holds_alternative<core::Assign>(reference));
  EXPECT_EQ(std::get<core::Assign>(first).task,
            std::get<core::Assign>(second).task);
  EXPECT_EQ(std::get<core::Assign>(first).slave,
            std::get<core::Assign>(second).slave);
  EXPECT_EQ(std::get<core::Assign>(first).task,
            std::get<core::Assign>(reference).task);
  EXPECT_EQ(std::get<core::Assign>(first).slave,
            std::get<core::Assign>(reference).slave);
}

TEST(PortfolioPolicy, RngMembersAreNeverMemoized) {
  const Platform plat = heterogeneous_platform(4, 43);
  util::Rng work_rng(9);
  const Workload work = Workload::bursty(12, 12, 1.0, work_rng);
  DeferPolicy freeze;
  core::OnePortEngine engine(plat, freeze, {});
  engine.load(work);
  engine.run_until(5.0);
  ASSERT_GT(engine.pending_count(), 0);

  PortfolioPolicy policy(parse_meta_spec(
      "portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4"));
  policy.decide(engine);
  policy.decide(engine);
  // Only the deterministic LS member may hit the memo; the rng member's
  // stream position depends on the decision ordinal and is re-simulated.
  EXPECT_EQ(policy.memo_hits(), 1);
}

// ------------------------------------------------------------ reset reuse ----

TEST(PortfolioPolicy, ReusedInstanceReproducesAFreshInstanceRun) {
  util::Rng rng(57);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 5, rng);
  util::Rng work_rng(3);
  const Workload work =
      Workload::bursty(scaled_tasks(100), 10, 2.0, work_rng);

  const auto reused =
      make_meta_policy(parse_meta_spec("portfolio:LS;SRPT;rank:queue+horizon:4"));
  const core::Schedule first = core::simulate(plat, work, *reused);
  // Second run through the same instance: reset() must drop the projection
  // and memo so the replay is exact (a stale mirror or memo would diverge).
  const core::Schedule again = core::simulate(plat, work, *reused);
  expect_schedules_identical(first, again, "reused instance");
  EXPECT_TRUE(core::validate(plat, work, first).empty());

  const auto fresh =
      make_meta_policy(parse_meta_spec("portfolio:LS;SRPT;rank:queue+horizon:4"));
  expect_schedules_identical(first, core::simulate(plat, work, *fresh),
                             "fresh instance");
}

// ----------------------------------------------- thread-count byte-identity ----

std::string run_grid_to_csv(const runner::ScenarioGrid& grid, int threads) {
  std::ostringstream out;
  runner::CsvSink csv(out);
  runner::RunnerOptions options;
  options.threads = threads;
  runner::ParallelRunner runner(options);
  runner.run(grid, {&csv});
  return out.str();
}

/// Bursty + churny cells with an rng-tied portfolio member and a hedge.
/// This is the regression for the "member RNG streams restart from counter
/// 0 after a hedge switch" report: hedge members are constructed once and
/// frozen while benched — their tie streams and cursors *continue* across
/// switches, they are never re-derived — and portfolio member streams are
/// counter-derived per (member index, decision ordinal), never from the
/// engine's thread. Either defect would break the 1-vs-4-thread equality
/// below in the switch-heavy cells this grid forces (asserted non-trivial
/// via the switches metric).
runner::ScenarioGrid incremental_meta_grid() {
  runner::ScenarioGrid grid;
  grid.name = "meta-incremental";
  grid.seed = 47;
  grid.num_platforms = 2;
  grid.num_tasks = 40;
  grid.lookahead = 40;
  grid.algorithms = {
      "portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
      "portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6",
      "hedge:LS;rank:queue+window:8+hyst:2",
  };
  grid.classes = {platform::PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {3};
  grid.arrivals = {experiments::ArrivalProcess::kPoisson,
                   experiments::ArrivalProcess::kBursty};
  grid.loads = {0.9};
  grid.jitters = {0.0};
  grid.port_capacities = {1};
  grid.avails = {platform::AvailabilityModel::kAlways,
                 platform::AvailabilityModel::kChurn};
  grid.mtbf_tasks = {12.0};
  grid.outage_fracs = {0.3};
  return grid;
}

TEST(ParallelRunner, IncrementalMetaGridBitIdenticalAcrossThreadCounts) {
  const runner::ScenarioGrid grid = incremental_meta_grid();
  const std::string one = run_grid_to_csv(grid, 1);
  const std::string four = run_grid_to_csv(grid, 4);
  EXPECT_EQ(one, four);
  EXPECT_FALSE(one.empty());

  // The meta policies must actually switch members somewhere in the grid —
  // otherwise the stream-continuation regression above is vacuous.
  runner::MemorySink memory;
  runner::ParallelRunner runner;
  runner.run(grid, {&memory});
  double switches = 0.0;
  for (const runner::ResultRecord& record : memory.records()) {
    switches += record.result.switches.mean;
  }
  EXPECT_GT(switches, 0.0);
}

}  // namespace
}  // namespace msol::algorithms::meta
